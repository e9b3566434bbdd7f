#ifndef VEAL_WORKLOADS_KERNELS_H_
#define VEAL_WORKLOADS_KERNELS_H_

/**
 * @file
 * Hand-modelled loop kernels with the structural properties (op mix,
 * recurrences, memory stream counts, trip counts) of the paper's
 * MediaBench / SPECfp hot loops.  See DESIGN.md §2 for why structural
 * models substitute for the original binaries.
 *
 * Every builder takes a @p name so one kernel shape can appear in several
 * benchmarks as distinct loops, and a @p with_call flag where the paper's
 * "untransformed binary" variant keeps a clip/saturate helper call that
 * aggressive inlining would remove.
 */

#include <string>

#include "veal/ir/loop.h"
#include "veal/ir/transforms.h"

namespace veal {

/**
 * The library of inlinable helpers (clip, saturate, average) that the
 * static compiler aggressively inlines (paper §4.2, Figure 7).
 */
CalleeLibrary standardCalleeLibrary();

/** ADPCM codec step (rawcaudio/rawdaudio): predictor + step recurrences. */
Loop makeAdpcmStepLoop(const std::string& name, bool with_call = false);

/** G.721 pole/zero predictor update: many short integer recurrences. */
Loop makeG721PredictorLoop(const std::string& name, bool with_call = false);

/** FIR filter, fully unrolled over @p taps: wide ILP, taps load streams. */
Loop makeFirLoop(const std::string& name, int taps);

/** Dot product: multiply + accumulate recurrence. */
Loop makeDotProductLoop(const std::string& name);

/** Wavelet lifting step (epic/unepic): neighbour loads, carried update. */
Loop makeWaveletLiftLoop(const std::string& name, bool with_call = false);

/** 8-point DCT row (cjpeg/djpeg/mpeg2): unrolled butterflies, no recurrence.
 *  @p unroll of 2 doubles the streams (the untransformed binaries'
 *  over-unrolled variant that no longer fits the LA). */
Loop makeDct8Loop(const std::string& name, int unroll = 1);

/** Sum of absolute differences (mpeg2enc motion estimation). */
Loop makeSadLoop(const std::string& name, bool with_call = false);

/** Quantisation (mpeg2): multiply, shift, saturate. */
Loop makeQuantLoop(const std::string& name, bool with_call = false);

/** SHA-style mixing rounds (pegwit): one long cross-iteration recurrence
 *  chain; @p rounds unrolls rounds into the body.  The untransformed
 *  variant keeps the rotate helper as a call. */
Loop makeShaMixLoop(const std::string& name, int rounds,
                    bool with_call = false);

/** 5-point FP stencil (171.swim). */
Loop makeStencil5Loop(const std::string& name);

/** @p points-point FP stencil (172.mgrid uses 19..27 neighbour loads). */
Loop makeStencilNLoop(const std::string& name, int points);

/** rows x cols matrix-vector transform (177.mesa vertex pipeline). */
Loop makeMatVecLoop(const std::string& name, int rows, int cols);

/** Viterbi add-compare-select with path-metric recurrences. */
Loop makeViterbiAcsLoop(const std::string& name);

/** Simple copy/scale loop (memset/memcpy-like hot loops in integer apps). */
Loop makeCopyScaleLoop(const std::string& name);

/** A while-style search loop: needs speculation support, never maps. */
Loop makeSearchWhileLoop(const std::string& name);

/** A loop around a non-inlinable math call: never maps. */
Loop makeMathCallLoop(const std::string& name);

}  // namespace veal

#endif  // VEAL_WORKLOADS_KERNELS_H_
