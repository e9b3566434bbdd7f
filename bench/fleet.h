#ifndef VEAL_BENCH_FLEET_H_
#define VEAL_BENCH_FLEET_H_

/**
 * @file
 * Fleet-vs-single-design-point study (veal-bench --mode fleet).
 *
 * Prices every transformed loop piece of the evaluation suite against
 * every backend of the standard heterogeneous fleet (baseline + the
 * four presets, see veal/fleet/fleet.h) through the SweepRunner
 * (loop x backend) scoring grid, steers each piece with the real
 * FleetSteerer, and compares two steady-state whole-suite totals:
 *
 *   baseline -- every piece served by the paper's single proposed
 *               design point (CPU when the LA loses or rejects), and
 *   fleet    -- every piece served by its steered backend (same CPU
 *               escape hatch).
 *
 * Totals are invocation-weighted warm (steady-state) cycles, entirely
 * modeled, so they are byte-stable across machines and --threads;
 * tests/bench_golden_test.cc pins them and holds the fleet-level
 * speedup to at least 1.1x.  Wall-clock per scoring pass goes to
 * stderr and the envelope only.
 */

#include "bench/report.h"

namespace veal::bench {

/**
 * Run the study: options.runs timed scoring passes over the media/FP
 * suite on an options.threads-wide pool (each pass must produce
 * identical scores -- asserted), steer once, and compare.
 *
 * Modeled block, in order: fleet (the spec evaluated, "standard");
 * pieces (loop pieces priced); scored_cells (pieces x backends);
 * cpu_steady_cycles (the all-CPU strawman); baseline_steady_cycles
 * (single design point); fleet_steady_cycles (steered fleet);
 * cpu_win_pieces (pieces the CPU serves anyway); speedup_milli
 * (baseline * 1000 / fleet); backends, one row per backend with
 * placed_pieces, placed_invocations (their profile weight) and
 * steady_cycles (weighted warm cycles served there; CPU-win pieces
 * count in the CPU total); and benchmarks, one row per benchmark with
 * baseline_cycles, fleet_cycles and speedup_milli.  Wall block: p50_ms
 * of the scoring passes.
 */
ModeReport runFleetBench(const ModeOptions& options);

}  // namespace veal::bench

#endif  // VEAL_BENCH_FLEET_H_
