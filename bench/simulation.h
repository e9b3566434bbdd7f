#ifndef VEAL_BENCH_SIMULATION_H_
#define VEAL_BENCH_SIMULATION_H_

/**
 * @file
 * Batched-simulation throughput measurement (veal-bench --mode
 * simulation).
 *
 * One run pushes a fixed, seed-derived campaign case set -- the same
 * fuzz-loop stream the campaign drivers consume -- through both
 * simulation engines: the frozen scalar oracle (veal/sim/reference.h,
 * one invocation at a time, exactly the pre-batch campaign hot path)
 * and the batched data-parallel engine (veal/sim/batch.h, --batch lanes
 * per call).  Each case is a CPU-timing simulation, a functional
 * interpretation, and -- when the case translates -- the per-phase LA
 * charges.
 *
 * Everything modeled (case count, total cycles, and FNV digests over
 * every cycle count, architectural result, and LA charge in case order)
 * is asserted identical between the two engines inside the run, and is
 * byte-identical for any --threads and any --batch; wall-clock numbers
 * and the speedup go to stderr and the envelope only.
 * tests/bench_golden_test.cc pins the modeled block, and CI holds the
 * batched engine to at least 4x the reference.
 */

#include "bench/report.h"

namespace veal::bench {

/**
 * Run the measurement: options.runs timed passes of the case set
 * through each engine (reference first, then batched) on an
 * options.threads-wide pool, options.batch lanes per batched call.
 *
 * Modeled block, in order: cases, iterations, translated_cases (cases
 * with LA-charge lanes), total_cpu_cycles, and the FNV digests
 * cpu_digest (total cycles and cpi bits), exec_digest (live-outs and
 * memory images) and la_digest (per-phase LA charges).  Wall block:
 * reference_p50_ms, batched_p50_ms, reference_cases_per_sec,
 * batched_cases_per_sec and speedup_vs_reference.  Per-pass timing
 * prints to stderr.
 */
ModeReport runSimulationThroughput(const ModeOptions& options);

}  // namespace veal::bench

#endif  // VEAL_BENCH_SIMULATION_H_
