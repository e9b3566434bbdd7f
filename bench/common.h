#ifndef VEAL_BENCH_COMMON_H_
#define VEAL_BENCH_COMMON_H_

/**
 * @file
 * Shared helpers for the paper-reproduction benchmark harness.
 *
 * Every sweep bench fans its (config x benchmark) grid out over
 * veal::explore::SweepRunner.  Figure tables go to stdout and are
 * bit-identical for any --threads value; timing instrumentation goes to
 * stderr so determinism checks can diff stdout alone.
 */

#include <string>
#include <vector>

#include "veal/arch/la_config.h"
#include "veal/explore/sweep.h"
#include "veal/vm/vm.h"
#include "veal/workloads/suite.h"

namespace veal::bench {

/** Command-line knobs shared by all paper benches. */
struct BenchOptions {
    /** Sweep pool width; <= 0 selects ThreadPool::defaultThreads(). */
    int threads = 0;

    /**
     * When non-empty, write the runner's metrics registry here as a
     * veal-metrics-v1 JSON snapshot (byte-identical for any --threads).
     */
    std::string metrics_json;

    /**
     * veal-report mode: after the figure table, print a Figure-8-style
     * per-phase cycle table read straight from the metrics registry
     * (the "vm.phase_cycles.*" counters) instead of ad-hoc struct
     * fields.  Goes to stdout -- it is as deterministic as the figure.
     */
    bool report = false;

    /**
     * Parse --threads N, --metrics-json FILE, --report (and --help).
     * Unknown flags and malformed values ("12abc" is not an integer)
     * print the diagnostic plus the usage line to stderr and exit 2,
     * so a typo cannot silently fall back to a serial or default run.
     */
    static BenchOptions parse(int argc, char** argv);
};

/** A SweepRunner over @p suite honouring @p options. */
explore::SweepRunner makeRunner(const BenchOptions& options,
                                std::vector<Benchmark> suite);

/**
 * Print the runner's accumulated wall-clock, summed per-cell time, and
 * measured parallel speedup -- to stderr, keeping stdout deterministic.
 */
void reportSweepStats(const explore::SweepRunner& runner);

/**
 * End-of-bench observability epilogue: honour --report (print the
 * veal-report phase table from @p registry to stdout) and --metrics-json
 * (write the snapshot; fatal on I/O failure so CI cannot diff a stale
 * file).  A no-op when neither flag was given.
 */
void finishBenchMetrics(const BenchOptions& options,
                        const metrics::Registry& registry);

}  // namespace veal::bench

#endif  // VEAL_BENCH_COMMON_H_
