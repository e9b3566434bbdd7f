#ifndef VEAL_EXPLORE_SWEEP_H_
#define VEAL_EXPLORE_SWEEP_H_

/**
 * @file
 * The parallel design-space-exploration engine.
 *
 * Every figure-3/4 experiment and the §3.1 design-point selection sweep
 * hundreds of (LaConfig x Benchmark) cells whose evaluations are
 * completely independent: translateLoop() is a pure function, and
 * VirtualMachine::run() is const with all per-run state on the stack.
 * SweepRunner fans those cells out over a ThreadPool and reduces them
 * *deterministically*: cell values land in a vector indexed by cell
 * number and every reduction walks that vector in index order, so the
 * figure output is bit-identical to a serial run no matter how many
 * threads raced to fill it.
 *
 * Thread-confinement contract (audited in DESIGN.md "Threading"):
 * each cell constructs its own VirtualMachine / CostMeter; nothing
 * mutable is shared between cells.  Benchmarks are shared read-only,
 * including each transformed app's CPU baseline table.
 *
 * The suite builder prices every CPU lane of an application once, on
 * the arm11 baseline (Application::cpu_baseline), and each cell's
 * VirtualMachine::run() reads those prices instead of re-simulating the
 * same baseline at every design point.  A cell simulates the CPU only
 * when its VM's CPU differs from the table's.  LA prices are the
 * closed-form acceleratorLoopCost() per piece (sim/la_timing.h).
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "veal/arch/la_config.h"
#include "veal/sim/tlb_model.h"
#include "veal/support/metrics/metrics.h"
#include "veal/support/thread_pool.h"
#include "veal/vm/vm.h"
#include "veal/workloads/suite.h"

namespace veal::explore {

/**
 * One backend's modeled price for one loop -- the fleet scorer's unit of
 * work (DESIGN.md §17).  Cycle totals come from the persist-summary cost
 * path (summaryLoopCost + streamTlbCharge), the same path the service
 * prices every serve through, so a score computed here equals the price
 * the service later charges on the chosen backend and equals the score
 * rehydrated from a persisted blob.
 */
struct LoopScore {
    bool ok = false;
    TranslationReject reject = TranslationReject::kNone;
    std::int32_t ii = 0;
    std::int32_t stage_count = 0;
    std::int64_t first_cycles = 0;  ///< First invocation (setup-heavy).
    std::int64_t warm_cycles = 0;   ///< Steady-state re-invocation.
};

/** Instrumentation for the last sweep executed by a SweepRunner. */
struct SweepStats {
    std::int64_t cells = 0;      ///< Cell evaluations dispatched.
    int threads = 1;             ///< Pool width used.
    double wall_seconds = 0.0;   ///< Elapsed time of the parallel sweep.

    /**
     * Summed per-cell thread-CPU time: what an equivalent serial run
     * would have cost in wall-clock on an idle machine.  CPU time (not
     * wall) so oversubscription cannot fake a speedup.
     */
    double cell_seconds = 0.0;

    /** Measured speedup over an equivalent serial execution. */
    double
    parallelSpeedup() const
    {
        return wall_seconds > 0.0 ? cell_seconds / wall_seconds : 1.0;
    }

    /** Accumulate another sweep's counters (for multi-sweep benches). */
    void add(const SweepStats& other);
};

/**
 * Evaluates (LaConfig x Benchmark) grids concurrently with deterministic
 * reductions.  One runner owns one ThreadPool; reuse it across sweeps so
 * workers are spawned once per benchmark process.
 */
class SweepRunner {
  public:
    /**
     * @param suite the benchmarks every cell row runs over (shared
     *        read-only across threads).
     * @param threads pool width; <= 0 selects
     *        ThreadPool::defaultThreads().
     */
    explicit SweepRunner(std::vector<Benchmark> suite, int threads = 0);

    const std::vector<Benchmark>& suite() const { return suite_; }
    int threads() const { return pool_->numThreads(); }

    /**
     * Lowest-level entry: evaluate @p cell(i) for i in [0, num_cells) in
     * parallel and return the values ordered by cell index.  @p cell must
     * be thread-safe for distinct indices.  Also the instrumentation
     * point: wall/cell timing lands in lastStats().
     */
    std::vector<double> evaluateCells(
        int num_cells, const std::function<double(int)>& cell) const;

    /**
     * As evaluateCells(), with observability: each cell writes into a
     * *private* metrics::Registry passed to @p cell, and the per-cell
     * registries are merged into metrics() in cell-index order after the
     * pool drains.  That reduction order -- never completion order -- is
     * what makes a snapshot byte-identical for every --threads value.
     */
    std::vector<double> evaluateCellsMetered(
        int num_cells,
        const std::function<double(int, metrics::Registry&)>& cell) const;

    /**
     * Mean over the suite (in benchmark order) of the whole-application
     * speedup on each configuration: the parallel port of
     * bench::meanSpeedup, one value per entry of @p configs.
     */
    std::vector<double> meanSpeedup(
        const std::vector<LaConfig>& configs, TranslationMode mode,
        const VmOptions* extra_options = nullptr) const;

    /**
     * The paper §3.1 DSE metric: mean over the suite of
     * (speedup on the config) / (speedup on the matching
     * infinite-resource LA), both with zero translation overhead.  One
     * value per entry of @p configs.  The finite and infinite runs of
     * each benchmark are separate cells, so even a single-config sweep
     * (bench_design_point) fills an 8-wide pool.
     */
    std::vector<double> fractionOfInfinite(
        const std::vector<LaConfig>& configs) const;

    /**
     * Generic per-(config, benchmark) sweep reduced to a per-config mean
     * in benchmark order.  @p cell must be thread-safe.
     */
    std::vector<double> sweepMean(
        const std::vector<LaConfig>& configs,
        const std::function<double(const Benchmark&, const LaConfig&)>&
            cell) const;

    /**
     * The fleet-scoring fan-out: price every @p loops[i] against every
     * @p configs[j] as one parallel (loop x backend) grid, returning
     * scores[i][j].  Each cell is an independent scoreLoopCell() call,
     * so the result is bit-identical at any pool width.
     */
    std::vector<std::vector<LoopScore>> scoreLoops(
        const std::vector<Loop>& loops,
        const std::vector<LaConfig>& configs, TranslationMode mode,
        std::int64_t iterations, const TlbConfig& tlb) const;

    /** Instrumentation accumulated over every sweep since construction. */
    const SweepStats& stats() const { return total_stats_; }

    /** Instrumentation for the most recent sweep only. */
    const SweepStats& lastStats() const { return last_stats_; }

    /**
     * Deterministic metrics accumulated by every metered sweep since
     * construction ("sweep.batches"/"sweep.cells" plus whatever the
     * cells recorded).  Mutable so benches can add their own counters
     * before snapshotting with --metrics-json.
     */
    metrics::Registry& metrics() const { return metrics_; }

  private:
    std::vector<Benchmark> suite_;

    /** unique_ptr so the runner stays movable despite the pool's mutex. */
    std::unique_ptr<ThreadPool> pool_;

    mutable SweepStats last_stats_;
    mutable SweepStats total_stats_;
    mutable metrics::Registry metrics_;
};

/**
 * One-cell convenience used by sweep lambdas and the serial helpers:
 * whole-application speedup of @p benchmark on (la, arm11) in @p mode.
 * Constructs a private VirtualMachine, so it is safe to call
 * concurrently.
 */
double cellSpeedup(const Benchmark& benchmark, const LaConfig& la,
                   TranslationMode mode,
                   const VmOptions* extra_options = nullptr);

/**
 * As cellSpeedup(), reporting the VM's decisions into @p registry
 * (typically the private per-cell registry of evaluateCellsMetered).
 */
double cellSpeedup(const Benchmark& benchmark, const LaConfig& la,
                   TranslationMode mode, const VmOptions* extra_options,
                   metrics::Registry* registry);

/** Infinite machine matching @p la's CCA presence (sweep baseline). */
LaConfig infiniteLike(const LaConfig& la);

/**
 * Price @p loop on one backend: a nominal-rung translateLoop() against
 * @p la (hybrid mode precompiles annotations against the same config),
 * then first/warm invocation totals at @p iterations via the summary
 * cost model, TLB charges included when @p tlb is enabled.  Pure
 * function of its arguments -- safe to call concurrently, and the
 * independence is what the fleet steering property battery recomputes
 * against.
 */
LoopScore scoreLoopCell(const Loop& loop, const LaConfig& la,
                        TranslationMode mode, std::int64_t iterations,
                        const TlbConfig& tlb);

/** The scalar-CPU rung's price for the same loop at @p iterations. */
std::int64_t scoreCpuCycles(const Loop& loop, const CpuConfig& cpu,
                            std::int64_t iterations);

}  // namespace veal::explore

#endif  // VEAL_EXPLORE_SWEEP_H_
