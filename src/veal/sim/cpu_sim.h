#ifndef VEAL_SIM_CPU_SIM_H_
#define VEAL_SIM_CPU_SIM_H_

/**
 * @file
 * Cycle-level in-order CPU model for the baseline processor.
 *
 * Models a scoreboarded in-order pipeline: instructions issue strictly in
 * program order, up to issue_width per cycle, stalling on RAW hazards
 * (including loop-carried ones) until source values are ready.  The
 * loop-back branch costs a redirect bubble each iteration.  This is the
 * machine the paper's speedups are measured against (ARM11-like at one
 * issue; the 2-/4-issue comparison bars use the same model, wider).
 *
 * The model has one live implementation, the batch engine
 * (BatchSimulator::simulateCpuBatch in veal/sim/batch.h);
 * simulateLoopOnCpu() is its one-lane form and
 * reference::simulateLoopOnCpu the frozen oracle both are tested
 * against.
 */

#include <cstdint>
#include <vector>

#include "veal/arch/cpu_config.h"
#include "veal/ir/loop.h"

namespace veal {

/** Iterations simulated before the model extrapolates. */
inline constexpr int kCpuSimIterations = 96;

/** Trailing simulated iterations the steady-state rate averages. */
inline constexpr int kCpuMeasureWindow = 32;

/** Timing of one loop executed on the in-order CPU. */
struct CpuLoopTiming {
    /** Total cycles for the full trip count. */
    std::int64_t total_cycles = 0;

    /** Steady-state cycles per iteration. */
    double cycles_per_iteration = 0.0;
};

/**
 * Total cycles of @p iterations: @p window_total is max(last completion
 * cycle, 1) after the first min(@p iterations, kCpuSimIterations),
 * @p tail the cycles the last kCpuMeasureWindow of a full window took
 * (read only past it).  The model's one copy of the extrapolation.
 */
std::int64_t extrapolateCpuCycles(std::int64_t window_total,
                                  std::int64_t tail,
                                  std::int64_t iterations);

/**
 * A loop's CPU price at every trip count, from one full-window run.
 *
 * The first k simulated iterations are the same whatever the trip
 * count, so one kCpuSimIterations run prices every N <= 96 (the running
 * total after N) and fixes the steady-state tail every longer N
 * extrapolates with.  Totals are kept in 32-bit cells; a run whose
 * totals do not fit yields an empty profile, which covers nothing.
 */
class CpuProfile {
  public:
    /** The empty profile. */
    CpuProfile() = default;

    /** Profile of a full-window run: @p window_totals[k], for each of
        the kCpuSimIterations iterations k, is the last completion cycle
        after iteration k; @p tail as in extrapolateCpuCycles(). */
    CpuProfile(const std::int64_t* window_totals, std::int64_t tail);

    bool empty() const { return totals_.empty(); }

    /** True when totalAt(@p iterations) is answerable. */
    bool
    covers(std::int64_t iterations) const
    {
        return !empty() && iterations >= 1;
    }

    /**
     * simulateLoopOnCpu(loop, config, @p iterations).total_cycles,
     * bit-identically.  @pre covers(@p iterations).
     */
    std::int64_t totalAt(std::int64_t iterations) const;

    /** max(completion, 1) after each iteration of the window (none when
        empty), and the tail: what a persisted profile stores. */
    const std::vector<std::int32_t>& totals() const { return totals_; }
    std::int32_t tail() const { return tail_; }

  private:
    std::vector<std::int32_t> totals_;
    std::int32_t tail_ = 0;
};

/**
 * Simulate @p iterations of @p loop on @p config.
 *
 * The pipeline is simulated cycle-accurately for enough iterations to
 * reach steady state, then extrapolated (loops are by construction
 * periodic, so the extrapolation is exact once the schedule repeats).
 */
CpuLoopTiming simulateLoopOnCpu(const Loop& loop, const CpuConfig& config,
                                std::int64_t iterations);

}  // namespace veal

#endif  // VEAL_SIM_CPU_SIM_H_
