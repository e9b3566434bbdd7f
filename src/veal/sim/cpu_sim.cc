#include "veal/sim/cpu_sim.h"

#include <algorithm>
#include <limits>

#include "veal/sim/batch.h"
#include "veal/support/assert.h"

namespace veal {

std::int64_t
extrapolateCpuCycles(std::int64_t window_total, std::int64_t tail,
                     std::int64_t iterations)
{
    if (iterations <= kCpuSimIterations)
        return window_total;
    const double cycles_per_iteration =
        static_cast<double>(tail) / kCpuMeasureWindow;
    const double extra =
        cycles_per_iteration *
        static_cast<double>(iterations - kCpuSimIterations);
    return window_total + static_cast<std::int64_t>(extra);
}

CpuProfile::CpuProfile(const std::int64_t* window_totals, std::int64_t tail)
{
    constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
    // Completion cycles never decrease, so the last total bounds them
    // all; a run that overflows 32 bits is simply not memoized.
    if (window_totals[kCpuSimIterations - 1] > kMax || tail < 0 ||
        tail > kMax)
        return;
    totals_.resize(kCpuSimIterations);
    for (int k = 0; k < kCpuSimIterations; ++k) {
        totals_[static_cast<std::size_t>(k)] = static_cast<std::int32_t>(
            std::max<std::int64_t>(window_totals[k], 1));
    }
    tail_ = static_cast<std::int32_t>(tail);
}

std::int64_t
CpuProfile::totalAt(std::int64_t iterations) const
{
    VEAL_ASSERT(covers(iterations), "profile cannot price ", iterations,
                " iterations");
    const auto last = static_cast<std::size_t>(
        std::min<std::int64_t>(iterations, kCpuSimIterations) - 1);
    return extrapolateCpuCycles(totals_[last], tail_, iterations);
}

CpuLoopTiming
simulateLoopOnCpu(const Loop& loop, const CpuConfig& config,
                  std::int64_t iterations)
{
    return simulateCpuBatch(config, {CpuSimRequest{&loop, iterations}})
        .front();
}

}  // namespace veal
