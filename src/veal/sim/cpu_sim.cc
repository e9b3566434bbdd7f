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

CpuProfile::CpuProfile(const std::int64_t* window_totals, int length,
                       std::int64_t tail)
{
    VEAL_ASSERT(length >= 1 && length <= kCpuSimIterations);
    constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
    const bool full = length == kCpuSimIterations;
    // Completion cycles never decrease, so the last total bounds them
    // all; a run that overflows 32 bits is simply not memoized.
    if (window_totals[length - 1] > kMax ||
        (full && (tail < 0 || tail > kMax)))
        return;
    totals_.resize(static_cast<std::size_t>(length));
    for (int k = 0; k < length; ++k) {
        totals_[static_cast<std::size_t>(k)] = static_cast<std::int32_t>(
            std::max<std::int64_t>(window_totals[k], 1));
    }
    tail_ = full ? static_cast<std::int32_t>(tail) : 0;
}

std::int64_t
CpuProfile::totalAt(std::int64_t iterations) const
{
    VEAL_ASSERT(covers(iterations), "profile of ", length(),
                " iterations cannot price ", iterations);
    const auto last = static_cast<std::size_t>(
        std::min<std::int64_t>(iterations, length()) - 1);
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
