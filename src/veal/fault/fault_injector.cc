#include "veal/fault/fault_injector.h"

namespace veal {

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)),
      rng_(plan_.seed * 0x9e3779b97f4a7c15ull + 0xb17f11bull)
{}

bool
FaultInjector::probe(FaultSite site)
{
    const auto index = static_cast<std::size_t>(site);
    const std::int64_t occurrence = probes_[index]++;
    for (const auto& fault : plan_.faults) {
        if (fault.site != site || occurrence < fault.first_fire)
            continue;
        if (fault.fires < 0 ||
            occurrence < fault.first_fire + fault.fires) {
            ++fired_[index];
            return true;
        }
    }
    return false;
}

bool
FaultInjector::budgetExceeded(double spent_instructions, int relief)
{
    if (plan_.translation_budget < 0)
        return false;
    const double allowance = static_cast<double>(
        plan_.translation_budget << std::min(relief, 16));
    if (spent_instructions <= allowance)
        return false;
    ++fired_[static_cast<std::size_t>(FaultSite::kTranslationBudget)];
    return true;
}

std::size_t
FaultInjector::corruptionBit(std::size_t num_bits)
{
    if (num_bits == 0)
        return 0;
    return static_cast<std::size_t>(
        rng_.nextBelow(static_cast<std::uint64_t>(num_bits)));
}

std::int64_t
FaultInjector::fired(FaultSite site) const
{
    return fired_[static_cast<std::size_t>(site)];
}

std::int64_t
FaultInjector::probes(FaultSite site) const
{
    return probes_[static_cast<std::size_t>(site)];
}

std::int64_t
FaultInjector::totalFired() const
{
    std::int64_t total = 0;
    for (const auto count : fired_)
        total += count;
    return total;
}

}  // namespace veal
