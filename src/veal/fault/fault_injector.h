#ifndef VEAL_FAULT_FAULT_INJECTOR_H_
#define VEAL_FAULT_FAULT_INJECTOR_H_

/**
 * @file
 * The runtime half of the fault layer: a FaultInjector executes one
 * FaultPlan against one translation/dispatch run.
 *
 * Pipeline sites call probe() each time they are exercised; the injector
 * counts probes per site and fires exactly when the plan's armed windows
 * say so.  Every fired fault lands in exactly one per-site taxonomy
 * counter (fired()), which the campaign driver cross-checks against the
 * hardened VM's recovery accounting.
 *
 * Thread-safety: none -- an injector is mutable run state.  Construct
 * one per (plan, run) and confine it to that thread; determinism then
 * follows from the plan being a pure function of its seed.
 */

#include <array>
#include <cstdint>
#include <string>

#include "veal/fault/fault_plan.h"
#include "veal/support/rng.h"

namespace veal {

/** Executes one FaultPlan; see file comment. */
class FaultInjector {
  public:
    explicit FaultInjector(FaultPlan plan);

    /**
     * Record that @p site is being exercised; true when the plan says
     * this occurrence fails.  Increments the site's probe count either
     * way and its fired count when it fires.
     */
    bool probe(FaultSite site);

    /**
     * Translation-budget watchdog: true when @p spent_instructions
     * exceeds the armed budget left-shifted by @p relief (each
     * degradation rung doubles the allowance).  A true return counts as
     * one kTranslationBudget fire.  Always false when the budget is
     * unarmed.
     */
    bool budgetExceeded(double spent_instructions, int relief);

    /**
     * Deterministic bit index in [0, num_bits) for a cache-corruption
     * flip.  Draws from the plan-seeded stream, so the corrupted bit is
     * reproducible.
     */
    std::size_t corruptionBit(std::size_t num_bits);

    /** Times @p site fired so far (the taxonomy counter). */
    std::int64_t fired(FaultSite site) const;

    /** Times @p site was probed so far. */
    std::int64_t probes(FaultSite site) const;

    /** Total fires across all sites. */
    std::int64_t totalFired() const;

    const FaultPlan& plan() const { return plan_; }

  private:
    FaultPlan plan_;
    std::array<std::int64_t, kNumFaultSites> probes_{};
    std::array<std::int64_t, kNumFaultSites> fired_{};
    Rng rng_;
};

}  // namespace veal

#endif  // VEAL_FAULT_FAULT_INJECTOR_H_
