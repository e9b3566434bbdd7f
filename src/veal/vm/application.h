#ifndef VEAL_VM_APPLICATION_H_
#define VEAL_VM_APPLICATION_H_

/**
 * @file
 * The VM's view of an application: its loop sites with execution profile,
 * plus the acyclic remainder.
 */

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "veal/arch/cpu_config.h"
#include "veal/ir/loop.h"

namespace veal {

/** One static loop in an application binary. */
struct LoopSite {
    /** The loop as the (transformed or plain) binary expresses it. */
    Loop loop;

    /**
     * Non-empty when the static compiler fissioned the loop to fit stream
     * limits: the LA executes (and the transformed binary contains) these
     * pieces in sequence instead of @p loop.
     */
    std::vector<Loop> fissioned;

    /** Times this site is entered over the whole run. */
    std::int64_t invocations = 1;

    /** Trip count per invocation. */
    std::int64_t iterations = 100;
};

/**
 * Every CPU lane of an application priced on one CpuConfig
 * (priceCpuBaseline() in vm/vm.h): cycles per invocation at the site's
 * trip count.
 */
struct CpuBaseline {
    /** The configuration every price below was simulated on. */
    CpuConfig cpu;

    /** The prices of one LoopSite. */
    struct Site {
        std::int64_t loop = 0;             ///< LoopSite::loop, unfissioned.
        std::vector<std::int64_t> pieces;  ///< LoopSite::fissioned, in order.
    };

    /** One entry per Application::sites entry, in order. */
    std::vector<Site> sites;
};

/** A whole program, profiled at the loop level. */
struct Application {
    std::string name;
    std::vector<LoopSite> sites;

    /**
     * Baseline (1-issue) cycles spent outside any loop.  Wider CPUs scale
     * this by CpuConfig::acyclic_speedup; the LA never touches it.
     */
    std::int64_t acyclic_cycles = 0;

    /**
     * The CPU lanes priced once, so that every VirtualMachine::run and
     * cpuOnlyCycles() on an equal CpuConfig reads them instead of
     * re-simulating (any other CPU re-prices).  The suite builder fills
     * it for every transformed app; sweep cells share it read-only.
     *
     * Contract: code that edits a site's loop, fissioned pieces or
     * iterations, or adds or removes a site, must reset this.  Prices
     * are per invocation, so invocations and acyclic_cycles may change
     * freely.
     */
    std::optional<CpuBaseline> cpu_baseline;
};

}  // namespace veal

#endif  // VEAL_VM_APPLICATION_H_
