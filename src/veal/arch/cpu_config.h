#ifndef VEAL_ARCH_CPU_CONFIG_H_
#define VEAL_ARCH_CPU_CONFIG_H_

/**
 * @file
 * Baseline in-order CPU configurations.
 *
 * The paper's baseline is a single-issue embedded core modelled after the
 * ARM 11; the die-area comparison points are a dual-issue Cortex-A8-like
 * core and a hypothetical quad-issue variant with a larger L2 (§4.3).
 */

#include <string>

#include "veal/arch/latency.h"

namespace veal {

/** An in-order CPU design point for the veal/sim pipeline model. */
struct CpuConfig {
    std::string name = "cpu";

    /** Instructions issued per cycle (in order). */
    int issue_width = 1;

    /** Taken-branch redirect penalty in cycles. */
    int branch_penalty = 3;

    /** Per-opcode latencies. */
    LatencyModel latencies = LatencyModel::cpu();

    /**
     * Average load latency in cycles.  Wider parts in the paper also carry
     * bigger caches; we fold that into a lower average load latency.
     */
    int load_latency = 2;

    /** Die area in mm^2 at 90 nm (reported constants; see veal/arch/area). */
    double area_mm2 = 4.34;

    /**
     * Speedup of *acyclic* (non-loop) code relative to the 1-issue
     * baseline.  Wider in-order machines extract limited ILP from acyclic
     * regions; loop regions are simulated directly instead.
     */
    double acyclic_speedup = 1.0;

    /** Single-issue ARM11-like baseline (4.34 mm^2). */
    static CpuConfig arm11();

    /** Dual-issue Cortex-A8-like core (10.2 mm^2). */
    static CpuConfig cortexA8();

    /** Hypothetical quad-issue A8 with larger L2 (14.0 mm^2). */
    static CpuConfig quadIssue();

    /**
     * Field-wise equality: a CpuBaseline (vm/application.h) priced on
     * one configuration serves exactly the configurations equal to it.
     */
    bool operator==(const CpuConfig&) const = default;
};

}  // namespace veal

#endif  // VEAL_ARCH_CPU_CONFIG_H_
