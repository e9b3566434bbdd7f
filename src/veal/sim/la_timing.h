#ifndef VEAL_SIM_LA_TIMING_H_
#define VEAL_SIM_LA_TIMING_H_

/**
 * @file
 * Execution-time model for a translated loop running on the LA.
 *
 * An invocation pays: the system-bus handshake (paper: fixed 10 cycles),
 * control/configuration transfer over the memory-mapped interface, scalar
 * live-in copies, the software-pipelined execution itself
 * ((iterations - 1) * II + schedule length), and the scalar result drain.
 * Streaming memory traffic is fully decoupled and hidden (paper §2.1/§4.3:
 * "this latency is largely irrelevant given the streaming nature of the
 * target applications").
 */

#include <cstdint>

#include "veal/arch/la_config.h"
#include "veal/ir/loop_analysis.h"
#include "veal/sched/register_alloc.h"
#include "veal/sched/schedule.h"

namespace veal {

/** Per-invocation cost breakdown on the accelerator. */
struct LaInvocationCost {
    std::int64_t setup_cycles = 0;    ///< Bus + config + live-in copies.
    std::int64_t pipeline_cycles = 0; ///< Prologue + kernel + epilogue.
    std::int64_t drain_cycles = 0;    ///< Bus + live-out copies.

    std::int64_t
    total() const
    {
        return setup_cycles + pipeline_cycles + drain_cycles;
    }
};

/**
 * The six scalars of a translated loop the cost model reads.
 * laCostScalars() lifts them out of a live translation, once for both
 * acceleratorLoopCost() and persist::summarize(); laInvocationCost() is
 * the one copy of the formula over them.
 */
struct LaCostScalars {
    std::int64_t fu_units = 0;      ///< Scheduled FU units (control words).
    std::int64_t streams = 0;       ///< Load + store stream contexts.
    std::int64_t live_in_regs = 0;  ///< Registers written per invocation.
    std::int64_t live_outs = 0;     ///< Scalar results drained per invocation.
    std::int64_t ii = 0;
    std::int64_t length = 0;        ///< Schedule length of one iteration.
};

/**
 * Cycles for one invocation of a loop with shape @p scalars running
 * @p iterations iterations.  @p first_invocation adds the control-
 * transfer cost; a loop re-invoked while its control is still loaded
 * skips it.
 */
LaInvocationCost laInvocationCost(const LaCostScalars& scalars,
                                  const LaConfig& config,
                                  std::int64_t iterations,
                                  bool first_invocation);

/** The cost-model scalars of a live translation. */
LaCostScalars laCostScalars(const Schedule& schedule,
                            const SchedGraph& graph,
                            const LoopAnalysis& analysis,
                            const RegisterAssignment& registers);

/** laInvocationCost() over laCostScalars() of a live translation. */
LaInvocationCost acceleratorLoopCost(const Schedule& schedule,
                                     const SchedGraph& graph,
                                     const LoopAnalysis& analysis,
                                     const RegisterAssignment& registers,
                                     const LaConfig& config,
                                     std::int64_t iterations,
                                     bool first_invocation = true);

}  // namespace veal

#endif  // VEAL_SIM_LA_TIMING_H_
