#ifndef VEAL_SIM_REFERENCE_H_
#define VEAL_SIM_REFERENCE_H_

/**
 * @file
 * Reference simulation facade: the pre-batching simulators, frozen
 * verbatim.
 *
 * The batch engine in veal/sim/batch.h restructures the CPU timing
 * model and the functional interpreter for data-parallel rollouts
 * (structure-of-arrays state, arena-allocated loop graphs, lane-stepped
 * inner loops) under the contract that everything *modeled* -- cycle
 * counts, per-iteration rates, architectural memory and live-out
 * results, and the per-phase LA invocation charges -- is bit-identical
 * to the one-invocation-at-a-time originals.  This facade keeps those
 * originals alive so the contract is testable: the differential suite
 * (tests/sim_batch_equivalence_test.cc) and veal-bench --mode
 * simulation run both paths on the same cases and assert equality.
 *
 * Nothing here is reachable from the VM or the campaign drivers; it
 * exists only as an oracle and as the baseline veal-bench's simulation
 * speedup is measured against.  Do not optimise this file.
 */

#include <cstdint>

#include "veal/arch/cpu_config.h"
#include "veal/arch/la_config.h"
#include "veal/ir/loop.h"
#include "veal/ir/loop_analysis.h"
#include "veal/sched/register_alloc.h"
#include "veal/sched/schedule.h"
#include "veal/sim/cpu_sim.h"
#include "veal/sim/interpreter.h"
#include "veal/sim/la_timing.h"

namespace veal::reference {

/** The original scoreboarded in-order CPU timing model. */
CpuLoopTiming simulateLoopOnCpu(const Loop& loop, const CpuConfig& config,
                                std::int64_t iterations);

/** The original map-backed functional interpreter. */
ExecutionResult interpretLoop(const Loop& loop,
                              const ExecutionInput& input);

/** The original per-invocation LA cost model. */
LaInvocationCost acceleratorLoopCost(const Schedule& schedule,
                                     const SchedGraph& graph,
                                     const LoopAnalysis& analysis,
                                     const RegisterAssignment& registers,
                                     const LaConfig& config,
                                     std::int64_t iterations,
                                     bool first_invocation = true);

}  // namespace veal::reference

#endif  // VEAL_SIM_REFERENCE_H_
