#ifndef VEAL_SCHED_REFERENCE_H_
#define VEAL_SCHED_REFERENCE_H_

/**
 * @file
 * Reference scheduler facade: the pre-optimization translation kernels,
 * frozen verbatim.
 *
 * The production kernels in mii.cc / mrt.cc / priority.cc / scheduler.cc
 * are tuned for wall-clock speed (flat storage, reused scratch buffers,
 * prefiltered edge lists) under the contract that their *modeled* cost --
 * every CostMeter charge -- is bit-identical to the originals.  This
 * facade keeps the originals alive so the contract is testable: the
 * differential suite (tests/sched_equivalence_test.cc) and the veal-fuzz
 * --sched-diff campaign run both paths on the same graph and assert
 *  - identical schedules (II, times, FU instances),
 *  - identical node orders, and
 *  - identical per-phase charge totals.
 *
 * Nothing here is reachable from the VM; it exists only as an oracle.
 * Do not optimise this file.
 */

#include <optional>

#include "veal/sched/priority.h"
#include "veal/sched/schedule.h"
#include "veal/sched/scheduler.h"
#include "veal/support/cost_meter.h"

namespace veal::reference {

/** RecMII over the whole graph (original binary-search Bellman-Ford). */
int recMii(const SchedGraph& graph, CostMeter* meter = nullptr);

/** RecMII restricted to one recurrence SCC. */
int recMiiOfSubset(const SchedGraph& graph,
                   const std::vector<bool>& member,
                   CostMeter* meter = nullptr,
                   TranslationPhase phase = TranslationPhase::kPriority);

/** Feasibility test at one II. */
bool iiFeasible(const SchedGraph& graph, int ii,
                CostMeter* meter = nullptr,
                TranslationPhase phase =
                    TranslationPhase::kMiiComputation);

/** Earliest/latest bounds (original double Bellman-Ford). */
SchedBounds computeBounds(const SchedGraph& graph, int ii,
                          CostMeter* meter = nullptr,
                          TranslationPhase phase =
                              TranslationPhase::kScheduling);

/** The original swing ordering (std::set frontier, fresh scratch). */
NodeOrder computeSwingOrder(const SchedGraph& graph, int ii,
                            CostMeter* meter = nullptr);

/** The original height ordering. */
NodeOrder computeHeightOrder(const SchedGraph& graph, int ii,
                             CostMeter* meter = nullptr);

/**
 * The original modulo list scheduler: per-II MRT reallocation,
 * check-then-set reservations.  The facade is an oracle, not a
 * production path.
 */
std::optional<Schedule> scheduleLoop(const SchedGraph& graph,
                                     const LaConfig& config,
                                     const NodeOrder& order, int min_ii,
                                     CostMeter* meter = nullptr,
                                     SchedulerStats* stats = nullptr);

}  // namespace veal::reference

#endif  // VEAL_SCHED_REFERENCE_H_
