#ifndef VEAL_SCHED_SCHEDULER_H_
#define VEAL_SCHED_SCHEDULER_H_

/**
 * @file
 * The modulo list scheduler (paper §4.1, "Scheduling").
 *
 * Places units in priority order into a modulo reservation table, scanning
 * an II-wide window whose direction follows swing scheduling: forward from
 * the earliest start when placed predecessors dominate, backward from the
 * latest start when placed successors dominate.  On failure the candidate
 * II increments (the node order is *not* recomputed -- it is II-independent
 * so that it can be encoded statically, Figure 9(c)).
 */

#include <optional>

#include "veal/sched/mrt.h"
#include "veal/sched/priority.h"
#include "veal/sched/schedule.h"
#include "veal/support/cost_meter.h"

namespace veal {

/**
 * How hard the II search worked -- the observability layer's view of the
 * scheduler (reported as vm.sched.* counters and the vm.ii histogram).
 */
struct SchedulerStats {
    std::int64_t attempted_iis = 0;       ///< tryIi() calls (incl. success).
    std::int64_t placement_failures = 0;  ///< IIs abandoned mid-placement.
};

/**
 * Schedule @p graph onto @p config trying IIs from @p min_ii upward.
 *
 * @param order  unit order from computeSwingOrder()/computeHeightOrder().
 * @param min_ii usually max(ResMII, RecMII).
 * @param meter  optional cost meter charged under kScheduling.
 * @param stats  optional search-effort accumulator (added to, not reset).
 * @return the schedule, or std::nullopt when no II <= config.max_ii works.
 */
std::optional<Schedule> scheduleLoop(const SchedGraph& graph,
                                     const LaConfig& config,
                                     const NodeOrder& order, int min_ii,
                                     CostMeter* meter = nullptr,
                                     SchedulerStats* stats = nullptr);

}  // namespace veal

#endif  // VEAL_SCHED_SCHEDULER_H_
