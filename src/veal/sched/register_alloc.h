#ifndef VEAL_SCHED_REGISTER_ALLOC_H_
#define VEAL_SCHED_REGISTER_ALLOC_H_

/**
 * @file
 * Register assignment post-pass (paper §4.1, "Register Assignment").
 *
 * The translator maps loop operands one-to-one onto the LA's register
 * files.  Paper §3.1 rules determine who needs a register at all:
 * "registers are not needed to store values that are read from or written
 * into memory FIFOs nor are they needed for values that are read directly
 * off the interconnection network (i.e., values computed the previous
 * cycle)".  If the files are too small, translation aborts and the loop
 * runs on the baseline CPU.
 */

#include <string>
#include <vector>

#include "veal/arch/la_config.h"
#include "veal/ir/loop_analysis.h"
#include "veal/sched/schedule.h"
#include "veal/sched/sched_graph.h"
#include "veal/support/cost_meter.h"

namespace veal {

/** Result of the one-to-one operand mapping. */
struct RegisterAssignment {
    bool ok = false;
    std::string fail_reason;

    int int_regs_used = 0;
    int fp_regs_used = 0;

    /** Register index per unit's result value, or -1 if bypassed. */
    std::vector<int> reg_of_unit;

    /** Register index per kConst/kLiveIn op, or -1 if never materialised. */
    std::vector<int> reg_of_source_op;
};

/**
 * Map operands onto the register files.
 *
 * @param meter  optional cost meter charged under kRegisterAssignment.
 */
RegisterAssignment assignRegisters(const Loop& loop,
                                   const LoopAnalysis& analysis,
                                   const SchedGraph& graph,
                                   const Schedule& schedule,
                                   const LaConfig& config,
                                   CostMeter* meter = nullptr);

}  // namespace veal

#endif  // VEAL_SCHED_REGISTER_ALLOC_H_
