#ifndef VEAL_CCA_CCA_MAPPER_H_
#define VEAL_CCA_CCA_MAPPER_H_

/**
 * @file
 * Greedy CCA subgraph identification (paper §4.1, "CCA Mapping").
 *
 * Optimal subgraph selection is NP-complete, so the translator uses the
 * paper's greedy scheme: examine seed ops in numerical order, recursively
 * grow each seed along dataflow edges while the subgraph stays executable
 * on the CCA, and never grow across a merge that would lengthen a
 * dependence recurrence (the op-7/op-10 example in Figure 5).
 */

#include <vector>

#include "veal/arch/cca_spec.h"
#include "veal/arch/latency.h"
#include "veal/ir/loop.h"
#include "veal/ir/loop_analysis.h"
#include "veal/support/cost_meter.h"

namespace veal {

/** One collapsed subgraph: executes atomically as a single CCA op. */
struct CcaGroup {
    /** Member ops, ascending.  Always >= 2 members. */
    std::vector<OpId> members;
};

/** Result of CCA subgraph identification for one loop. */
struct CcaMapping {
    /** Identified groups; empty when the machine has no CCA. */
    std::vector<CcaGroup> groups;

    /** Per-op group index, or -1. */
    std::vector<int> group_of_op;

    /** Ops covered by groups (for the Figure 8 style statistics). */
    int
    coveredOps() const
    {
        int count = 0;
        for (const auto& group : groups)
            count += static_cast<int>(group.members.size());
        return count;
    }
};

/**
 * Run greedy CCA mapping.
 *
 * @param loop      a verified loop.
 * @param analysis  roles from analyzeLoop(); only kCompute ops map.
 * @param spec      the CCA design present in the target LA.
 * @param latencies accelerator latencies (for the recurrence rule).
 * @param meter     optional cost meter charged under kCcaMapping.
 */
CcaMapping mapToCca(const Loop& loop, const LoopAnalysis& analysis,
                    const CcaSpec& spec, const LatencyModel& latencies,
                    CostMeter* meter = nullptr);

/** An empty mapping (used when the LA has no CCA). */
CcaMapping emptyCcaMapping(const Loop& loop);

}  // namespace veal

#endif  // VEAL_CCA_CCA_MAPPER_H_
