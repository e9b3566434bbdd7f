#include "veal/cca/cca_mapper.h"

#include <algorithm>
#include <set>

#include "veal/ir/scc.h"
#include "veal/support/assert.h"

namespace veal {

namespace {

/**
 * Working state for growing one subgraph.  All constraint checks operate
 * on the tentative member set.
 */
class GroupGrower {
  public:
    GroupGrower(const Loop& loop, const LoopAnalysis& analysis,
                const CcaSpec& spec, const LatencyModel& latencies,
                const std::vector<int>& scc_of, const std::vector<int>&
                scc_size, const std::vector<int>& group_of, CostMeter* meter)
        : loop_(loop), analysis_(analysis), spec_(spec),
          latencies_(latencies), scc_of_(scc_of), scc_size_(scc_size),
          group_of_(group_of), meter_(meter), uses_(loop.useLists())
    {}

    /** Attempt to grow a maximal legal group from @p seed. */
    std::vector<OpId>
    grow(OpId seed)
    {
        members_ = {seed};
        bool grew = true;
        while (grew) {
            grew = false;
            // Collect the distance-0 dataflow neighbourhood of the group.
            std::set<OpId> frontier;
            for (const OpId member : members_) {
                const Operation& op = loop_.op(member);
                for (const auto& input : op.inputs) {
                    if (input.distance == 0)
                        frontier.insert(input.producer);
                }
                for (const auto& use :
                     uses_[static_cast<std::size_t>(member)]) {
                    if (use.distance == 0)
                        frontier.insert(use.producer);
                }
            }
            for (const OpId candidate : frontier) {
                if (charge(1); !eligible(candidate))
                    continue;
                members_.push_back(candidate);
                std::sort(members_.begin(), members_.end());
                if (legal()) {
                    grew = true;
                } else {
                    members_.erase(std::find(members_.begin(),
                                             members_.end(), candidate));
                }
            }
        }
        repairRecurrences(seed);
        // Repair may have removed interior members, which can break
        // convexity or the port counts; shrink until legal again.
        while (members_.size() >= 2 && !legal()) {
            const OpId victim =
                members_.back() == seed
                    ? members_.front()
                    : members_.back();
            if (victim == seed) {
                members_.clear();
                break;
            }
            members_.erase(
                std::find(members_.begin(), members_.end(), victim));
        }
        return members_;
    }

  private:
    void
    charge(std::uint64_t units)
    {
        if (meter_ != nullptr)
            meter_->charge(TranslationPhase::kCcaMapping, units);
    }

    bool
    inGroup(OpId id) const
    {
        return std::binary_search(members_.begin(), members_.end(), id);
    }

    /** Basic per-op eligibility, before group-level constraints. */
    bool
    eligible(OpId id) const
    {
        if (inGroup(id))
            return false;
        if (group_of_[static_cast<std::size_t>(id)] != -1)
            return false;  // Already claimed by an earlier group.
        const Operation& op = loop_.op(id);
        if (analysis_.roles[static_cast<std::size_t>(id)] !=
            OpRole::kCompute) {
            return false;
        }
        return spec_.supports(op.opcode);
    }

    /**
     * Group-level legality: port counts, row structure, convexity.
     * Recurrence legality is repaired after growth completes (a partially
     * grown chain may be temporarily illegal).
     */
    bool
    legal()
    {
        charge(static_cast<std::uint64_t>(members_.size()));
        if (static_cast<int>(members_.size()) > spec_.max_ops)
            return false;
        return portsOk() && rowsOk() && convex();
    }

    bool
    portsOk() const
    {
        // Inputs: distinct external (producer, distance) values consumed.
        std::set<std::pair<OpId, int>> external_inputs;
        int outputs = 0;
        for (const OpId member : members_) {
            const Operation& op = loop_.op(member);
            for (const auto& input : op.inputs) {
                if (input.distance != 0 || !inGroup(input.producer))
                    external_inputs.insert({input.producer, input.distance});
            }
            bool escapes = op.is_live_out;
            for (const auto& use : uses_[static_cast<std::size_t>(member)]) {
                if (use.distance != 0 || !inGroup(use.producer)) {
                    escapes = true;
                    break;
                }
            }
            if (escapes)
                ++outputs;
        }
        return static_cast<int>(external_inputs.size()) <=
                   spec_.num_inputs &&
               outputs <= spec_.num_outputs;
    }

    /**
     * Row assignment must fit the CCA's structure.  An op needs a row
     * strictly below its in-group producers' rows, but values pass
     * through unused rows on the inter-row interconnect, so rows can be
     * skipped (e.g. two dependent adds use rows 1 and 3, bypassing the
     * logic-only row 2).  Greedy minimal-row assignment in dependence
     * order; fails when capability or width runs out.
     */
    bool
    rowsOk() const
    {
        auto index_of = [&](OpId id) {
            return static_cast<std::size_t>(
                std::lower_bound(members_.begin(), members_.end(), id) -
                members_.begin());
        };
        std::vector<int> row(members_.size(), -1);
        std::vector<int> width(static_cast<std::size_t>(spec_.num_rows),
                               0);
        // Members are sorted by id; ids respect distance-0 topology only
        // loosely, so iterate to a fixed point (groups are tiny).
        bool progress = true;
        std::size_t assigned = 0;
        while (progress && assigned < members_.size()) {
            progress = false;
            for (const OpId member : members_) {
                if (row[index_of(member)] != -1)
                    continue;
                const Operation& op = loop_.op(member);
                int min_row = 0;
                bool ready = true;
                for (const auto& input : op.inputs) {
                    if (input.distance != 0 || !inGroup(input.producer))
                        continue;
                    const int producer_row =
                        row[index_of(input.producer)];
                    if (producer_row == -1) {
                        ready = false;
                        break;
                    }
                    min_row = std::max(min_row, producer_row + 1);
                }
                if (!ready)
                    continue;
                const CcaOpClass cls = opcodeInfo(op.opcode).cca_class;
                int chosen = -1;
                for (int r = min_row; r < spec_.num_rows; ++r) {
                    if (spec_.rowSupports(r, cls) &&
                        width[static_cast<std::size_t>(r)] <
                            spec_.row_width[static_cast<std::size_t>(r)]) {
                        chosen = r;
                        break;
                    }
                }
                if (chosen == -1)
                    return false;
                row[index_of(member)] = chosen;
                ++width[static_cast<std::size_t>(chosen)];
                ++assigned;
                progress = true;
            }
        }
        return assigned == members_.size();
    }

    /**
     * Atomicity feasibility: collapsing the members into one node (and
     * every previously-formed group into its own node) must leave the
     * distance-0 dependence graph acyclic.  This subsumes convexity (a
     * path that leaves and re-enters the group is a cycle through it) and
     * also rejects mutually-feeding group pairs, which would deadlock two
     * atomic CCA issues.
     */
    bool
    convex() const
    {
        // Cluster id: current group = -2; existing groups = -(3 + index);
        // everything else = its own op id.
        auto cluster_of = [&](OpId id) {
            if (inGroup(id))
                return -2;
            const int group = group_of_[static_cast<std::size_t>(id)];
            return group >= 0 ? -(3 + group) : id;
        };

        // DFS from the current cluster's successors; reaching the current
        // cluster again is a cycle.  Other clusters were acyclic before
        // this group grew, so only cycles through -2 can appear.
        std::set<int> visited;
        std::vector<int> worklist;
        for (const OpId member : members_) {
            for (const auto& use :
                 uses_[static_cast<std::size_t>(member)]) {
                if (use.distance == 0 && !inGroup(use.producer))
                    worklist.push_back(cluster_of(use.producer));
            }
        }
        while (!worklist.empty()) {
            const int cluster = worklist.back();
            worklist.pop_back();
            if (cluster == -2)
                return false;  // Re-entered the group: cycle.
            if (!visited.insert(cluster).second)
                continue;
            // Expand: successors of every op in this cluster.
            for (const auto& op : loop_.operations()) {
                if (cluster_of(op.id) != cluster)
                    continue;
                for (const auto& use :
                     uses_[static_cast<std::size_t>(op.id)]) {
                    if (use.distance == 0)
                        worklist.push_back(cluster_of(use.producer));
                }
            }
        }
        return true;
    }

    /**
     * Drop members whose inclusion would lengthen a recurrence: for every
     * dependence cycle (SCC) the group touches, the members in that SCC
     * must (a) be connected through intra-group edges and (b) have a total
     * latency of at least the CCA latency.  Otherwise collapsing replaces
     * a shorter path with the CCA's full latency (paper's 7/10 example).
     */
    void
    repairRecurrences(OpId seed)
    {
        bool removed = true;
        while (removed && !members_.empty()) {
            removed = false;
            charge(static_cast<std::uint64_t>(members_.size()));
            std::set<int> sccs;
            for (const OpId member : members_) {
                const int scc = scc_of_[static_cast<std::size_t>(member)];
                if (scc_size_[static_cast<std::size_t>(scc)] > 1)
                    sccs.insert(scc);
            }
            for (const int scc : sccs) {
                std::vector<OpId> in_scc;
                int total_latency = 0;
                for (const OpId member : members_) {
                    if (scc_of_[static_cast<std::size_t>(member)] == scc) {
                        in_scc.push_back(member);
                        total_latency +=
                            latencies_.latency(loop_.op(member).opcode);
                    }
                }
                if (total_latency >= spec_.latency &&
                    connectedWithin(in_scc)) {
                    continue;
                }
                // Remove the SCC member least connected to the group.
                const OpId victim = in_scc.back();
                members_.erase(
                    std::find(members_.begin(), members_.end(), victim));
                removed = true;
                if (victim == seed) {
                    members_.clear();
                    return;
                }
                break;
            }
        }
    }

    /** Are @p subset members one component via intra-group edges? */
    bool
    connectedWithin(const std::vector<OpId>& subset) const
    {
        if (subset.size() <= 1)
            return true;
        std::set<OpId> seen{subset.front()};
        std::vector<OpId> worklist{subset.front()};
        auto in_subset = [&](OpId id) {
            return std::find(subset.begin(), subset.end(), id) !=
                   subset.end();
        };
        while (!worklist.empty()) {
            const OpId id = worklist.back();
            worklist.pop_back();
            const Operation& op = loop_.op(id);
            for (const auto& input : op.inputs) {
                if (input.distance == 0 && in_subset(input.producer) &&
                    seen.insert(input.producer).second) {
                    worklist.push_back(input.producer);
                }
            }
            for (const auto& use : uses_[static_cast<std::size_t>(id)]) {
                if (use.distance == 0 && in_subset(use.producer) &&
                    seen.insert(use.producer).second) {
                    worklist.push_back(use.producer);
                }
            }
        }
        return seen.size() == subset.size();
    }

    const Loop& loop_;
    const LoopAnalysis& analysis_;
    const CcaSpec& spec_;
    const LatencyModel& latencies_;
    const std::vector<int>& scc_of_;
    const std::vector<int>& scc_size_;
    const std::vector<int>& group_of_;
    CostMeter* meter_;
    std::vector<std::vector<Operand>> uses_;
    std::vector<OpId> members_;
};

}  // namespace

CcaMapping
emptyCcaMapping(const Loop& loop)
{
    CcaMapping mapping;
    mapping.group_of_op.assign(static_cast<std::size_t>(loop.size()), -1);
    return mapping;
}

CcaMapping
mapToCca(const Loop& loop, const LoopAnalysis& analysis, const CcaSpec& spec,
         const LatencyModel& latencies, CostMeter* meter)
{
    CcaMapping mapping = emptyCcaMapping(loop);
    const int n = loop.size();

    // Recurrence structure for the "don't lengthen a cycle" rule.
    std::vector<std::pair<int, int>> edges;
    for (const auto& edge : loop.allEdges())
        edges.emplace_back(edge.from, edge.to);
    const auto components = stronglyConnectedComponents(n, edges);
    std::vector<int> scc_of(static_cast<std::size_t>(n), 0);
    std::vector<int> scc_size(components.size(), 0);
    for (std::size_t c = 0; c < components.size(); ++c) {
        scc_size[c] = static_cast<int>(components[c].size());
        for (const int member : components[c])
            scc_of[static_cast<std::size_t>(member)] = static_cast<int>(c);
    }
    // Self loops (distance >= 1) make a singleton SCC a real recurrence.
    for (const auto& edge : loop.allEdges()) {
        if (edge.from == edge.to) {
            const int scc = scc_of[static_cast<std::size_t>(edge.from)];
            scc_size[static_cast<std::size_t>(scc)] =
                std::max(scc_size[static_cast<std::size_t>(scc)], 2);
        }
    }

    GroupGrower grower(loop, analysis, spec, latencies, scc_of, scc_size,
                       mapping.group_of_op, meter);

    // Paper: "seed ops are examined in numerical order ... the algorithm
    // still selects each operation as a seed at most once".
    for (OpId seed = 0; seed < n; ++seed) {
        if (meter != nullptr)
            meter->charge(TranslationPhase::kCcaMapping, 1);
        if (mapping.group_of_op[static_cast<std::size_t>(seed)] != -1)
            continue;
        if (analysis.roles[static_cast<std::size_t>(seed)] !=
            OpRole::kCompute) {
            continue;
        }
        if (!spec.supports(loop.op(seed).opcode))
            continue;
        auto members = grower.grow(seed);
        if (members.size() < 2)
            continue;  // A singleton gains nothing over an integer unit.
        const int group_index = static_cast<int>(mapping.groups.size());
        for (const OpId member : members)
            mapping.group_of_op[static_cast<std::size_t>(member)] =
                group_index;
        mapping.groups.push_back(CcaGroup{std::move(members)});
    }
    return mapping;
}

}  // namespace veal
