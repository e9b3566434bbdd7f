#include "veal/sched/scheduler.h"

#include <algorithm>

#include "veal/sched/mii.h"
#include "veal/support/assert.h"

namespace veal {

namespace {

/**
 * Scratch reused across the II attempts of one scheduleLoop() call: the
 * MRT epoch-resets instead of reallocating, and the placement arrays are
 * assign()ed in place.  Purely a wall-clock measure -- probe and charge
 * sequences are those of per-attempt fresh state.
 */
struct ScheduleWorkspace {
    ScheduleWorkspace(const LaConfig& config, int ii) : mrt(config, ii) {}

    ModuloReservationTable mrt;
    std::vector<bool> placed;
    std::vector<int> time;
    std::vector<int> fu_instance;
};

/** Attempt to place every unit at one candidate II.  */
std::optional<Schedule>
tryIi(const SchedGraph& graph, const LaConfig& config,
      const NodeOrder& order, int ii, CostMeter* meter,
      ScheduleWorkspace& ws)
{
    const int n = graph.numUnits();
    if (!iiFeasible(graph, ii, meter, TranslationPhase::kScheduling))
        return std::nullopt;

    const SchedBounds bounds =
        computeBounds(graph, ii, meter, TranslationPhase::kScheduling);
    ws.mrt.reset(config, ii);
    ModuloReservationTable& mrt = ws.mrt;
    ws.placed.assign(static_cast<std::size_t>(n), false);
    ws.time.assign(static_cast<std::size_t>(n), 0);
    ws.fu_instance.assign(static_cast<std::size_t>(n), -1);
    std::vector<bool>& placed = ws.placed;
    std::vector<int>& time = ws.time;
    std::vector<int>& fu_instance = ws.fu_instance;
    std::uint64_t probes = 0;

    constexpr int kNegInf = -(1 << 28);
    constexpr int kPosInf = 1 << 28;

    for (const int u : order.sequence) {
        const auto& unit = graph.units()[static_cast<std::size_t>(u)];
        int earliest = kNegInf;
        int latest = kPosInf;
        bool has_pred = false;
        bool has_succ = false;
        for (const int e : graph.predEdges()[static_cast<std::size_t>(u)]) {
            const auto& edge = graph.edges()[static_cast<std::size_t>(e)];
            if (edge.from == u ||
                !placed[static_cast<std::size_t>(edge.from)]) {
                continue;
            }
            ++probes;
            earliest = std::max(
                earliest, time[static_cast<std::size_t>(edge.from)] +
                              edge.delay - ii * edge.distance);
            has_pred = true;
        }
        for (const int e : graph.succEdges()[static_cast<std::size_t>(u)]) {
            const auto& edge = graph.edges()[static_cast<std::size_t>(e)];
            if (edge.to == u || !placed[static_cast<std::size_t>(edge.to)])
                continue;
            ++probes;
            latest = std::min(latest,
                              time[static_cast<std::size_t>(edge.to)] -
                                  edge.delay + ii * edge.distance);
            has_succ = true;
        }

        // Swing window: scan forward from the earliest start when preds
        // anchor the unit, backward from the latest start when succs do.
        // Units ordered in a bottom-up sweep are placed as late as their
        // window allows (hugging their successors) -- the "swing".
        const bool late =
            !order.place_late.empty() &&
            order.place_late[static_cast<std::size_t>(u)];
        int start;
        int step;
        int count;
        if (has_pred && has_succ) {
            if (earliest > latest) {
                if (meter != nullptr)
                    meter->charge(TranslationPhase::kScheduling, probes);
                return std::nullopt;
            }
            count = std::min(latest - earliest + 1, ii);
            if (late) {
                start = latest;
                step = -1;
            } else {
                start = earliest;
                step = 1;
            }
        } else if (has_pred) {
            start = earliest;
            step = 1;
            count = ii;
        } else if (has_succ) {
            start = latest;
            step = -1;
            count = ii;
        } else {
            // No placed neighbour: anchor at the ASAP bound.  (Anchoring
            // bottom-up nodes at ALAP instead strands their consumers
            // between a late producer and early consumers.)
            start = bounds.earliest[static_cast<std::size_t>(u)];
            step = 1;
            count = ii;
        }

        bool done = false;
        for (int k = 0; k < count && !done; ++k) {
            const int t = start + step * k;
            ++probes;
            if (unit.fu == FuClass::kNone) {
                // Memory units use stream bandwidth, not an FU slot.
                time[static_cast<std::size_t>(u)] = t;
                done = true;
                break;
            }
            const int instance =
                mrt.reserve(unit.fu, t, unit.init_interval, &probes);
            if (instance >= 0) {
                time[static_cast<std::size_t>(u)] = t;
                fu_instance[static_cast<std::size_t>(u)] = instance;
                done = true;
            }
        }
        if (!done) {
            if (meter != nullptr)
                meter->charge(TranslationPhase::kScheduling, probes);
            return std::nullopt;
        }
        placed[static_cast<std::size_t>(u)] = true;
    }

    // Windows skip self edges and cannot see everything at once; verify
    // the full constraint system before accepting this II.
    for (const auto& edge : graph.edges()) {
        ++probes;
        if (time[static_cast<std::size_t>(edge.to)] <
            time[static_cast<std::size_t>(edge.from)] + edge.delay -
                ii * edge.distance) {
            if (meter != nullptr)
                meter->charge(TranslationPhase::kScheduling, probes);
            return std::nullopt;
        }
    }
    if (meter != nullptr)
        meter->charge(TranslationPhase::kScheduling, probes);

    // Normalise: shifting every time by the same amount rotates the MRT
    // uniformly, so no conflict or dependence can appear.
    Schedule schedule;
    schedule.ii = ii;
    const int min_time =
        n == 0 ? 0 : *std::min_element(time.begin(), time.end());
    for (int u = 0; u < n; ++u)
        time[static_cast<std::size_t>(u)] -= min_time;
    schedule.time = std::move(time);
    schedule.fu_instance = std::move(fu_instance);
    schedule.length = 0;
    int max_stage = 0;
    for (const auto& unit : graph.units()) {
        const auto u = static_cast<std::size_t>(unit.id);
        schedule.length = std::max(schedule.length,
                                   schedule.time[u] + unit.latency);
        max_stage = std::max(max_stage, schedule.time[u] / ii);
    }
    schedule.stage_count = max_stage + 1;
    return schedule;
}

}  // namespace

std::optional<Schedule>
scheduleLoop(const SchedGraph& graph, const LaConfig& config,
             const NodeOrder& order, int min_ii, CostMeter* meter,
             SchedulerStats* stats)
{
    VEAL_ASSERT(static_cast<int>(order.sequence.size()) ==
                graph.numUnits(), "order does not cover the graph");

    int start_ii = std::max(min_ii, 1);
    for (const auto& unit : graph.units()) {
        if (unit.fu != FuClass::kNone)
            start_ii = std::max(start_ii, unit.init_interval);
    }
    if (start_ii > config.max_ii)
        return std::nullopt;

    // A finite retry budget: SMS converges within a few IIs of MII; an
    // unschedulable loop should fail fast rather than walk a 2^20 max II.
    const int limit =
        std::min(config.max_ii, std::min(start_ii + 64, 1 << 12));
    ScheduleWorkspace ws(config, start_ii);
    for (int ii = start_ii; ii <= limit; ++ii) {
        if (stats != nullptr)
            ++stats->attempted_iis;
        if (auto schedule = tryIi(graph, config, order, ii, meter, ws))
            return schedule;
        if (stats != nullptr)
            ++stats->placement_failures;
    }
    return std::nullopt;
}

}  // namespace veal
