#include "veal/vm/translator.h"

#include <algorithm>

#include "veal/sched/mii.h"
#include "veal/sched/scheduler.h"
#include "veal/support/assert.h"

namespace veal {

const char*
toString(TranslationMode mode)
{
    switch (mode) {
      case TranslationMode::kStatic: return "static";
      case TranslationMode::kFullyDynamic: return "fully-dynamic";
      case TranslationMode::kFullyDynamicHeight:
        return "fully-dynamic-height";
      case TranslationMode::kHybridStaticCcaPriority:
        return "static-cca-priority";
    }
    return "unknown";
}

std::optional<TranslationMode>
translationModeByName(const std::string& name)
{
    for (const auto mode :
         {TranslationMode::kStatic, TranslationMode::kFullyDynamic,
          TranslationMode::kFullyDynamicHeight,
          TranslationMode::kHybridStaticCcaPriority}) {
        if (name == toString(mode))
            return mode;
    }
    return std::nullopt;
}

const char*
toString(TranslationReject reject)
{
    switch (reject) {
      case TranslationReject::kNone: return "none";
      case TranslationReject::kAnalysis: return "analysis";
      case TranslationReject::kTooManyLoadStreams:
        return "too-many-load-streams";
      case TranslationReject::kTooManyStoreStreams:
        return "too-many-store-streams";
      case TranslationReject::kNoFuForOpcode: return "no-fu-for-opcode";
      case TranslationReject::kScheduleFailed: return "schedule-failed";
      case TranslationReject::kTooFewRegisters: return "too-few-registers";
      case TranslationReject::kCcaMapping: return "cca-mapping";
      case TranslationReject::kBudgetExhausted: return "budget-exhausted";
    }
    return "unknown";
}

const char*
toString(DegradationRung rung)
{
    switch (rung) {
      case DegradationRung::kNominal: return "nominal";
      case DegradationRung::kRelaxedIi: return "relaxed-ii";
      case DegradationRung::kNoCca: return "no-cca";
      case DegradationRung::kNoFission: return "no-fission";
      case DegradationRung::kCpuPinned: return "cpu-pinned";
    }
    return "unknown";
}

bool
ladderCanRecover(TranslationReject reject)
{
    return reject == TranslationReject::kScheduleFailed ||
           reject == TranslationReject::kTooFewRegisters ||
           reject == TranslationReject::kCcaMapping ||
           reject == TranslationReject::kBudgetExhausted;
}

double
TranslationResult::penaltyCycles() const
{
    return mode == TranslationMode::kStatic ? 0.0
                                            : meter.totalInstructions();
}

namespace {

/** Rebuild the unit order from Figure 9(c)'s per-op rank numbers. */
NodeOrder
orderFromStaticRanks(const SchedGraph& graph,
                     const std::vector<int>& op_priority, CostMeter* meter)
{
    NodeOrder order;
    order.kind = PriorityKind::kSwing;
    const int n = graph.numUnits();
    // The encoded number is rank * 2 + place_late_bit (still one number
    // per op, as in Figure 9(c)).
    std::vector<int> unit_rank(static_cast<std::size_t>(n), 1 << 30);
    order.place_late.assign(static_cast<std::size_t>(n), false);
    for (const auto& unit : graph.units()) {
        for (const OpId op : unit.ops) {
            // A single pass over the loop recovers every priority:
            // paper Figure 9(c)'s "two loads per op" decode cost.
            if (meter != nullptr)
                meter->charge(TranslationPhase::kPriority, 2);
            if (op < static_cast<int>(op_priority.size()) &&
                op_priority[static_cast<std::size_t>(op)] >= 0) {
                const int encoded =
                    op_priority[static_cast<std::size_t>(op)];
                auto& rank =
                    unit_rank[static_cast<std::size_t>(unit.id)];
                if (encoded / 2 < rank / 2 || rank == (1 << 30)) {
                    rank = encoded;
                    order.place_late[static_cast<std::size_t>(unit.id)] =
                        (encoded & 1) != 0;
                }
            }
        }
    }
    order.sequence.resize(static_cast<std::size_t>(n));
    for (int u = 0; u < n; ++u)
        order.sequence[static_cast<std::size_t>(u)] = u;
    std::sort(order.sequence.begin(), order.sequence.end(),
              [&](int a, int b) {
                  if (unit_rank[static_cast<std::size_t>(a)] !=
                      unit_rank[static_cast<std::size_t>(b)]) {
                      return unit_rank[static_cast<std::size_t>(a)] <
                             unit_rank[static_cast<std::size_t>(b)];
                  }
                  return a < b;
              });
    order.rank.assign(static_cast<std::size_t>(n), 0);
    for (int position = 0; position < n; ++position) {
        order.rank[static_cast<std::size_t>(
            order.sequence[static_cast<std::size_t>(position)])] = position;
    }
    return order;
}

/** @p config's CCA spec when @p cca, else none. */
std::optional<CcaSpec>
ccaSpecFor(const LaConfig& config, bool cca)
{
    return cca ? config.cca : std::nullopt;
}

/**
 * Figure 9's annotations derived from @p front, a front end of @p loop
 * built for @p config's CCA setting: its CCA subgraphs, and the ranks of
 * its memoized swing order at the MII of @p config (ResMII depends on the
 * design point, so the ranks are encoded per config).  Unmetered.
 */
StaticAnnotations
deriveAnnotations(const Loop& loop, const LaConfig& config,
                  const TranslationFrontEnd& front)
{
    StaticAnnotations annotations;
    if (!front.analysis->ok())
        return annotations;
    const SchedGraph& graph = *front.graph;
    const int res = resMii(graph, config);
    const int ii = res >= LaConfig::kUnlimited
                       ? front.rec_mii
                       : std::max(res, front.rec_mii);
    const NodeOrder& order = front.priorityOrder(PriorityKind::kSwing, ii);

    std::vector<int> op_priority(static_cast<std::size_t>(loop.size()), -1);
    for (const auto& unit : graph.units()) {
        const int encoded =
            order.rank[static_cast<std::size_t>(unit.id)] * 2 +
            (order.place_late[static_cast<std::size_t>(unit.id)] ? 1 : 0);
        for (const OpId op : unit.ops)
            op_priority[static_cast<std::size_t>(op)] = encoded;
    }
    annotations.cca_mapping = front.mapping;
    annotations.op_priority = std::move(op_priority);
    return annotations;
}

}  // namespace

TranslationResult
translateLoop(const Loop& loop, const LaConfig& config,
              TranslationMode mode, const StaticAnnotations* annotations)
{
    TranslationOptions options;
    options.annotations = annotations;
    return translateLoop(loop, config, mode, options);
}

const NodeOrder&
TranslationFrontEnd::priorityOrder(PriorityKind kind, int ii,
                                   CostMeter* meter) const
{
    const std::lock_guard<std::mutex> lock(priorities_->mutex);
    auto found = priorities_->orders.find({kind, ii});
    if (found == priorities_->orders.end()) {
        CostMeter computing;
        NodeOrder order = kind == PriorityKind::kSwing
                              ? computeSwingOrder(*graph, ii, &computing)
                              : computeHeightOrder(*graph, ii, &computing);
        const std::uint64_t units =
            computing.units(TranslationPhase::kPriority);
        found = priorities_->orders
                    .emplace(std::pair(kind, ii),
                             MemoizedOrder{std::move(order), units})
                    .first;
    }
    if (meter != nullptr)
        meter->charge(TranslationPhase::kPriority, found->second.units);
    return found->second.order;
}

TranslationFrontEnd
buildTranslationFrontEnd(const Loop& loop, const std::optional<CcaSpec>& cca,
                         const LatencyModel& latencies,
                         const TranslationFrontEnd* sibling)
{
    TranslationFrontEnd front;
    front.cca = cca.has_value();
    CostMeter meter;
    if (sibling != nullptr) {
        front.analysis = sibling->analysis;
        front.analysis_units = sibling->analysis_units;
    } else {
        front.analysis =
            std::make_shared<const LoopAnalysis>(analyzeLoop(loop, &meter));
        front.analysis_units = meter.units(TranslationPhase::kLoopAnalysis);
    }
    if (!front.analysis->ok())
        return front;

    front.mapping = cca.has_value()
                        ? mapToCca(loop, *front.analysis, *cca, latencies,
                                   &meter)
                        : emptyCcaMapping(loop);
    front.mapping_units = meter.units(TranslationPhase::kCcaMapping);

    // The graph reads only the CCA spec and the latency model.
    LaConfig target;
    target.num_cca_units = cca.has_value() ? 1 : 0;
    target.cca = cca;
    target.latencies = latencies;
    front.graph = std::make_shared<const SchedGraph>(loop, *front.analysis,
                                                     front.mapping, target);
    front.rec_mii = recMii(*front.graph, &meter);
    front.rec_mii_units = meter.units(TranslationPhase::kMiiComputation);
    return front;
}

TranslationResult
translateLoop(const Loop& loop, const LaConfig& config,
              TranslationMode mode, const TranslationOptions& options)
{
    const bool cca = config.hasCca() && !options.disable_cca;
    const bool hybrid = mode == TranslationMode::kHybridStaticCcaPriority;
    FaultInjector* faults = options.faults;

    // Every translation runs on a front end: the attached one, or one
    // built here for this translation's CCA setting.
    std::optional<TranslationFrontEnd> own;
    const TranslationFrontEnd* front = options.front_end;
    if (front == nullptr) {
        own = buildTranslationFrontEnd(loop, ccaSpecFor(config, cca),
                                       config.latencies);
        front = &*own;
    }
    VEAL_ASSERT(front->cca == cca,
                "front end built for the other CCA setting: ", loop.name());

    // A hybrid caller that passed no annotations gets the static
    // compiler's.  The binary's annotations are built for
    // config.hasCca(), so a CCA-off translation on a CCA machine derives
    // them from a CCA-on front end that shares this one's analysis.
    StaticAnnotations derived;
    const StaticAnnotations* annotations = options.annotations;
    if (hybrid && annotations == nullptr) {
        if (cca == config.hasCca()) {
            derived = deriveAnnotations(loop, config, *front);
        } else {
            derived = deriveAnnotations(
                loop, config,
                buildTranslationFrontEnd(loop, config.cca, config.latencies,
                                         front));
        }
        annotations = &derived;
    }
    TranslationResult result;
    result.mode = mode;
    CostMeter& meter = result.meter;

    auto reject = [&](TranslationReject why, std::string detail) {
        result.reject = why;
        result.reject_detail = std::move(detail);
        return std::move(result);
    };

    // The pipeline fault sites (CCA mapping, scheduler placement,
    // register allocation) are probed where their kernel would run; a
    // fired probe stands in for that kernel's failure.
    auto fires = [&](FaultSite site) {
        return faults != nullptr && faults->probe(site);
    };

    // Deterministic cycle-budget watchdog: between phases, an armed
    // budget compares the metered work so far against its (rung-
    // relieved) allowance, so exhaustion strikes at a reproducible
    // phase boundary rather than a wall-clock instant.
    auto over_budget = [&] {
        return faults != nullptr &&
               faults->budgetExceeded(meter.totalInstructions(),
                                      options.budget_relief);
    };
    const auto budget_detail = [&] {
        return "after " +
               std::to_string(static_cast<std::int64_t>(
                   meter.totalInstructions())) +
               " metered instructions";
    };

    // The front end's phases are replayed where they would have run:
    // each charges the units it recorded, so the meter (and every
    // budget check) reads exactly what a fresh translation's would.

    // --- Loop analysis (always dynamic: loop detection is cheap).
    result.analysis = *front->analysis;
    meter.charge(TranslationPhase::kLoopAnalysis, front->analysis_units);
    if (!result.analysis.ok()) {
        return reject(TranslationReject::kAnalysis,
                      std::string(toString(result.analysis.reject)) + ": " +
                          result.analysis.reject_detail);
    }
    if (over_budget())
        return reject(TranslationReject::kBudgetExhausted,
                      budget_detail());

    // --- Feature checks against this LA.
    if (static_cast<int>(result.analysis.load_streams.size()) >
        config.num_load_streams) {
        return reject(TranslationReject::kTooManyLoadStreams,
                      std::to_string(result.analysis.load_streams.size()) +
                          " > " + std::to_string(config.num_load_streams));
    }
    if (static_cast<int>(result.analysis.store_streams.size()) >
        config.num_store_streams) {
        return reject(TranslationReject::kTooManyStoreStreams,
                      std::to_string(result.analysis.store_streams.size()) +
                          " > " + std::to_string(config.num_store_streams));
    }

    // --- CCA mapping: static (Figure 9(b)) or dynamic greedy.  With no
    // CCA (or on the no-CCA degradation rung) the front end's mapping
    // is empty: statically abstracted subgraphs simply execute as
    // individual ops (the encoding is plain branch-and-link code).  A
    // static mapping is the front end's (the static compiler ran the
    // same mapper); only its charge differs, one decode pass that
    // recognises the Brl-CCA calls.
    const bool decoded = cca && hybrid && annotations->cca_mapping.has_value();
    if (cca && !decoded && fires(FaultSite::kCcaMapping)) {
        // An aborted greedy mapper: no groups, no work charged.  The
        // VM's degradation ladder retries with CCA subgraphs disabled.
        result.mapping = emptyCcaMapping(loop);
        return reject(TranslationReject::kCcaMapping,
                      "injected cca-mapping fault");
    }
    result.mapping = front->mapping;
    meter.charge(TranslationPhase::kCcaMapping,
                 decoded ? static_cast<std::uint64_t>(loop.size())
                         : front->mapping_units);
    if (over_budget())
        return reject(TranslationReject::kBudgetExhausted,
                      budget_detail());

    // --- The scheduling problem and MII.
    result.graph = front->graph;
    const SchedGraph& graph = *result.graph;

    const int res_mii = resMii(graph, config, &meter);
    if (res_mii >= LaConfig::kUnlimited) {
        return reject(TranslationReject::kNoFuForOpcode, loop.name());
    }
    meter.charge(TranslationPhase::kMiiComputation, front->rec_mii_units);
    result.mii = std::max(res_mii, front->rec_mii);
    if (over_budget())
        return reject(TranslationReject::kBudgetExhausted,
                      budget_detail());

    // --- Priority: static ranks, cheap height, or full swing.  The
    // front end memoizes height and swing orders per II; a memoized
    // order charges here the units computing it charged.
    NodeOrder ranked;
    const NodeOrder* order = &ranked;
    if (hybrid && annotations->op_priority.has_value()) {
        ranked = orderFromStaticRanks(graph, *annotations->op_priority,
                                      &meter);
    } else {
        order = &front->priorityOrder(
            mode == TranslationMode::kFullyDynamicHeight
                ? PriorityKind::kHeight
                : PriorityKind::kSwing,
            result.mii, &meter);
    }
    if (over_budget())
        return reject(TranslationReject::kBudgetExhausted,
                      budget_detail());

    // --- List scheduling against the modulo reservation table, with a
    // register-assignment post-pass.  When the operand mapping does not
    // fit the register files, retry at a larger II: a less congested
    // reservation table lets consumers sit next to their producers, which
    // shortens lifetimes (and is cheap for the translator to attempt).
    bool injected_placement = false;
    auto schedule_with_registers = [&](const NodeOrder& node_order,
                                       bool* placement_failed) {
        // ii_slack is the relaxed-II degradation rung: scheduling starts
        // above the MII, decongesting the reservation table.
        int floor_ii = std::min(result.mii + options.ii_slack,
                                config.max_ii);
        *placement_failed = false;
        for (int attempt = 0; attempt < 3; ++attempt) {
            // A fired placement probe fails the whole II search.
            std::optional<Schedule> schedule;
            if (fires(FaultSite::kSchedulerPlacement)) {
                ++result.sched_stats.placement_failures;
                injected_placement = true;
            } else {
                schedule = scheduleLoop(graph, config, node_order, floor_ii,
                                        &meter, &result.sched_stats);
            }
            if (!schedule.has_value()) {
                *placement_failed = true;
                return false;
            }
            result.schedule = std::move(*schedule);
            // A fired register probe fails like full register files.
            if (fires(FaultSite::kRegisterAllocation)) {
                result.registers = RegisterAssignment{};
                result.registers.fail_reason =
                    "injected register-allocation fault";
            } else {
                result.registers = assignRegisters(loop, result.analysis,
                                                   graph, result.schedule,
                                                   config, &meter);
            }
            if (result.registers.ok)
                return true;
            ++result.register_retries;
            floor_ii = result.schedule.ii + 1;
            if (floor_ii > config.max_ii)
                return false;
        }
        return false;
    };

    bool placement_failed = false;
    bool scheduled = schedule_with_registers(*order, &placement_failed);
    if (injected_placement) {
        // An injected placement fault corrupted this whole translation
        // attempt; re-ordering cannot save it.  Reject so the VM's
        // degradation ladder (not the height fallback) retries.
        return reject(TranslationReject::kScheduleFailed,
                      "injected scheduler-placement fault");
    }
    if (!scheduled && placement_failed &&
        order->kind != PriorityKind::kHeight) {
        // The swing order occasionally wedges a node between neighbours
        // placed in opposite sweep directions at every II.  Fall back to
        // the forward-only height order before giving up (the extra
        // priority pass is charged like any other translation work).
        result.height_fallback = true;
        scheduled = schedule_with_registers(
            front->priorityOrder(PriorityKind::kHeight, result.mii, &meter),
            &placement_failed);
    }
    if (!scheduled) {
        if (placement_failed) {
            return reject(TranslationReject::kScheduleFailed,
                          "MII " + std::to_string(result.mii) +
                              ", max II " + std::to_string(config.max_ii));
        }
        return reject(TranslationReject::kTooFewRegisters,
                      result.registers.fail_reason);
    }
    if (over_budget())
        return reject(TranslationReject::kBudgetExhausted,
                      budget_detail());

    result.ok = true;
    return result;
}

LadderOutcome
climbTranslationLadder(const Loop& loop, const LaConfig& config,
                       TranslationMode mode,
                       const StaticAnnotations* annotations,
                       FaultInjector* faults)
{
    // Relaxations accumulate monotonically down the rungs: the no-CCA
    // attempt keeps the II slack, and every rung doubles the armed
    // translation budget (budget_relief).
    struct Rung {
        DegradationRung rung;
        int ii_slack;
        bool disable_cca;
        int budget_relief;
    };
    constexpr Rung kRungs[] = {
        {DegradationRung::kNominal, 0, false, 0},
        {DegradationRung::kRelaxedIi, 2, false, 1},
        {DegradationRung::kNoCca, 2, true, 2},
    };

    // One front end (for the machine's CCA setting) serves every rung
    // of that setting.
    const TranslationFrontEnd front = buildTranslationFrontEnd(
        loop, ccaSpecFor(config, config.hasCca()), config.latencies);
    StaticAnnotations derived;
    if (mode == TranslationMode::kHybridStaticCcaPriority &&
        annotations == nullptr) {
        derived = deriveAnnotations(loop, config, front);
        annotations = &derived;
    }
    LadderOutcome outcome;
    for (const auto& rung : kRungs) {
        // A CCA machine's no-CCA rung runs on a CCA-off front end that
        // shares the climb's analysis, built only once a climb gets here.
        std::optional<TranslationFrontEnd> off;
        if (config.hasCca() && rung.disable_cca) {
            off = buildTranslationFrontEnd(loop, std::nullopt,
                                           config.latencies, &front);
        }
        TranslationOptions options;
        options.annotations = annotations;
        options.front_end = off.has_value() ? &*off : &front;
        options.faults = faults;
        options.ii_slack = rung.ii_slack;
        options.disable_cca = rung.disable_cca;
        options.budget_relief = rung.budget_relief;
        TranslationResult attempt =
            translateLoop(loop, config, mode, options);
        if (attempt.ok) {
            outcome.translation = std::move(attempt);
            outcome.rung = rung.rung;
            return outcome;
        }
        // A nominal *clean* reject is not a fault: no relaxation below
        // changes that verdict.
        if (!ladderCanRecover(attempt.reject)) {
            outcome.translation = std::move(attempt);
            outcome.rung = DegradationRung::kCpuPinned;
            return outcome;
        }
        outcome.failed_attempts.push_back(std::move(attempt));
    }
    // Every rung failed: the last attempt becomes the verdict (moved
    // out of failed_attempts so its cycles are charged exactly once).
    outcome.translation = std::move(outcome.failed_attempts.back());
    outcome.failed_attempts.pop_back();
    outcome.rung = DegradationRung::kCpuPinned;
    return outcome;
}

StaticAnnotations
precompileAnnotations(const Loop& loop, const LaConfig& config)
{
    return deriveAnnotations(
        loop, config,
        buildTranslationFrontEnd(loop, ccaSpecFor(config, config.hasCca()),
                                 config.latencies));
}

}  // namespace veal
