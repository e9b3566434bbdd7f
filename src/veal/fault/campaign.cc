#include "veal/fault/campaign.h"

#include <algorithm>
#include <iomanip>
#include <numeric>
#include <sstream>
#include <utility>

#include "veal/fault/fault_injector.h"
#include "veal/fuzz/oracle.h"
#include "veal/sim/batch.h"
#include "veal/sim/interpreter.h"
#include "veal/sim/la_executor.h"
#include "veal/support/assert.h"
#include "veal/support/logging.h"
#include "veal/support/metrics/metrics.h"
#include "veal/support/thread_pool.h"
#include "veal/vm/vm.h"
#include "veal/workloads/suite.h"

namespace veal {

FaultPlan
makeCampaignPlan(std::uint64_t campaign_seed, int plan_index)
{
    return FaultPlan::sample(campaign_seed * 0x9e3779b97f4a7c15ull +
                             static_cast<std::uint64_t>(plan_index) *
                                 0xbf58476d1ce4e5b9ull +
                             0xfa11ca3ull);
}

namespace {

Application
clampInvocations(Application app, std::int64_t cap)
{
    if (cap > 0) {
        for (auto& site : app.sites)
            site.invocations = std::min(site.invocations, cap);
    }
    return app;
}

/**
 * True when the functional LA executor can model @p loop: every stream
 * base symbol must be a live-in or an induction variable (anything else
 * panics in executeOnAccelerator by design).  Pieces outside this subset
 * are *counted* as skipped in the report -- never silently dropped.
 */
bool
functionallyExecutable(const Loop& loop, const LoopAnalysis& analysis)
{
    const auto symbols_ok =
        [&](const std::vector<StreamDescriptor>& streams) {
            for (const auto& stream : streams) {
                for (const auto& term : stream.base_terms) {
                    const Operation& op = loop.op(term.first);
                    if (op.opcode != Opcode::kLiveIn && !op.is_induction)
                        return false;
                }
            }
            return true;
        };
    return symbols_ok(analysis.load_streams) &&
           symbols_ok(analysis.store_streams);
}

FaultCaseResult
runOneCase(int plan_index, const FaultCampaignOptions& options,
           const std::vector<std::pair<std::string, Application>>& apps,
           const VirtualMachine& vm, BatchSimulator& simulator)
{
    FaultCaseResult result;
    result.plan_index = plan_index;
    const FaultPlan plan = makeCampaignPlan(options.seed, plan_index);
    result.plan_seed = plan.seed;
    result.plan_text = plan.describe();
    const auto& [app_name, app] =
        apps[static_cast<std::size_t>(plan_index) % apps.size()];
    result.app_name = app_name;

    FaultInjector injector(plan);
    FaultRunReport report;
    ScopedPanicGuard guard;
    try {
        (void)vm.run(app, nullptr, &injector, &report);
    } catch (const PanicError& panic) {
        result.diverged = true;
        result.divergence_detail =
            std::string("hardened run panic: ") + panic.what();
        return result;
    }

    for (int s = 0; s < kNumFaultSites; ++s) {
        result.fired[static_cast<std::size_t>(s)] =
            injector.fired(static_cast<FaultSite>(s));
    }
    result.invalidations = report.checksum_invalidations;
    result.retranslations = report.retranslations;
    result.quarantines = report.quarantines;
    result.la_dispatches = report.la_dispatches;
    result.cpu_dispatches = report.cpu_dispatches;

    DegradationRung deepest = DegradationRung::kNominal;
    std::int64_t register_retries = 0;
    for (const auto& site : report.sites) {
        deepest = std::max(deepest, site.rung);
        for (const auto& piece : site.pieces)
            register_retries += piece.translation.register_retries;
    }
    result.deepest_rung = toString(deepest);

    // Invariant 1: architectural fidelity.  Every translation the
    // hardened VM actually dispatches must execute bit-identically to
    // the reference interpreter, whatever the plan injected.
    //
    // All reference interpretations run upfront through one
    // data-parallel interpretBatch() call (the interpreter is pure, so
    // interpreting pieces past a divergence is unobservable); the diff
    // walk below then revisits the pieces in dispatch order, keeping the
    // first-divergence early return and the skip/check counting exactly
    // as a piece-at-a-time walk would produce them.
    struct Differential {
        const Loop* loop = nullptr;
        ExecutionInput input;
        ExecutionResult reference;
        bool batched = false;
    };
    std::vector<Differential> differentials;
    for (const auto& site : report.sites) {
        for (const auto& piece : site.pieces) {
            if (piece.loop == nullptr || !piece.translation.ok ||
                !functionallyExecutable(*piece.loop,
                                        piece.translation.analysis))
                continue;
            Differential d;
            d.loop = piece.loop;
            d.input = makeFuzzInput(*piece.loop, plan.seed,
                                    options.iterations);
            differentials.push_back(std::move(d));
        }
    }
    std::vector<InterpretRequest> lanes;
    std::vector<std::size_t> lane_owner;
    for (std::size_t i = 0; i < differentials.size(); ++i) {
        if (interpretable(*differentials[i].loop)) {
            lanes.push_back(
                {differentials[i].loop, &differentials[i].input});
            lane_owner.push_back(i);
        }
    }
    auto interpreted = simulator.interpretBatch(lanes);
    for (std::size_t k = 0; k < lane_owner.size(); ++k) {
        differentials[lane_owner[k]].reference =
            std::move(interpreted[k]);
        differentials[lane_owner[k]].batched = true;
    }

    std::size_t cursor = 0;  // Same enumeration order as the fill walk.
    for (const auto& site : report.sites) {
        for (const auto& piece : site.pieces) {
            if (piece.loop == nullptr || !piece.translation.ok)
                continue;
            if (!functionallyExecutable(*piece.loop,
                                        piece.translation.analysis)) {
                ++result.differential_skips;
                continue;
            }
            ++result.differential_checks;
            Differential& d = differentials[cursor++];
            try {
                if (!d.batched)
                    d.reference = interpretLoop(*piece.loop, d.input);
                const ExecutionResult accelerated = executeOnAccelerator(
                    *piece.loop, piece.translation, d.input);
                if (const auto diff =
                        firstDifference(d.reference, accelerated)) {
                    result.diverged = true;
                    result.divergence_detail =
                        piece.loop->name() + ": " + *diff;
                    return result;
                }
            } catch (const PanicError& panic) {
                result.diverged = true;
                result.divergence_detail = piece.loop->name() +
                                           ": execution panic: " +
                                           panic.what();
                return result;
            }
        }
    }

    // Invariant 2: taxonomy closure.  A cache-corruption fire is exactly
    // one checksum invalidation; any pipeline fire must show up as a
    // degradation rung (or, for register-allocation faults only, as the
    // translator's in-place larger-II retry).
    const std::int64_t corruption_fired = result.fired[static_cast<
        std::size_t>(FaultSite::kCacheCorruption)];
    if (corruption_fired != result.invalidations) {
        result.taxonomy_ok = false;
        std::ostringstream os;
        os << "cache-corruption fired " << corruption_fired
           << " times but caused " << result.invalidations
           << " invalidations";
        result.taxonomy_detail = os.str();
        return result;
    }
    const std::int64_t escalating_fired =
        result.fired[static_cast<std::size_t>(
            FaultSite::kSchedulerPlacement)] +
        result.fired[static_cast<std::size_t>(FaultSite::kCcaMapping)] +
        result.fired[static_cast<std::size_t>(
            FaultSite::kTranslationBudget)];
    const std::int64_t regalloc_fired = result.fired[static_cast<
        std::size_t>(FaultSite::kRegisterAllocation)];
    const bool degraded = deepest != DegradationRung::kNominal;
    if (escalating_fired > 0 && !degraded) {
        result.taxonomy_ok = false;
        result.taxonomy_detail =
            "pipeline fault fired but every site stayed nominal";
    } else if (regalloc_fired > 0 && !degraded && register_retries == 0) {
        result.taxonomy_ok = false;
        result.taxonomy_detail = "register-allocation fault fired but "
                                 "neither a rung nor a retry absorbed it";
    }
    return result;
}

}  // namespace

std::string
FaultCampaignSummary::render() const
{
    std::ostringstream os;
    os << "veal-faultsim: " << total_plans << " plans, seed " << seed
       << "\n";
    os << "  deepest rung reached:\n";
    for (const auto& [name, count] : rung_counts) {
        os << "    " << std::left << std::setw(12) << name << std::right
           << std::setw(10) << count << "\n";
    }
    os << "  faults fired:\n";
    for (int s = 0; s < kNumFaultSites; ++s) {
        os << "    " << std::left << std::setw(20)
           << toString(static_cast<FaultSite>(s)) << std::right
           << std::setw(10) << fired[static_cast<std::size_t>(s)] << "\n";
    }
    os << "  recovery: invalidations=" << invalidations
       << " retranslations=" << retranslations
       << " quarantines=" << quarantines << "\n";
    os << "  dispatch: la=" << la_dispatches << " cpu=" << cpu_dispatches
       << "\n";
    os << "  differential: checked=" << differential_checks
       << " skipped=" << differential_skips
       << " (outside the functional executor's stream subset)\n";
    os << "  divergences: " << divergences.size() << "\n";
    for (const auto& failure : divergences) {
        os << "    plan " << failure.plan_index << " (" << failure.app_name
           << "): " << failure.divergence_detail << "\n";
        os << "      " << failure.plan_text << "\n";
    }
    os << "  taxonomy violations: " << taxonomy_violations.size() << "\n";
    for (const auto& failure : taxonomy_violations) {
        os << "    plan " << failure.plan_index << " (" << failure.app_name
           << "): " << failure.taxonomy_detail << "\n";
        os << "      " << failure.plan_text << "\n";
    }
    os << "  verdict: "
       << (clean() ? "CLEAN" : "FAULT-RECOVERY BUGS DETECTED") << "\n";
    return os.str();
}

FaultCampaignSummary
runFaultCampaign(const FaultCampaignOptions& options,
                 metrics::Registry* registry)
{
    VEAL_ASSERT(options.plans >= 0, "negative plan count");

    std::vector<std::pair<std::string, Application>> apps;
    if (options.apps.empty()) {
        for (auto& benchmark : mediaFpSuite()) {
            apps.emplace_back(benchmark.name,
                              clampInvocations(
                                  std::move(benchmark.transformed),
                                  options.max_invocations));
        }
    } else {
        for (const auto& name : options.apps) {
            Benchmark benchmark = findBenchmark(name);
            apps.emplace_back(benchmark.name,
                              clampInvocations(
                                  std::move(benchmark.transformed),
                                  options.max_invocations));
        }
    }
    VEAL_ASSERT(!apps.empty(), "no applications to campaign over");

    VmOptions vm_options;
    vm_options.mode = options.mode;
    vm_options.code_cache_entries = options.code_cache_entries;
    const VirtualMachine vm(LaConfig::proposed(), CpuConfig::arm11(),
                            vm_options);

    // Workers take whole blocks of consecutive plan indices; each block
    // reuses one batch simulator so the differential interpretations of
    // every case ride the batch engine with warm arenas.  Block width
    // never affects results (each case is a pure function of its index).
    const int batch = std::max(1, options.batch);
    std::vector<std::pair<int, int>> blocks;  // [begin, end) indices.
    for (int begin = 0; begin < options.plans; begin += batch) {
        blocks.emplace_back(begin,
                            std::min(begin + batch, options.plans));
    }
    ThreadPool pool(options.threads);
    const auto block_results = parallelMap(
        pool, blocks, [&](const std::pair<int, int>& range) {
            BatchSimulator simulator;
            std::vector<FaultCaseResult> out;
            out.reserve(
                static_cast<std::size_t>(range.second - range.first));
            for (int plan_index = range.first; plan_index < range.second;
                 ++plan_index) {
                out.push_back(runOneCase(plan_index, options, apps, vm,
                                         simulator));
            }
            return out;
        });
    std::vector<FaultCaseResult> results;
    results.reserve(static_cast<std::size_t>(options.plans));
    for (const auto& block : block_results)
        results.insert(results.end(), block.begin(), block.end());

    // Index-ordered reduction: the summary (and any registry reporting)
    // is byte-identical for every thread count.
    FaultCampaignSummary summary;
    summary.total_plans = options.plans;
    summary.seed = options.seed;
    for (const auto& result : results) {
        summary.rung_counts[result.deepest_rung] += 1;
        for (int s = 0; s < kNumFaultSites; ++s) {
            summary.fired[static_cast<std::size_t>(s)] +=
                result.fired[static_cast<std::size_t>(s)];
        }
        summary.invalidations += result.invalidations;
        summary.retranslations += result.retranslations;
        summary.quarantines += result.quarantines;
        summary.la_dispatches += result.la_dispatches;
        summary.cpu_dispatches += result.cpu_dispatches;
        summary.differential_checks += result.differential_checks;
        summary.differential_skips += result.differential_skips;

        if (registry != nullptr) {
            registry->add("fault.plans");
            registry->add("fault.rung." + result.deepest_rung);
            for (int s = 0; s < kNumFaultSites; ++s) {
                const auto count =
                    result.fired[static_cast<std::size_t>(s)];
                if (count > 0) {
                    registry->add(std::string("fault.fired.") +
                                      toString(static_cast<FaultSite>(s)),
                                  count);
                }
            }
            if (result.invalidations > 0)
                registry->add("fault.invalidations", result.invalidations);
            if (result.retranslations > 0)
                registry->add("fault.retranslations",
                              result.retranslations);
            if (result.quarantines > 0)
                registry->add("fault.quarantines", result.quarantines);
        }

        if (result.diverged) {
            if (registry != nullptr) {
                registry->add("fault.divergences");
                registry->trace("fault/" + result.app_name, "divergence",
                                result.divergence_detail,
                                result.plan_index);
            }
            summary.divergences.push_back(result);
        }
        if (!result.taxonomy_ok) {
            if (registry != nullptr) {
                registry->add("fault.taxonomy_violations");
                registry->trace("fault/" + result.app_name, "taxonomy",
                                result.taxonomy_detail,
                                result.plan_index);
            }
            summary.taxonomy_violations.push_back(result);
        }
    }
    return summary;
}

}  // namespace veal
