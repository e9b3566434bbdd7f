/**
 * Golden VirtualMachine::run outputs, pinned across commits.
 *
 * Nominal runs: every transformed app of mediaFpSuite() and
 * integerSuite() runs on four LA shapes, in all four translation modes,
 * under five VmOptions variants (the defaults, a 2-entry code cache, a
 * 0.1 forced-retranslation rate, a 5000-cycle penalty override and a
 * 1-entry stream TLB).  Each (LA, mode, variant) is one line: the summed
 * cycles plus an FNV-1a digest over every app's speedup bits, cycles,
 * cache hits and misses, per-site fields and metrics snapshot.
 *
 * Fault runs: 48 makeCampaignPlan() plans over the media suite with
 * invocations clamped, as veal-faultsim runs them, plus sticky cache
 * corruption under twelve quarantine policies.  Each run is one line:
 * the AppRunResult totals, the FaultRunReport totals, the deepest rung,
 * a digest over every site and piece report, and a digest of the
 * metrics snapshot without the per-piece keys the nominal run also
 * emits (vm.pieces, vm.path.*, vm.cache.*, vm.sched.*, vm.units.* and
 * the translate/path trace events).
 *
 * The lines are compared against `tests/golden/vm_runs.golden`.  To
 * refresh after an intentional change:
 *
 *     VEAL_UPDATE_GOLDEN=1 ./build/tests/vm_golden_test
 */

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tests/testing/fnv.h"
#include "tests/testing/golden.h"
#include "veal/arch/cpu_config.h"
#include "veal/arch/la_config.h"
#include "veal/fault/campaign.h"
#include "veal/fault/fault_injector.h"
#include "veal/support/metrics/metrics.h"
#include "veal/vm/vm.h"
#include "veal/workloads/suite.h"

#ifndef VEAL_GOLDEN_DIR
#error "VEAL_GOLDEN_DIR must point at tests/golden"
#endif

namespace veal {
namespace {

using testing::Fnv;

/** Every transformed app of both suites, CPU baselines included. */
const std::vector<Application>&
suiteApps()
{
    static const std::vector<Application> apps = [] {
        std::vector<Application> all;
        for (auto& benchmark : mediaFpSuite())
            all.push_back(std::move(benchmark.transformed));
        for (auto& benchmark : integerSuite())
            all.push_back(std::move(benchmark.transformed));
        return all;
    }();
    return apps;
}

/** The LA shapes of the nominal lines. */
std::vector<LaConfig>
laConfigs()
{
    LaConfig narrow = LaConfig::proposed();
    narrow.name = "1int-8reg";
    narrow.num_int_units = 1;
    narrow.num_int_registers = 8;
    narrow.num_fp_registers = 8;
    return {LaConfig::proposed(), LaConfig::infinite(),
            LaConfig::infiniteWithCca(), narrow};
}

constexpr TranslationMode kModes[] = {
    TranslationMode::kStatic,
    TranslationMode::kFullyDynamic,
    TranslationMode::kFullyDynamicHeight,
    TranslationMode::kHybridStaticCcaPriority,
};

/** The VmOptions variants of the nominal lines, named. */
std::vector<std::pair<std::string, VmOptions>>
optionVariants(TranslationMode mode)
{
    VmOptions base;
    base.mode = mode;
    VmOptions small_cache = base;
    small_cache.code_cache_entries = 2;
    VmOptions retranslate = base;
    retranslate.retranslation_rate = 0.1;
    VmOptions penalty = base;
    penalty.penalty_override = 5000.0;
    VmOptions tlb = base;
    tlb.tlb = TlbConfig::proposed();
    tlb.tlb.entries = 1;
    return {{"default", base},
            {"cache-2", small_cache},
            {"retranslate-0.1", retranslate},
            {"penalty-5000", penalty},
            {"tlb-1", tlb}};
}

/** One nominal line: every suite app on (@p la, @p options). */
std::string
nominalLine(const LaConfig& la, const std::string& variant,
            const VmOptions& options)
{
    const VirtualMachine vm(la, CpuConfig::arm11(), options);
    std::int64_t baseline = 0;
    std::int64_t accelerated = 0;
    std::int64_t translation = 0;
    Fnv digest;
    for (const Application& app : suiteApps()) {
        metrics::Registry registry;
        const AppRunResult run = vm.run(app, &registry);
        baseline += run.baseline_cycles;
        accelerated += run.accelerated_cycles;
        translation += run.translation_cycles;
        digest.add(run.app_name);
        digest.add(run.speedup);
        digest.add(run.baseline_cycles);
        digest.add(run.accelerated_cycles);
        digest.add(run.translation_cycles);
        digest.add(run.cache_hits);
        digest.add(run.cache_misses);
        for (const SiteResult& site : run.sites) {
            digest.add(site.loop_name);
            digest.add(site.accelerated);
            digest.add(static_cast<int>(site.reject));
            digest.add(site.baseline_cycles);
            digest.add(site.actual_cycles);
            digest.add(site.translation_cycles);
            digest.add(site.translations);
            digest.add(site.instructions_per_translation);
            digest.add(site.ii);
            digest.add(site.mii);
            digest.add(site.stage_count);
        }
        digest.add(registry.toJson());
    }
    std::ostringstream os;
    os << "nominal la=" << la.name << " mode=" << toString(options.mode)
       << " variant=" << variant << " baseline=" << baseline
       << " accelerated=" << accelerated << " translation=" << translation
       << " digest=" << digest.hex();
    return os.str();
}

/** The per-piece keys a fault run shares with the nominal run. */
bool
perPieceCounter(const std::string& name)
{
    for (const char* prefix :
         {"vm.path.", "vm.cache.", "vm.sched.", "vm.units."}) {
        if (name.rfind(prefix, 0) == 0)
            return true;
    }
    return name == "vm.pieces";
}

/** @p registry without the per-piece keys, digested. */
std::string
faultMetricsDigest(const metrics::Registry& registry)
{
    Fnv digest;
    for (const auto& [name, value] : registry.counters()) {
        if (perPieceCounter(name))
            continue;
        digest.add(name);
        digest.add(value);
    }
    for (const auto& [name, histogram] : registry.histograms()) {
        digest.add(name);
        for (const std::int64_t count : histogram.counts)
            digest.add(count);
    }
    for (const auto& event : registry.traceEvents()) {
        if (event.event == "translate" || event.event == "path")
            continue;
        digest.add(event.scope);
        digest.add(event.event);
        digest.add(event.detail);
        digest.add(event.value);
    }
    digest.add(registry.traceDropped());
    return digest.hex();
}

constexpr std::uint64_t kCampaignSeed = 1;
constexpr int kFaultPlans = 48;

/** Media-suite app @p index, invocations clamped as veal-faultsim does. */
Application
clampedMediaApp(int index)
{
    static const std::vector<Benchmark> media = mediaFpSuite();
    Application app =
        media[static_cast<std::size_t>(index) % media.size()].transformed;
    for (auto& site : app.sites)
        site.invocations = std::min<std::int64_t>(site.invocations, 32);
    return app;
}

/** One fault line: @p app hardened under @p plan in @p mode. */
std::string
faultLine(const std::string& label, const Application& app,
          TranslationMode mode, int cache_entries, const FaultPlan& plan)
{
    VmOptions options;
    options.mode = mode;
    options.code_cache_entries = cache_entries;
    const VirtualMachine vm(LaConfig::proposed(), CpuConfig::arm11(),
                            options);
    FaultInjector injector(plan);
    FaultRunReport report;
    metrics::Registry registry;
    registry.setTraceLimit(1 << 20);
    const AppRunResult run = vm.run(app, &registry, &injector, &report);

    DegradationRung deepest = DegradationRung::kNominal;
    Fnv pieces;
    for (const FaultSiteReport& site : report.sites) {
        deepest = std::max(deepest, site.rung);
        pieces.add(site.loop_name);
        pieces.add(static_cast<int>(site.rung));
        for (const FaultPieceReport& piece : site.pieces) {
            pieces.add(piece.loop != nullptr ? piece.loop->name()
                                             : std::string("-"));
            pieces.add(static_cast<int>(piece.rung));
            pieces.add(piece.translation.ok);
            pieces.add(static_cast<int>(piece.translation.reject));
            pieces.add(piece.translation.schedule.ii);
            pieces.add(piece.la_dispatches);
            pieces.add(piece.cpu_dispatches);
            pieces.add(piece.checksum_invalidations);
            pieces.add(piece.retranslations);
            pieces.add(piece.quarantined);
        }
    }

    std::ostringstream os;
    os << "fault " << label << " app=" << app.name
       << " mode=" << toString(mode)
       << " baseline=" << run.baseline_cycles
       << " accelerated=" << run.accelerated_cycles
       << " translation=" << run.translation_cycles
       << " hits=" << run.cache_hits << " misses=" << run.cache_misses
       << " invalidations=" << report.checksum_invalidations
       << " retranslations=" << report.retranslations
       << " quarantines=" << report.quarantines
       << " la=" << report.la_dispatches << " cpu=" << report.cpu_dispatches
       << " rung=" << toString(deepest) << " pieces=" << pieces.hex()
       << " metrics=" << faultMetricsDigest(registry);
    return os.str();
}

TEST(VmGolden, RunsMatchSnapshots)
{
    std::ostringstream actual;
    for (const LaConfig& la : laConfigs()) {
        for (const TranslationMode mode : kModes) {
            for (const auto& [variant, options] : optionVariants(mode))
                actual << nominalLine(la, variant, options) << "\n";
        }
    }
    // Every app meets three of the four modes across the campaign plans.
    for (int plan = 0; plan < kFaultPlans; ++plan) {
        actual << faultLine("plan=" + std::to_string(plan),
                            clampedMediaApp(plan),
                            kModes[(plan + plan / 16) % 4], 4,
                            makeCampaignPlan(kCampaignSeed, plan))
               << "\n";
    }
    // Sampled plans rarely quarantine, so sweep the quarantine policy
    // under sticky cache corruption on an app with fissioned sites, in
    // a cache large enough that every piece stays resident.
    for (int strikes = 1; strikes <= 3; ++strikes) {
        for (int bound = 0; bound <= 3; ++bound) {
            FaultPlan plan;
            plan.faults.push_back(
                ArmedFault{FaultSite::kCacheCorruption, 0, -1});
            plan.quarantine_strikes = strikes;
            plan.retranslation_bound = bound;
            actual << faultLine("strikes=" + std::to_string(strikes) +
                                    " bound=" + std::to_string(bound),
                                clampedMediaApp(13),
                                TranslationMode::kFullyDynamic, 16, plan)
                   << "\n";
        }
    }

    VEAL_EXPECT_GOLDEN(actual.str(), "vm_runs.golden", "VM outputs");
}

}  // namespace
}  // namespace veal
