#include "veal/vm/vm.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "veal/arch/cpu_config.h"
#include "veal/fault/fault_injector.h"
#include "veal/fault/fault_plan.h"
#include "veal/support/metrics/metrics.h"
#include "veal/vm/translator.h"
#include "veal/workloads/kernels.h"
#include "veal/workloads/suite.h"

namespace veal {
namespace {

/** One unfissioned dot-product site; trivially schedulable nominally. */
Application
singleSiteApp(std::int64_t invocations)
{
    Application app;
    app.name = "ladder-app";
    app.sites.push_back(LoopSite{.loop = makeDotProductLoop("dot"),
                                 .fissioned = {},
                                 .invocations = invocations,
                                 .iterations = 16});
    app.acyclic_cycles = 1000;
    return app;
}

/** Hardened run of @p app under @p plan; returns the fault report. */
FaultRunReport
runHardened(const Application& app, const FaultPlan& plan,
            int cache_entries = 4)
{
    VmOptions options;
    options.mode = TranslationMode::kFullyDynamic;
    options.code_cache_entries = cache_entries;
    const VirtualMachine vm(LaConfig::proposed(), CpuConfig::arm11(),
                            options);
    FaultInjector injector(plan);
    FaultRunReport report;
    (void)vm.run(app, nullptr, &injector, &report);
    return report;
}

/**
 * Scheduler-placement faults consume one probe per translation attempt,
 * so the window width selects exactly how deep the site degrades:
 * probe 0 is the nominal rung, 1 relaxed II, 2 no CCA, 3 the
 * no-fission site retry.  This pins the ladder's *ordering*, not just
 * its endpoints.
 */
TEST(DegradationLadder, EscalatesInExactRungOrder)
{
    const Application app = singleSiteApp(4);
    const struct {
        std::int64_t fires;
        DegradationRung expected;
    } kCases[] = {
        {1, DegradationRung::kRelaxedIi},
        {2, DegradationRung::kNoCca},
        {3, DegradationRung::kNoFission},
        {4, DegradationRung::kCpuPinned},
        {-1, DegradationRung::kCpuPinned},  // Sticky: broken forever.
    };
    for (const auto& test_case : kCases) {
        FaultPlan plan;
        plan.faults.push_back(ArmedFault{FaultSite::kSchedulerPlacement,
                                         0, test_case.fires});
        const FaultRunReport report = runHardened(app, plan);
        ASSERT_EQ(report.sites.size(), 1u);
        EXPECT_EQ(report.sites[0].rung, test_case.expected)
            << "fires=" << test_case.fires << " settled on "
            << toString(report.sites[0].rung);
        if (test_case.expected == DegradationRung::kCpuPinned) {
            EXPECT_EQ(report.la_dispatches, 0);
            EXPECT_EQ(report.cpu_dispatches, 4);
        } else {
            ASSERT_EQ(report.sites[0].pieces.size(), 1u);
            EXPECT_TRUE(report.sites[0].pieces[0].translation.ok);
            EXPECT_EQ(report.la_dispatches, 4);
        }
    }
}

/**
 * A pinned site reports a failed translation, never a sibling's.  When
 * a later piece of a fissioned site exhausts the ladder, the pin also
 * sinks the earlier pieces that did translate -- after the failing
 * attempt -- so the report must pick the last failure, not the last
 * sunk translation.  Sticky placement faults from probe 0 to 5 pin the
 * media suite's sites at every piece position.
 */
TEST(DegradationLadder, PinnedSitesReportAFailedTranslation)
{
    int pinned = 0;
    for (const Benchmark& benchmark : mediaFpSuite()) {
        Application app = benchmark.transformed;
        for (auto& site : app.sites)
            site.invocations = std::min<std::int64_t>(site.invocations, 32);
        for (std::int64_t first = 0; first <= 5; ++first) {
            FaultPlan plan;
            plan.faults.push_back(
                ArmedFault{FaultSite::kSchedulerPlacement, first, -1});
            const FaultRunReport report = runHardened(app, plan);
            for (const FaultSiteReport& site : report.sites) {
                for (const FaultPieceReport& piece : site.pieces) {
                    if (piece.rung != DegradationRung::kCpuPinned)
                        continue;
                    ++pinned;
                    EXPECT_FALSE(piece.translation.ok)
                        << app.name << " site " << site.loop_name
                        << " (fault from probe " << first
                        << ") reports an ok translation at II "
                        << piece.translation.schedule.ii;
                }
            }
        }
    }
    EXPECT_GT(pinned, 0);
}

TEST(DegradationLadder, NoArmedFaultStaysNominal)
{
    const FaultRunReport report =
        runHardened(singleSiteApp(4), FaultPlan{});
    ASSERT_EQ(report.sites.size(), 1u);
    EXPECT_EQ(report.sites[0].rung, DegradationRung::kNominal);
    EXPECT_EQ(report.la_dispatches, 4);
    EXPECT_EQ(report.cpu_dispatches, 0);
    EXPECT_EQ(report.checksum_invalidations, 0);
    EXPECT_EQ(report.quarantines, 0);
}

TEST(DegradationLadder, HardenedRunChargesAndMetersTheTlb)
{
    // A one-page TLB re-walks on every warm invocation, so the same
    // fault-free hardened run must price more LA cycles with the model
    // on than off, and meter the difference as vm.tlb.*.
    const Application app = singleSiteApp(4);
    const auto run = [&](const TlbConfig& tlb, metrics::Registry* registry) {
        VmOptions options;
        options.tlb = tlb;
        const VirtualMachine vm(LaConfig::proposed(), CpuConfig::arm11(),
                                options);
        FaultInjector injector(FaultPlan{});
        return vm.run(app, registry, &injector);
    };
    TlbConfig tiny = TlbConfig::proposed();
    tiny.entries = 1;
    metrics::Registry registry;
    const AppRunResult off = run(TlbConfig::off(), nullptr);
    const AppRunResult on = run(tiny, &registry);
    EXPECT_GT(on.accelerated_cycles, off.accelerated_cycles);
    EXPECT_EQ(on.translation_cycles, off.translation_cycles);
    EXPECT_EQ(registry.counter("vm.tlb.cycles"),
              on.accelerated_cycles - off.accelerated_cycles);
    EXPECT_GT(registry.counter("vm.tlb.walks"), 0);
}

TEST(ChecksumValidation, QuarantinesAfterPlanStrikes)
{
    FaultPlan plan;
    plan.faults.push_back(ArmedFault{FaultSite::kCacheCorruption, 0, -1});
    plan.quarantine_strikes = 2;
    plan.retranslation_bound = 5;

    const FaultRunReport report = runHardened(singleSiteApp(8), plan);
    ASSERT_EQ(report.sites.size(), 1u);
    const FaultPieceReport& piece = report.sites[0].pieces[0];

    // miss, invalidate (strike 1), re-translate, invalidate (strike 2 ->
    // quarantine), then CPU for the remaining rounds.
    EXPECT_EQ(piece.checksum_invalidations, 2);
    EXPECT_EQ(piece.retranslations, 1);
    EXPECT_TRUE(piece.quarantined);
    EXPECT_EQ(piece.la_dispatches, 2);
    EXPECT_EQ(piece.cpu_dispatches, 6);
    EXPECT_EQ(report.quarantines, 1);
}

TEST(ChecksumValidation, RetranslationsNeverExceedThePlanBound)
{
    FaultPlan plan;
    plan.faults.push_back(ArmedFault{FaultSite::kCacheCorruption, 0, -1});
    plan.quarantine_strikes = 10;  // Strikes alone would allow more.
    plan.retranslation_bound = 2;

    const FaultRunReport report = runHardened(singleSiteApp(12), plan);
    const FaultPieceReport& piece = report.sites[0].pieces[0];
    EXPECT_EQ(piece.retranslations, 2);
    EXPECT_TRUE(piece.quarantined);
    EXPECT_EQ(piece.checksum_invalidations, 3);
    EXPECT_EQ(piece.la_dispatches, 3);
}

TEST(ChecksumValidation, QuarantineOutlivesCacheEviction)
{
    // Capacity-1 cache: the invalidation erases the only entry, so the
    // quarantine verdict cannot be hiding in cached state -- later
    // rounds would happily re-translate if the run-local flag were lost.
    FaultPlan plan;
    plan.faults.push_back(ArmedFault{FaultSite::kCacheCorruption, 0, -1});
    plan.quarantine_strikes = 1;
    plan.retranslation_bound = 5;

    const FaultRunReport report =
        runHardened(singleSiteApp(6), plan, /*cache_entries=*/1);
    const FaultPieceReport& piece = report.sites[0].pieces[0];
    EXPECT_TRUE(piece.quarantined);
    EXPECT_EQ(piece.checksum_invalidations, 1);
    EXPECT_EQ(piece.retranslations, 0)
        << "a quarantined piece must never be re-translated";
    EXPECT_EQ(piece.la_dispatches, 1);
    EXPECT_EQ(piece.cpu_dispatches, 5);
}

TEST(ChecksumValidation, EveryCorruptionFireIsExactlyOneInvalidation)
{
    FaultPlan plan;
    plan.faults.push_back(ArmedFault{FaultSite::kCacheCorruption, 1, 2});
    plan.quarantine_strikes = 3;
    plan.retranslation_bound = 4;

    VmOptions options;
    options.code_cache_entries = 4;
    const VirtualMachine vm(LaConfig::proposed(), CpuConfig::arm11(),
                            options);
    FaultInjector injector(plan);
    FaultRunReport report;
    (void)vm.run(singleSiteApp(10), nullptr, &injector, &report);
    EXPECT_EQ(injector.fired(FaultSite::kCacheCorruption),
              report.checksum_invalidations);
    EXPECT_GT(report.checksum_invalidations, 0);
}

// --- Where one translation probes each pipeline fault site -------------

/** A plan that fires @p site on every probe. */
FaultPlan
stickyPlan(FaultSite site)
{
    FaultPlan plan;
    plan.faults.push_back(ArmedFault{site, 0, -1});
    return plan;
}

/** One translateLoop() of @p loop under @p injector. */
TranslationResult
translateUnder(const Loop& loop, const LaConfig& config,
               TranslationMode mode, FaultInjector& injector,
               const StaticAnnotations* annotations = nullptr,
               bool disable_cca = false)
{
    TranslationOptions options;
    options.annotations = annotations;
    options.faults = &injector;
    options.disable_cca = disable_cca;
    return translateLoop(loop, config, mode, options);
}

/** A 4-tap FIR: one CCA subgraph on the proposed LA, four load streams. */
Loop
ccaLoop()
{
    const Loop loop = makeFirLoop("fir", 4);
    const TranslationResult nominal = translateLoop(
        loop, LaConfig::proposed(), TranslationMode::kFullyDynamic);
    EXPECT_TRUE(nominal.ok);
    EXPECT_FALSE(nominal.mapping.groups.empty())
        << "the CCA probe tests need a loop the CCA maps";
    return loop;
}

TEST(TranslationFaultSites, CcaProbeSkipsStreamRejectsAnnotationsAndNoCca)
{
    const Loop loop = ccaLoop();

    // A stream reject comes before the mapping phase.
    LaConfig one_stream = LaConfig::proposed();
    one_stream.num_load_streams = 1;
    FaultInjector streams(stickyPlan(FaultSite::kCcaMapping));
    EXPECT_EQ(translateUnder(loop, one_stream,
                             TranslationMode::kFullyDynamic, streams)
                  .reject,
              TranslationReject::kTooManyLoadStreams);
    EXPECT_EQ(streams.probes(FaultSite::kCcaMapping), 0);

    // A hybrid translation reads its mapping from the annotations,
    // passed or derived.
    const StaticAnnotations annotations =
        precompileAnnotations(loop, LaConfig::proposed());
    const StaticAnnotations* const kPassed[] = {&annotations, nullptr};
    for (const StaticAnnotations* passed : kPassed) {
        FaultInjector hybrid(stickyPlan(FaultSite::kCcaMapping));
        const TranslationResult result = translateUnder(
            loop, LaConfig::proposed(),
            TranslationMode::kHybridStaticCcaPriority, hybrid, passed);
        EXPECT_TRUE(result.ok) << toString(result.reject);
        EXPECT_EQ(hybrid.probes(FaultSite::kCcaMapping), 0);
    }

    // No CCA on the LA, or the no-CCA rung: nothing to map.
    LaConfig no_cca = LaConfig::proposed();
    no_cca.num_cca_units = 0;
    FaultInjector off(stickyPlan(FaultSite::kCcaMapping));
    EXPECT_TRUE(
        translateUnder(loop, no_cca, TranslationMode::kFullyDynamic, off)
            .ok);
    EXPECT_TRUE(translateUnder(loop, LaConfig::proposed(),
                               TranslationMode::kFullyDynamic, off,
                               nullptr, /*disable_cca=*/true)
                    .ok);
    EXPECT_EQ(off.probes(FaultSite::kCcaMapping), 0);
}

TEST(TranslationFaultSites, FiredCcaProbeRejectsBeforeTheGraph)
{
    const Loop loop = ccaLoop();
    for (const TranslationMode mode :
         {TranslationMode::kFullyDynamic,
          TranslationMode::kFullyDynamicHeight}) {
        FaultInjector injector(stickyPlan(FaultSite::kCcaMapping));
        const TranslationResult result =
            translateUnder(loop, LaConfig::proposed(), mode, injector);
        EXPECT_FALSE(result.ok);
        EXPECT_EQ(result.reject, TranslationReject::kCcaMapping);
        EXPECT_EQ(result.reject_detail, "injected cca-mapping fault");
        EXPECT_EQ(result.meter.units(TranslationPhase::kCcaMapping), 0u);
        EXPECT_GT(result.meter.units(TranslationPhase::kLoopAnalysis), 0u);
        EXPECT_EQ(result.graph, nullptr);
        EXPECT_TRUE(result.mapping.groups.empty());
        EXPECT_EQ(result.mapping.group_of_op,
                  std::vector<int>(static_cast<std::size_t>(loop.size()),
                                   -1));
        EXPECT_EQ(injector.probes(FaultSite::kCcaMapping), 1);
        EXPECT_EQ(injector.fired(FaultSite::kCcaMapping), 1);
        EXPECT_EQ(injector.probes(FaultSite::kSchedulerPlacement), 0);
    }
}

TEST(TranslationFaultSites, FiredPlacementProbeSkipsTheHeightFallback)
{
    const Loop loop = ccaLoop();
    FaultInjector injector(stickyPlan(FaultSite::kSchedulerPlacement));
    const TranslationResult result = translateUnder(
        loop, LaConfig::proposed(), TranslationMode::kFullyDynamic,
        injector);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.reject, TranslationReject::kScheduleFailed);
    EXPECT_EQ(result.reject_detail, "injected scheduler-placement fault");
    EXPECT_EQ(result.sched_stats.placement_failures, 1);
    EXPECT_EQ(result.sched_stats.attempted_iis, 0);
    EXPECT_FALSE(result.height_fallback);
    EXPECT_NE(result.graph, nullptr);
    EXPECT_EQ(result.meter.units(TranslationPhase::kScheduling), 0u);
    EXPECT_EQ(injector.probes(FaultSite::kSchedulerPlacement), 1);
    EXPECT_EQ(injector.probes(FaultSite::kRegisterAllocation), 0);
}

TEST(TranslationFaultSites, FiredRegisterProbeRetriesAtLargerIis)
{
    const Loop loop = ccaLoop();
    FaultInjector injector(stickyPlan(FaultSite::kRegisterAllocation));
    const TranslationResult result = translateUnder(
        loop, LaConfig::proposed(), TranslationMode::kFullyDynamic,
        injector);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.reject, TranslationReject::kTooFewRegisters);
    EXPECT_EQ(result.reject_detail, "injected register-allocation fault");
    // Every attempt schedules, then fails its register probe: three
    // attempts, each at one II past the last schedule's.
    EXPECT_EQ(result.register_retries, 3);
    EXPECT_EQ(injector.probes(FaultSite::kSchedulerPlacement), 3);
    EXPECT_EQ(injector.probes(FaultSite::kRegisterAllocation), 3);
    EXPECT_EQ(result.meter.units(TranslationPhase::kRegisterAssignment),
              0u);
    EXPECT_FALSE(result.height_fallback);
}

TEST(TranslationFaultSites, AttachedFrontEndProbesLikeItsOwn)
{
    const Loop loop = ccaLoop();
    const LaConfig la = LaConfig::proposed();
    const TranslationFrontEnd front =
        buildTranslationFrontEnd(loop, la.cca, la.latencies);
    for (const FaultSite site :
         {FaultSite::kCcaMapping, FaultSite::kSchedulerPlacement,
          FaultSite::kRegisterAllocation}) {
        FaultInjector own(stickyPlan(site));
        FaultInjector attached(stickyPlan(site));
        TranslationOptions options;
        options.faults = &attached;
        options.front_end = &front;
        const TranslationResult expected =
            translateUnder(loop, la, TranslationMode::kFullyDynamic, own);
        const TranslationResult actual =
            translateLoop(loop, la, TranslationMode::kFullyDynamic, options);
        EXPECT_EQ(actual.reject, expected.reject) << toString(site);
        EXPECT_EQ(actual.reject_detail, expected.reject_detail);
        EXPECT_EQ(actual.meter.totalInstructions(),
                  expected.meter.totalInstructions());
        EXPECT_EQ(attached.probes(site), own.probes(site));
    }
}

TEST(HardenedRun, NullInjectorDelegatesToTheNominalOverload)
{
    const Application app = singleSiteApp(4);
    VmOptions options;
    const VirtualMachine vm(LaConfig::proposed(), CpuConfig::arm11(),
                            options);
    const AppRunResult nominal = vm.run(app);
    const AppRunResult delegated = vm.run(app, nullptr, nullptr);
    EXPECT_EQ(nominal.accelerated_cycles, delegated.accelerated_cycles);
    EXPECT_EQ(nominal.translation_cycles, delegated.translation_cycles);
    EXPECT_EQ(nominal.speedup, delegated.speedup);
}

}  // namespace
}  // namespace veal
