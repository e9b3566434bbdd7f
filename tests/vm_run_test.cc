#include "veal/vm/vm.h"

#include <gtest/gtest.h>

#include <string>

#include "veal/fault/fault_injector.h"
#include "veal/fault/fault_plan.h"
#include "veal/support/metrics/metrics.h"
#include "veal/workloads/kernels.h"
#include "veal/ir/transforms.h"

namespace veal {
namespace {

Application
makeSimpleApp()
{
    Application app;
    app.name = "testapp";
    app.sites.push_back(LoopSite{.loop = makeSadLoop("sad"),
                                 .fissioned = {},
                                 .invocations = 50,
                                 .iterations = 256});
    app.sites.push_back(LoopSite{.loop = makeQuantLoop("quant"),
                                 .fissioned = {},
                                 .invocations = 40,
                                 .iterations = 512});
    app.acyclic_cycles = 50000;
    return app;
}

TEST(VmRunTest, AcceleratesSimpleApp)
{
    VmOptions options;
    options.mode = TranslationMode::kStatic;
    VirtualMachine vm(LaConfig::proposed(), CpuConfig::arm11(), options);
    const auto result = vm.run(makeSimpleApp());
    EXPECT_GT(result.speedup, 1.2);
    EXPECT_EQ(result.sites.size(), 2u);
    for (const auto& site : result.sites)
        EXPECT_TRUE(site.accelerated);
    EXPECT_EQ(result.translation_cycles, 0);  // Static mode: no penalty.
}

TEST(VmRunTest, DynamicModePaysTranslationOnce)
{
    VmOptions options;
    options.mode = TranslationMode::kFullyDynamic;
    VirtualMachine vm(LaConfig::proposed(), CpuConfig::arm11(), options);
    const auto result = vm.run(makeSimpleApp());
    EXPECT_GT(result.translation_cycles, 0);
    for (const auto& site : result.sites) {
        if (site.accelerated) {
            EXPECT_EQ(site.translations, 1);
        }
    }
}

TEST(VmRunTest, DynamicNeverBeatsStatic)
{
    VmOptions st{.mode = TranslationMode::kStatic};
    VmOptions dy{.mode = TranslationMode::kFullyDynamic};
    const auto app = makeSimpleApp();
    const auto s =
        VirtualMachine(LaConfig::proposed(), CpuConfig::arm11(), st)
            .run(app);
    const auto d =
        VirtualMachine(LaConfig::proposed(), CpuConfig::arm11(), dy)
            .run(app);
    EXPECT_LE(d.speedup, s.speedup + 1e-9);
}

TEST(VmRunTest, RetranslationRateDegradesSpeedup)
{
    const auto app = makeSimpleApp();
    double previous = 1e18;
    for (const double rate : {0.0, 0.05, 0.25, 1.0}) {
        VmOptions options;
        options.mode = TranslationMode::kFullyDynamic;
        options.retranslation_rate = rate;
        const auto result =
            VirtualMachine(LaConfig::proposed(), CpuConfig::arm11(),
                           options)
                .run(app);
        EXPECT_LE(result.speedup, previous + 1e-9) << "rate " << rate;
        previous = result.speedup;
    }
}

TEST(VmRunTest, PenaltyOverrideDrivesFigure6Sweep)
{
    const auto app = makeSimpleApp();
    double previous = 1e18;
    for (const double penalty : {0.0, 20000.0, 100000.0, 300000.0}) {
        VmOptions options;
        options.mode = TranslationMode::kFullyDynamic;
        options.penalty_override = penalty;
        options.retranslation_rate = 0.01;
        const auto result =
            VirtualMachine(LaConfig::proposed(), CpuConfig::arm11(),
                           options)
                .run(app);
        EXPECT_LE(result.speedup, previous + 1e-9);
        previous = result.speedup;
    }
}

TEST(VmRunTest, UnmappableLoopFallsBackToCpu)
{
    Application app;
    app.name = "calls";
    app.sites.push_back(LoopSite{.loop = makeMathCallLoop("libm"),
                                 .fissioned = {},
                                 .invocations = 10,
                                 .iterations = 128});
    app.acyclic_cycles = 1000;
    VmOptions options;
    options.mode = TranslationMode::kFullyDynamic;
    VirtualMachine vm(LaConfig::proposed(), CpuConfig::arm11(), options);
    const auto result = vm.run(app);
    EXPECT_FALSE(result.sites[0].accelerated);
    EXPECT_EQ(result.sites[0].reject, TranslationReject::kAnalysis);
    EXPECT_NEAR(result.speedup, 1.0, 1e-6);
}

TEST(VmRunTest, FissionedSitesRunAllPieces)
{
    Application app;
    app.name = "fissioned";
    Loop wide = makeStencilNLoop("wide", 20);
    FissionBudget budget;
    budget.max_load_streams = 16;
    budget.max_store_streams = 8;
    budget.max_fp_ops = 24;
    auto fission = fissionLoop(wide, budget);
    ASSERT_TRUE(fission.has_value());
    app.sites.push_back(LoopSite{.loop = wide,
                                 .fissioned = std::move(fission->loops),
                                 .invocations = 20,
                                 .iterations = 256});
    VmOptions options;
    options.mode = TranslationMode::kStatic;
    VirtualMachine vm(LaConfig::proposed(), CpuConfig::arm11(), options);
    const auto result = vm.run(app);
    EXPECT_TRUE(result.sites[0].accelerated);
    EXPECT_GT(result.speedup, 1.0);
}

TEST(VmRunTest, SmallCodeCacheThrashes)
{
    // Three hot loops with a 1-entry cache: every invocation re-translates.
    Application app = makeSimpleApp();
    app.sites.push_back(LoopSite{.loop = makeCopyScaleLoop("copy"),
                                 .fissioned = {},
                                 .invocations = 30,
                                 .iterations = 512});
    VmOptions big;
    big.mode = TranslationMode::kFullyDynamic;
    big.code_cache_entries = 16;
    VmOptions tiny = big;
    tiny.code_cache_entries = 1;
    const auto roomy =
        VirtualMachine(LaConfig::proposed(), CpuConfig::arm11(), big)
            .run(app);
    const auto cramped =
        VirtualMachine(LaConfig::proposed(), CpuConfig::arm11(), tiny)
            .run(app);
    EXPECT_GT(cramped.translation_cycles, roomy.translation_cycles);
    EXPECT_LT(cramped.speedup, roomy.speedup);
    EXPECT_GT(cramped.cache_misses, roomy.cache_misses);
}

TEST(VmRunTest, CpuWinningPiecesDoNotOccupyTheCache)
{
    // Two real LA winners plus three trivial loops that translate fine
    // but lose to the CPU path (a single iteration cannot amortise the
    // LA's first-invocation cost).  Only the winners occupy the 2-entry
    // cache, so the working set fits and each misses exactly once.
    // Regression: the cache-fits test used to count every translated-ok
    // piece, so the three CPU-path loops "overflowed" the cache and
    // thrashed sad and quant into per-invocation retranslation.
    Application app = makeSimpleApp();
    for (int i = 0; i < 3; ++i) {
        app.sites.push_back(LoopSite{
            .loop = makeCopyScaleLoop("tiny" + std::to_string(i)),
            .fissioned = {},
            .invocations = 1,
            .iterations = 1});
    }
    VmOptions options;
    options.mode = TranslationMode::kFullyDynamic;
    options.code_cache_entries = 2;
    const VirtualMachine vm(LaConfig::proposed(), CpuConfig::arm11(),
                            options);
    metrics::Registry registry;
    const auto result = vm.run(app, &registry);
    // Precondition: the tiny loops really chose the CPU path.
    ASSERT_EQ(registry.counter("vm.path.cpu"), 3);
    ASSERT_EQ(registry.counter("vm.path.la"), 2);
    EXPECT_EQ(registry.counter("vm.resident_pieces"), 2);
    EXPECT_EQ(result.cache_misses, 2);
    EXPECT_EQ(result.cache_hits, 88);  // 50 + 40 invocations - 2 misses.
}

TEST(VmRunTest, SiteRejectReportsTheFirstFailedPiece)
{
    // A fissioned site whose first piece fails analysis (a libm call)
    // and whose second piece fails on stream limits (20 load streams on
    // a 16-stream LA).  Regression: the site verdict used to be
    // overwritten by each failed piece, reporting the *last* reason.
    Application app;
    app.name = "mixed-failure";
    app.sites.push_back(
        LoopSite{.loop = makeMathCallLoop("calls"),
                 .fissioned = {makeMathCallLoop("calls_piece"),
                               makeStencilNLoop("wide", 20)},
                 .invocations = 10,
                 .iterations = 128});
    VmOptions options;
    options.mode = TranslationMode::kFullyDynamic;
    const VirtualMachine vm(LaConfig::proposed(), CpuConfig::arm11(),
                            options);
    metrics::Registry registry;
    const auto result = vm.run(app, &registry);
    EXPECT_FALSE(result.sites[0].accelerated);
    EXPECT_EQ(result.sites[0].reject, TranslationReject::kAnalysis);
    // Both failures are still individually visible in the metrics.
    EXPECT_EQ(registry.counter("vm.translate.reject.analysis"), 1);
    EXPECT_EQ(
        registry.counter("vm.translate.reject.too-many-load-streams"), 1);
}

TEST(VmRunTest, BaselineCyclesMatchCpuOnly)
{
    // On every preset, acyclic scaling included: cpuOnlyCycles is the
    // speedup baseline, so nominal and fault runs must agree with it.
    const auto app = makeSimpleApp();
    VmOptions options;
    options.mode = TranslationMode::kStatic;
    for (const CpuConfig& cpu : {CpuConfig::arm11(), CpuConfig::cortexA8(),
                                 CpuConfig::quadIssue()}) {
        VirtualMachine vm(LaConfig::proposed(), cpu, options);
        EXPECT_EQ(vm.run(app).baseline_cycles, cpuOnlyCycles(app, cpu))
            << cpu.name;
        FaultInjector no_faults(FaultPlan{});
        EXPECT_EQ(vm.run(app, nullptr, &no_faults).baseline_cycles,
                  cpuOnlyCycles(app, cpu))
            << cpu.name << " (hardened)";
    }
}

TEST(VmRunTest, WiderCpuIsFasterButScalesAcyclicOnly)
{
    const auto app = makeSimpleApp();
    const auto one = cpuOnlyCycles(app, CpuConfig::arm11());
    const auto two = cpuOnlyCycles(app, CpuConfig::cortexA8());
    const auto four = cpuOnlyCycles(app, CpuConfig::quadIssue());
    EXPECT_GT(one, two);
    EXPECT_GT(two, four);
}

}  // namespace
}  // namespace veal
