#include "veal/vm/vm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "veal/arch/cpu_config.h"
#include "veal/arch/la_config.h"
#include "veal/fault/fault_injector.h"
#include "veal/fault/fault_plan.h"
#include "veal/sim/reference.h"
#include "veal/support/logging.h"
#include "veal/support/metrics/metrics.h"
#include "veal/workloads/kernels.h"
#include "veal/workloads/suite.h"

namespace veal {
namespace {

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

/** @p app with its CPU baseline reset: runs re-price every lane. */
Application
withoutBaseline(const Application& app)
{
    Application copy = app;
    copy.cpu_baseline.reset();
    return copy;
}

/** @p app with each site's invocations capped at @p cap (the table
    stays valid: prices are per invocation). */
Application
clampInvocations(Application app, std::int64_t cap)
{
    for (auto& site : app.sites)
        site.invocations = std::min(site.invocations, cap);
    return app;
}

/** The LA shapes every equivalence check runs on. */
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

/** Field-for-field equality of two runs, the speedup bit for bit. */
void
expectSameRun(const AppRunResult& a, const AppRunResult& b,
              const std::string& where)
{
    SCOPED_TRACE(where);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.speedup),
              std::bit_cast<std::uint64_t>(b.speedup));
    EXPECT_EQ(a.baseline_cycles, b.baseline_cycles);
    EXPECT_EQ(a.accelerated_cycles, b.accelerated_cycles);
    EXPECT_EQ(a.translation_cycles, b.translation_cycles);
    EXPECT_EQ(a.cache_hits, b.cache_hits);
    EXPECT_EQ(a.cache_misses, b.cache_misses);
    ASSERT_EQ(a.sites.size(), b.sites.size());
    for (std::size_t s = 0; s < a.sites.size(); ++s) {
        const SiteResult& x = a.sites[s];
        const SiteResult& y = b.sites[s];
        SCOPED_TRACE(x.loop_name);
        EXPECT_EQ(x.loop_name, y.loop_name);
        EXPECT_EQ(x.accelerated, y.accelerated);
        EXPECT_EQ(x.reject, y.reject);
        EXPECT_EQ(x.baseline_cycles, y.baseline_cycles);
        EXPECT_EQ(x.actual_cycles, y.actual_cycles);
        EXPECT_EQ(x.translation_cycles, y.translation_cycles);
        EXPECT_EQ(x.translations, y.translations);
        EXPECT_EQ(x.ii, y.ii);
        EXPECT_EQ(x.mii, y.mii);
        EXPECT_EQ(x.stage_count, y.stage_count);
    }
}

/**
 * Run @p app on @p vm with its table and again without it: nominally,
 * or hardened under @p plan when non-null.  Results, registry
 * snapshots and dispatch counts must be identical.
 */
void
expectTableIsInvisible(const VirtualMachine& vm, const Application& app,
                       const FaultPlan* plan, const std::string& where)
{
    const Application stripped = withoutBaseline(app);
    metrics::Registry with_registry;
    metrics::Registry without_registry;
    if (plan == nullptr) {
        expectSameRun(vm.run(app, &with_registry),
                      vm.run(stripped, &without_registry), where);
    } else {
        FaultInjector with_faults(*plan);
        FaultInjector without_faults(*plan);
        FaultRunReport with_report;
        FaultRunReport without_report;
        expectSameRun(
            vm.run(app, &with_registry, &with_faults, &with_report),
            vm.run(stripped, &without_registry, &without_faults,
                   &without_report),
            where);
        EXPECT_EQ(with_report.la_dispatches, without_report.la_dispatches)
            << where;
        EXPECT_EQ(with_report.cpu_dispatches,
                  without_report.cpu_dispatches)
            << where;
    }
    EXPECT_EQ(with_registry.toJson(), without_registry.toJson()) << where;
}

TEST(CpuBaseline, SuiteTablesMatchTheReferenceOracle)
{
    const CpuConfig arm11 = CpuConfig::arm11();
    std::size_t pieces = 0;
    for (const Application& app : suiteApps()) {
        SCOPED_TRACE(app.name);
        ASSERT_TRUE(app.cpu_baseline.has_value());
        const CpuBaseline& table = *app.cpu_baseline;
        EXPECT_EQ(table.cpu, arm11);
        ASSERT_EQ(table.sites.size(), app.sites.size());
        for (std::size_t s = 0; s < app.sites.size(); ++s) {
            const LoopSite& site = app.sites[s];
            EXPECT_EQ(table.sites[s].loop,
                      reference::simulateLoopOnCpu(site.loop, arm11,
                                                   site.iterations)
                          .total_cycles)
                << site.loop.name();
            ASSERT_EQ(table.sites[s].pieces.size(), site.fissioned.size());
            for (std::size_t i = 0; i < site.fissioned.size(); ++i) {
                EXPECT_EQ(table.sites[s].pieces[i],
                          reference::simulateLoopOnCpu(site.fissioned[i],
                                                       arm11,
                                                       site.iterations)
                              .total_cycles)
                    << site.fissioned[i].name();
            }
            pieces += site.fissioned.size();
        }
    }
    // The suite's fissioned sites are what give the table its pieces.
    EXPECT_GT(pieces, 0u);
}

TEST(CpuBaseline, NominalRunIsIdenticalWithAndWithoutTheTable)
{
    for (const LaConfig& la : laConfigs()) {
        for (const TranslationMode mode : kModes) {
            VmOptions options;
            options.mode = mode;
            const VirtualMachine vm(la, CpuConfig::arm11(), options);
            for (const Application& app : suiteApps()) {
                expectTableIsInvisible(vm, app, nullptr,
                                       app.name + " @ " + la.name + " / " +
                                           toString(mode));
            }
        }
    }
}

TEST(CpuBaseline, HardenedRunIsIdenticalWithAndWithoutTheTable)
{
    // Each plan runs in its own mode; invocations are capped so the
    // dispatch rounds stay short, as the fault campaign does.
    for (const LaConfig& la : laConfigs()) {
        for (std::uint64_t seed = 1; seed <= std::size(kModes); ++seed) {
            const TranslationMode mode = kModes[seed - 1];
            VmOptions options;
            options.mode = mode;
            options.code_cache_entries = 4;
            const VirtualMachine vm(la, CpuConfig::arm11(), options);
            const FaultPlan plan = FaultPlan::sample(seed);
            for (const Application& app : suiteApps()) {
                expectTableIsInvisible(
                    vm, clampInvocations(app, 8), &plan,
                    app.name + " @ " + la.name + " / " + toString(mode) +
                        " / plan " + std::to_string(seed));
            }
        }
    }
}

TEST(CpuBaseline, OtherCpuRepricesInsteadOfReadingTheTable)
{
    // The suite's tables are priced on arm11; a wider VM must not read
    // them.  Its runs and its cpuOnlyCycles equal the table-less ones,
    // and the baseline differs from what the arm11 table would give.
    for (const CpuConfig& cpu :
         {CpuConfig::cortexA8(), CpuConfig::quadIssue()}) {
        VmOptions options;
        options.mode = TranslationMode::kHybridStaticCcaPriority;
        const VirtualMachine vm(LaConfig::proposed(), cpu, options);
        for (const Application& app : suiteApps()) {
            const std::string where = app.name + " @ " + cpu.name;
            const FaultPlan plan = FaultPlan::sample(7);
            expectTableIsInvisible(vm, app, nullptr, where);
            expectTableIsInvisible(vm, clampInvocations(app, 8), &plan,
                                   where);
            const std::int64_t repriced =
                cpuOnlyCycles(withoutBaseline(app), cpu);
            EXPECT_EQ(cpuOnlyCycles(app, cpu), repriced) << where;
            EXPECT_EQ(vm.run(app).baseline_cycles, repriced) << where;
            EXPECT_NE(repriced, cpuOnlyCycles(app, CpuConfig::arm11()))
                << where;
        }
    }
}

TEST(CpuBaseline, CpuConfigEqualityIsFieldWise)
{
    const std::vector<CpuConfig> presets = {
        CpuConfig::arm11(), CpuConfig::cortexA8(), CpuConfig::quadIssue()};
    for (std::size_t i = 0; i < presets.size(); ++i) {
        for (std::size_t j = 0; j < presets.size(); ++j)
            EXPECT_EQ(presets[i] == presets[j], i == j) << i << " vs " << j;
        const CpuConfig copy = presets[i];
        EXPECT_EQ(copy, presets[i]);
        // Every field takes part, the latency table included.
        CpuConfig slower = presets[i];
        slower.latencies.set(Opcode::kMul,
                             slower.latencies.latency(Opcode::kMul) + 1);
        EXPECT_NE(slower, presets[i]);
        CpuConfig wider_acyclic = presets[i];
        wider_acyclic.acyclic_speedup += 0.5;
        EXPECT_NE(wider_acyclic, presets[i]);
    }
    EXPECT_EQ(LatencyModel::cpu(), LatencyModel::cpu());
}

TEST(CpuBaseline, StaleTableShapeIsFatal)
{
    // Adding a site without resetting the table breaks the contract in
    // application.h; the VM refuses to read a table of the wrong shape.
    Application app = suiteApps().front();
    app.sites.push_back(LoopSite{.loop = makeSadLoop("extra"),
                                 .fissioned = {},
                                 .invocations = 1,
                                 .iterations = 16});
    const VirtualMachine vm(LaConfig::proposed(), CpuConfig::arm11(),
                            VmOptions{});
    ScopedPanicGuard guard;
    EXPECT_THROW((void)vm.run(app), PanicError);
    EXPECT_THROW((void)cpuOnlyCycles(app, CpuConfig::arm11()), PanicError);
    EXPECT_NO_THROW((void)vm.run(withoutBaseline(app)));
}

}  // namespace
}  // namespace veal
