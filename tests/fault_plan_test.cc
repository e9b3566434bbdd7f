#include "veal/fault/fault_plan.h"

#include <set>

#include <gtest/gtest.h>

#include "veal/fault/fault_injector.h"

namespace veal {
namespace {

TEST(FaultPlan, SampleIsDeterministic)
{
    const FaultPlan a = FaultPlan::sample(42);
    const FaultPlan b = FaultPlan::sample(42);
    EXPECT_EQ(a.describe(), b.describe());
    EXPECT_EQ(a.faults.size(), b.faults.size());
    EXPECT_EQ(a.translation_budget, b.translation_budget);
    EXPECT_EQ(a.quarantine_strikes, b.quarantine_strikes);
    EXPECT_EQ(a.retranslation_bound, b.retranslation_bound);
}

TEST(FaultPlan, SampleSpaceCoversEverySite)
{
    std::set<FaultSite> sites;
    bool saw_budget = false;
    bool saw_sticky = false;
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        const FaultPlan plan = FaultPlan::sample(seed);
        EXPECT_TRUE(plan.armed()) << plan.describe();
        EXPECT_GE(plan.quarantine_strikes, 2);
        EXPECT_LE(plan.quarantine_strikes, 3);
        EXPECT_GE(plan.retranslation_bound, plan.quarantine_strikes - 1);
        saw_budget |= plan.translation_budget >= 0;
        for (const auto& fault : plan.faults) {
            sites.insert(fault.site);
            saw_sticky |= fault.fires < 0;
            EXPECT_GE(fault.first_fire, 0);
        }
    }
    EXPECT_EQ(static_cast<int>(sites.size()), kNumFaultSites - 1)
        << "every probe-window site should be drawn (the budget is a "
           "scalar, not a window)";
    EXPECT_TRUE(saw_budget);
    EXPECT_TRUE(saw_sticky);
}

TEST(FaultPlan, DescribeNamesEveryArmedFault)
{
    FaultPlan plan;
    plan.seed = 9;
    plan.faults.push_back(
        ArmedFault{FaultSite::kSchedulerPlacement, 1, 2});
    plan.faults.push_back(ArmedFault{FaultSite::kCacheCorruption, 0, -1});
    plan.translation_budget = 5000;
    const std::string text = plan.describe();
    EXPECT_NE(text.find("scheduler-placement@1x2"), std::string::npos)
        << text;
    EXPECT_NE(text.find("cache-corruption@0+sticky"), std::string::npos)
        << text;
    EXPECT_NE(text.find("budget=5000"), std::string::npos) << text;
}

TEST(FaultInjector, FiresExactlyInsideTheArmedWindow)
{
    FaultPlan plan;
    plan.faults.push_back(
        ArmedFault{FaultSite::kSchedulerPlacement, 1, 2});
    FaultInjector injector(plan);

    EXPECT_FALSE(injector.probe(FaultSite::kSchedulerPlacement));  // 0
    EXPECT_TRUE(injector.probe(FaultSite::kSchedulerPlacement));   // 1
    EXPECT_TRUE(injector.probe(FaultSite::kSchedulerPlacement));   // 2
    EXPECT_FALSE(injector.probe(FaultSite::kSchedulerPlacement));  // 3
    EXPECT_EQ(injector.fired(FaultSite::kSchedulerPlacement), 2);
    EXPECT_EQ(injector.probes(FaultSite::kSchedulerPlacement), 4);

    // Other sites are unaffected by this window.
    EXPECT_FALSE(injector.probe(FaultSite::kRegisterAllocation));
    EXPECT_EQ(injector.fired(FaultSite::kRegisterAllocation), 0);
    EXPECT_EQ(injector.totalFired(), 2);
}

TEST(FaultInjector, StickyFaultFiresForever)
{
    FaultPlan plan;
    plan.faults.push_back(ArmedFault{FaultSite::kCcaMapping, 2, -1});
    FaultInjector injector(plan);
    EXPECT_FALSE(injector.probe(FaultSite::kCcaMapping));
    EXPECT_FALSE(injector.probe(FaultSite::kCcaMapping));
    for (int i = 0; i < 50; ++i)
        EXPECT_TRUE(injector.probe(FaultSite::kCcaMapping));
    EXPECT_EQ(injector.fired(FaultSite::kCcaMapping), 50);
}

TEST(FaultInjector, BudgetReliefDoublesTheAllowancePerRung)
{
    FaultPlan plan;
    plan.translation_budget = 100;
    FaultInjector injector(plan);

    EXPECT_FALSE(injector.budgetExceeded(99.0, 0));
    EXPECT_TRUE(injector.budgetExceeded(101.0, 0));
    // relief=1 doubles the allowance to 200; relief=2 to 400.
    EXPECT_FALSE(injector.budgetExceeded(150.0, 1));
    EXPECT_TRUE(injector.budgetExceeded(250.0, 1));
    EXPECT_FALSE(injector.budgetExceeded(399.0, 2));
    EXPECT_EQ(injector.fired(FaultSite::kTranslationBudget), 2);
}

TEST(FaultInjector, UnarmedBudgetNeverFires)
{
    FaultInjector injector(FaultPlan{});
    EXPECT_FALSE(injector.budgetExceeded(1e18, 0));
    EXPECT_EQ(injector.fired(FaultSite::kTranslationBudget), 0);
}

TEST(FaultInjector, CorruptionBitIsBoundedAndPlanDeterministic)
{
    FaultPlan plan;
    plan.seed = 77;
    FaultInjector a(plan);
    FaultInjector b(plan);
    for (int i = 0; i < 100; ++i) {
        const std::size_t bit_a = a.corruptionBit(96);
        EXPECT_LT(bit_a, 96u);
        EXPECT_EQ(bit_a, b.corruptionBit(96))
            << "same plan must corrupt the same bits";
    }
}

}  // namespace
}  // namespace veal
