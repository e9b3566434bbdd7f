/**
 * Regression locks for the reproduction's calibrated quantities: the
 * Figure 8 translation-cost distribution and the translator's
 * height-order fallback for wedge-prone swing orders.
 */

#include <gtest/gtest.h>

#include "veal/ir/random_loop.h"
#include "veal/vm/translator.h"
#include "veal/workloads/suite.h"

namespace veal {
namespace {

TEST(CalibrationTest, Figure8SuiteAverageNearThePaper)
{
    const auto suite = mediaFpSuite();
    const LaConfig la = LaConfig::proposed();
    CostMeter total;
    int loops = 0;
    for (const auto& benchmark : suite) {
        for (const auto& site : benchmark.transformed.sites) {
            std::vector<const Loop*> pieces;
            if (site.fissioned.empty()) {
                pieces.push_back(&site.loop);
            } else {
                for (const auto& piece : site.fissioned)
                    pieces.push_back(&piece);
            }
            for (const Loop* loop : pieces) {
                const auto result = translateLoop(
                    *loop, la, TranslationMode::kFullyDynamic);
                if (!result.ok)
                    continue;
                total.add(result.meter);
                ++loops;
            }
        }
    }
    ASSERT_GT(loops, 20);
    const double average = total.totalInstructions() / loops;
    // Paper: ~99,716 instructions/loop on average.
    EXPECT_GT(average, 60000.0);
    EXPECT_LT(average, 140000.0);

    // Paper: priority 69%, CCA 20%, scheduling < 3%.
    const double priority =
        total.instructions(TranslationPhase::kPriority) /
        total.totalInstructions();
    const double cca = total.instructions(TranslationPhase::kCcaMapping) /
                       total.totalInstructions();
    const double sched =
        total.instructions(TranslationPhase::kScheduling) /
        total.totalInstructions();
    EXPECT_GT(priority, 0.55);
    EXPECT_LT(priority, 0.80);
    EXPECT_GT(cca, 0.10);
    EXPECT_LT(cca, 0.30);
    EXPECT_LT(sched, 0.06);
}

TEST(CalibrationTest, MiiPhaseIsCheapAsThePaperMeasures)
{
    // Paper: ResMII + RecMII together are ~1.25k of ~100k instructions --
    // the reason they stay dynamic (architectural independence is cheap).
    // Pick the first seed that maps onto the proposed LA.
    TranslationResult result;
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
        Loop loop = makeRandomLoop(RandomLoopParams{}, seed);
        result = translateLoop(loop, LaConfig::proposed(),
                               TranslationMode::kFullyDynamic);
        if (result.ok)
            break;
    }
    ASSERT_TRUE(result.ok);
    EXPECT_LT(result.meter.instructions(TranslationPhase::kMiiComputation),
              0.10 * result.meter.totalInstructions());
}

TEST(FallbackTest, WedgedSwingOrdersFallBackToHeightAndSucceed)
{
    // These seeds historically wedge the swing placement (a node pinched
    // between neighbours placed in opposite sweep directions at every
    // II); the translator must recover via the height order rather than
    // rejecting the loop.
    for (const std::uint64_t seed : {100ull, 102ull, 109ull, 119ull}) {
        RandomLoopParams params;
        Loop loop = makeRandomLoop(params, seed);
        const auto result = translateLoop(loop, LaConfig::infinite(),
                                          TranslationMode::kFullyDynamic);
        EXPECT_TRUE(result.ok) << "seed " << seed << ": "
                               << toString(result.reject);
        if (result.ok) {
            ASSERT_NE(result.graph, nullptr);
            EXPECT_FALSE(validateSchedule(*result.graph,
                                          LaConfig::infinite(),
                                          result.schedule)
                             .has_value());
        }
    }
}

TEST(FallbackTest, FallbackChargesTheExtraPriorityPass)
{
    RandomLoopParams params;
    Loop wedged = makeRandomLoop(params, 100);
    const auto result = translateLoop(wedged, LaConfig::infinite(),
                                      TranslationMode::kFullyDynamic);
    ASSERT_TRUE(result.ok);
    // Both the swing ordering and the fallback height pass were metered.
    EXPECT_GT(result.meter.units(TranslationPhase::kPriority), 0u);
    EXPECT_GT(result.meter.units(TranslationPhase::kScheduling), 0u);
}

}  // namespace
}  // namespace veal
