/**
 * Property-based validation of the whole scheduling stack: random loops
 * are translated against several accelerator configurations, and every
 * produced schedule must satisfy every modulo-scheduling invariant.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "veal/ir/random_loop.h"
#include "veal/sched/mii.h"
#include "veal/vm/translator.h"

namespace veal {
namespace {

struct PropertyCase {
    std::uint64_t seed;
    TranslationMode mode;
};

void
PrintTo(const PropertyCase& c, std::ostream* os)
{
    *os << "seed=" << c.seed << " mode=" << toString(c.mode);
}

class ScheduleProperty : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(ScheduleProperty, TranslationsAreValidOrCleanlyRejected)
{
    const auto& param = GetParam();
    RandomLoopParams params;
    Loop loop = makeRandomLoop(params, param.seed);
    const LaConfig la = LaConfig::proposed();

    StaticAnnotations annotations;
    const StaticAnnotations* annotations_ptr = nullptr;
    if (param.mode == TranslationMode::kHybridStaticCcaPriority) {
        annotations = precompileAnnotations(loop, la);
        annotations_ptr = &annotations;
    }
    const auto result =
        translateLoop(loop, la, param.mode, annotations_ptr);
    if (!result.ok) {
        EXPECT_NE(result.reject, TranslationReject::kNone);
        return;
    }

    // The full validator: dependences, resources, II bounds, fields, and
    // register-file capacity via the allocator's live ranges.
    ASSERT_NE(result.graph, nullptr);
    const auto error = validateSchedule(*result.graph, la, result.schedule,
                                        loop, result.analysis);
    EXPECT_FALSE(error.has_value()) << *error;

    // II is sandwiched between MII and max_ii.
    EXPECT_GE(result.schedule.ii, 1);
    EXPECT_LE(result.schedule.ii, la.max_ii);

    // Register files respected.
    EXPECT_LE(result.registers.int_regs_used, la.num_int_registers);
    EXPECT_LE(result.registers.fp_regs_used, la.num_fp_registers);

    // Metered work is non-zero in every dynamic mode.
    EXPECT_GT(result.meter.totalInstructions(), 0.0);
}

TEST_P(ScheduleProperty, MiiIsALowerBoundForTheAchievedIi)
{
    const auto& param = GetParam();
    RandomLoopParams params;
    Loop loop = makeRandomLoop(params, param.seed);
    const LaConfig la = LaConfig::proposed();
    const auto result = translateLoop(loop, la, param.mode);
    if (!result.ok)
        return;
    EXPECT_GE(result.schedule.ii, result.mii);
}

std::vector<PropertyCase>
makeCases()
{
    std::vector<PropertyCase> cases;
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        const auto mode =
            seed % 3 == 0
                ? TranslationMode::kFullyDynamic
                : (seed % 3 == 1
                       ? TranslationMode::kFullyDynamicHeight
                       : TranslationMode::kHybridStaticCcaPriority);
        cases.push_back(PropertyCase{seed, mode});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomLoops, ScheduleProperty,
                         ::testing::ValuesIn(makeCases()));

class InfiniteResourceProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InfiniteResourceProperty, InfiniteMachineTracksRecMii)
{
    // With unlimited resources the only hard limit is the recurrence
    // bound.  SMS is a heuristic and can occasionally need an extra II or
    // two even with free resources, so allow a small slack.
    RandomLoopParams params;
    Loop loop = makeRandomLoop(params, GetParam());
    const LaConfig la = LaConfig::infinite();
    const auto result =
        translateLoop(loop, la, TranslationMode::kFullyDynamic);
    ASSERT_TRUE(result.ok) << toString(result.reject);
    ASSERT_NE(result.graph, nullptr);
    const int rec = recMii(*result.graph);
    EXPECT_GE(result.schedule.ii, rec);
    // Usually the II lands on RecMII exactly; the height-order fallback
    // (used when the swing placement wedges) can cost noticeably more.
    EXPECT_LE(result.schedule.ii, std::max(3 * rec + 4, 16));
}

TEST_P(InfiniteResourceProperty, FiniteNeverBeatsInfiniteByMuch)
{
    // The finite machine's MII floor is never below the infinite one;
    // the list scheduler's placement luck can differ by a cycle or two.
    RandomLoopParams params;
    Loop loop = makeRandomLoop(params, GetParam());
    const auto infinite =
        translateLoop(loop, LaConfig::infinite(),
                      TranslationMode::kFullyDynamic);
    const auto finite = translateLoop(loop, LaConfig::proposed(),
                                      TranslationMode::kFullyDynamic);
    ASSERT_TRUE(infinite.ok);
    if (!finite.ok)
        return;
    EXPECT_LE(infinite.mii, finite.mii);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InfiniteResourceProperty,
                         ::testing::Range<std::uint64_t>(100, 130));

}  // namespace
}  // namespace veal
