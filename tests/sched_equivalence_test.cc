/**
 * Differential schedule-equivalence suite: the optimized translation
 * kernels against the frozen reference facade (sched/reference.h).
 *
 * The hot-path overhaul's contract is that every optimization is
 * *observationally* free: same RecMII, same node order, same schedule,
 * and bit-identical CostMeter charges per phase.  1000 seeded random
 * loops drive both paths through the full kernel pipeline (RecMII ->
 * swing/height priority -> modulo scheduling) and compare everything;
 * the produced schedules must also pass the oracle-grade validator.
 */

#include <gtest/gtest.h>

#include "veal/cca/cca_mapper.h"
#include "veal/ir/loop_analysis.h"
#include "veal/ir/random_loop.h"
#include "veal/sched/mii.h"
#include "veal/sched/reference.h"
#include "veal/sched/schedule.h"
#include "veal/sched/scheduler.h"
#include "veal/vm/translator.h"

namespace veal {
namespace {

constexpr int kCases = 1000;

/** Per-phase raw work units must match exactly, not approximately. */
void
expectChargesIdentical(const CostMeter& optimized,
                       const CostMeter& reference)
{
    for (int p = 0; p < kNumTranslationPhases; ++p) {
        const auto phase = static_cast<TranslationPhase>(p);
        EXPECT_EQ(optimized.units(phase), reference.units(phase))
            << "charge drift in phase " << toString(phase);
    }
}

/** Build the scheduling problem the way translateLoop does. */
struct KernelCase {
    LoopAnalysis analysis;
    CcaMapping mapping;
    std::optional<SchedGraph> graph;
};

bool
buildCase(const Loop& loop, const LaConfig& la, KernelCase* out)
{
    out->analysis = analyzeLoop(loop);
    if (!out->analysis.ok())
        return false;
    out->mapping = la.hasCca()
                       ? mapToCca(loop, out->analysis, *la.cca,
                                  la.latencies)
                       : emptyCcaMapping(loop);
    out->graph.emplace(loop, out->analysis, out->mapping, la);
    return true;
}

TEST(SchedEquivalence, KernelsMatchReferenceOnRandomLoops)
{
    const LaConfig la = LaConfig::proposed();
    RandomLoopParams params;
    int compared = 0;

    for (std::uint64_t seed = 0; seed < kCases; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        const Loop loop = makeRandomLoop(params, seed);
        KernelCase kc;
        if (!buildCase(loop, la, &kc))
            continue;
        const SchedGraph& graph = kc.graph.value();

        CostMeter opt_meter;
        CostMeter ref_meter;

        // --- MII kernels.
        const int opt_rec = recMii(graph, &opt_meter);
        const int ref_rec = reference::recMii(graph, &ref_meter);
        ASSERT_EQ(opt_rec, ref_rec);

        const int res = resMii(graph, la);
        if (res >= LaConfig::kUnlimited)
            continue;  // Missing FU class: translation would reject.
        const int mii = std::max(res, opt_rec);

        // --- Feasibility probes agree at and below the bound.
        for (int ii = std::max(1, opt_rec - 1); ii <= opt_rec + 1; ++ii) {
            ASSERT_EQ(iiFeasible(graph, ii, &opt_meter),
                      reference::iiFeasible(graph, ii, &ref_meter));
        }

        // --- Priority: both orderings, with their exact charge trail.
        const NodeOrder opt_swing = computeSwingOrder(graph, mii,
                                                      &opt_meter);
        const NodeOrder ref_swing =
            reference::computeSwingOrder(graph, mii, &ref_meter);
        ASSERT_EQ(opt_swing.sequence, ref_swing.sequence);
        ASSERT_EQ(opt_swing.rank, ref_swing.rank);
        ASSERT_EQ(opt_swing.place_late, ref_swing.place_late);

        const NodeOrder opt_height = computeHeightOrder(graph, mii,
                                                        &opt_meter);
        const NodeOrder ref_height =
            reference::computeHeightOrder(graph, mii, &ref_meter);
        ASSERT_EQ(opt_height.sequence, ref_height.sequence);
        ASSERT_EQ(opt_height.place_late, ref_height.place_late);

        // --- The full modulo scheduler.
        SchedulerStats opt_stats;
        SchedulerStats ref_stats;
        const auto opt_schedule = scheduleLoop(graph, la, opt_swing, mii,
                                               &opt_meter, &opt_stats);
        const auto ref_schedule = reference::scheduleLoop(
            graph, la, ref_swing, mii, &ref_meter, &ref_stats);
        ASSERT_EQ(opt_schedule.has_value(), ref_schedule.has_value());
        ASSERT_EQ(opt_stats.attempted_iis, ref_stats.attempted_iis);
        ASSERT_EQ(opt_stats.placement_failures,
                  ref_stats.placement_failures);

        if (opt_schedule.has_value()) {
            // The ISSUE contract is II <= reference; the kernels are
            // deterministic twins, so assert the stronger property.
            EXPECT_LE(opt_schedule->ii, ref_schedule->ii);
            EXPECT_EQ(opt_schedule->ii, ref_schedule->ii);
            EXPECT_EQ(opt_schedule->time, ref_schedule->time);
            EXPECT_EQ(opt_schedule->fu_instance,
                      ref_schedule->fu_instance);
            EXPECT_EQ(opt_schedule->stage_count,
                      ref_schedule->stage_count);
            EXPECT_EQ(opt_schedule->length, ref_schedule->length);

            const auto error = validateSchedule(graph, la, *opt_schedule);
            EXPECT_FALSE(error.has_value()) << *error;
            ++compared;
        }

        expectChargesIdentical(opt_meter, ref_meter);
        if (::testing::Test::HasFailure())
            break;  // One diverging seed is enough to diagnose.
    }
    // The suite is vacuous if nearly everything rejects; keep a floor.
    EXPECT_GE(compared, kCases / 2);
}

TEST(SchedEquivalence, OracleGradeValidationOnProducedSchedules)
{
    // End-to-end: the production translator (all optimized kernels,
    // register-retry loop included) must emit schedules the oracle-grade
    // validator accepts, including register-file capacity.
    const LaConfig la = LaConfig::proposed();
    RandomLoopParams params;
    int validated = 0;
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        const Loop loop = makeRandomLoop(params, seed);
        const auto result =
            translateLoop(loop, la, TranslationMode::kFullyDynamic);
        if (!result.ok)
            continue;
        ASSERT_NE(result.graph, nullptr);
        const auto error =
            validateSchedule(*result.graph, la, result.schedule, loop,
                             result.analysis);
        EXPECT_FALSE(error.has_value()) << *error;
        ++validated;
    }
    EXPECT_GE(validated, 100);
}

TEST(SchedEquivalence, HeightOrderScheduleMatchesReference)
{
    // The height path (fully-dynamic-height mode, swing fallback) diffed
    // the same way, on a spread of seeds.
    const LaConfig la = LaConfig::proposed();
    RandomLoopParams params;
    for (std::uint64_t seed = 2000; seed < 2100; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        const Loop loop = makeRandomLoop(params, seed);
        KernelCase kc;
        if (!buildCase(loop, la, &kc))
            continue;
        const SchedGraph& graph = kc.graph.value();
        const int res = resMii(graph, la);
        if (res >= LaConfig::kUnlimited)
            continue;

        CostMeter opt_meter;
        CostMeter ref_meter;
        const int mii = std::max(res, recMii(graph, &opt_meter));
        ASSERT_EQ(mii, std::max(res, reference::recMii(graph,
                                                       &ref_meter)));
        const NodeOrder opt_order =
            computeHeightOrder(graph, mii, &opt_meter);
        const NodeOrder ref_order =
            reference::computeHeightOrder(graph, mii, &ref_meter);
        const auto opt_schedule =
            scheduleLoop(graph, la, opt_order, mii, &opt_meter);
        const auto ref_schedule = reference::scheduleLoop(
            graph, la, ref_order, mii, &ref_meter);
        ASSERT_EQ(opt_schedule.has_value(), ref_schedule.has_value());
        if (opt_schedule.has_value()) {
            EXPECT_EQ(opt_schedule->ii, ref_schedule->ii);
            EXPECT_EQ(opt_schedule->time, ref_schedule->time);
        }
        expectChargesIdentical(opt_meter, ref_meter);
        if (::testing::Test::HasFailure())
            break;
    }
}

}  // namespace
}  // namespace veal
