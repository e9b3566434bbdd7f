/**
 * Golden reproduction of the paper's worked example (Figure 5 / Figure 9):
 * a 15-op loop with two 4-cycle recurrences, where ops 5-6-8 collapse into
 * one CCA instruction, ops 7 and 10 must NOT merge (it would lengthen the
 * mpy recurrence), RecMII = 4, ResMII = 3, and the loop schedules at
 * II = 4 with op 10 in a later pipeline stage.
 */

#include <gtest/gtest.h>

#include "veal/ir/loop_builder.h"
#include "veal/sched/mii.h"
#include "veal/vm/translator.h"

namespace veal {
namespace {

struct Figure5 {
    Loop loop;
    OpId op1, op2, op3, op4, op5, op6, op7, op8, op9, op10, op11, op12;
    OpId induction;
};

Figure5
makeFigure5Loop()
{
    LoopBuilder b("figure5");
    b.setTripCount(1024);
    const OpId i = b.induction(1);           // paper op 13
    const OpId c16 = b.constant(16);
    const OpId c5 = b.constant(5);
    const OpId c1 = b.constant(1);
    const OpId c3 = b.constant(3);
    const OpId c32 = b.constant(32);

    const OpId a1 = b.add(i, c16);           // op 1: load address
    const OpId x = b.load("in", a1);         // op 2
    // Recurrence A: 3 -> (5,6,8) -> 9 -> 3 (distance 1).
    const OpId shl = b.shl(LoopBuilder::carried(kNoOp, 0), c1);  // op 3
    const OpId andv = b.andOp(shl, x);                           // op 5
    const OpId subv = b.sub(x, c5);                              // op 6
    const OpId xorv = b.xorOp(andv, subv);                       // op 8
    const OpId shr = b.shr(xorv, c1);                            // op 9
    b.loop().mutableOp(shl).inputs[0] = LoopBuilder::carried(shr, 1);
    // Recurrence B: 4 -> 7 -> 4 (distance 1); mpy takes 3 cycles.
    const OpId mpy = b.mul(LoopBuilder::carried(kNoOp, 0), c3);  // op 4
    const OpId orv = b.orOp(mpy, x);                             // op 7
    b.loop().mutableOp(mpy).inputs[0] = LoopBuilder::carried(orv, 1);

    const OpId add10 = b.add(orv, shr);      // op 10
    const OpId a11 = b.add(i, c32);          // op 11: store address
    const OpId st = b.store("out", a11, add10);  // op 12
    b.loopBack(i, b.constant(1024));         // ops 14, 15

    return Figure5{b.build(), a1, x, shl, mpy, andv, subv, orv,
                   xorv, shr, add10, a11, st, i};
}

class Figure5Test : public ::testing::Test {
  protected:
    Figure5 f_ = makeFigure5Loop();
    LaConfig la_ = LaConfig::proposed();
};

TEST_F(Figure5Test, AnalysisSeparatesAddressesAndControl)
{
    const auto analysis = analyzeLoop(f_.loop);
    ASSERT_TRUE(analysis.ok());
    EXPECT_EQ(analysis.roles[static_cast<std::size_t>(f_.op1)],
              OpRole::kAddress);
    EXPECT_EQ(analysis.roles[static_cast<std::size_t>(f_.op11)],
              OpRole::kAddress);
    EXPECT_EQ(analysis.roles[static_cast<std::size_t>(f_.induction)],
              OpRole::kControl);
    EXPECT_EQ(analysis.load_streams.size(), 1u);
    EXPECT_EQ(analysis.store_streams.size(), 1u);
    EXPECT_EQ(analysis.load_streams[0].offset, 16);
    EXPECT_EQ(analysis.store_streams[0].offset, 32);
}

TEST_F(Figure5Test, CcaMappingCollapsesOps568Only)
{
    // Paper: "ops 5-6-8 were collapsed into a single CCA instruction";
    // "Ops 7 and 10 could legally be combined; however, doing so would
    // lengthen one of the recurrence cycles".
    const auto analysis = analyzeLoop(f_.loop);
    const auto mapping =
        mapToCca(f_.loop, analysis, *la_.cca, la_.latencies);
    ASSERT_EQ(mapping.groups.size(), 1u);
    EXPECT_EQ(mapping.groups[0].members,
              (std::vector<OpId>{f_.op5, f_.op6, f_.op8}));
    EXPECT_EQ(mapping.group_of_op[static_cast<std::size_t>(f_.op7)], -1);
    EXPECT_EQ(mapping.group_of_op[static_cast<std::size_t>(f_.op10)], -1);
}

TEST_F(Figure5Test, RecMiiIsFourFromBothRecurrences)
{
    const auto analysis = analyzeLoop(f_.loop);
    const auto mapping =
        mapToCca(f_.loop, analysis, *la_.cca, la_.latencies);
    const SchedGraph graph(f_.loop, analysis, mapping, la_);
    // 3 -> CCA{5,6,8} -> 9 -> 3: 1 + 2 + 1 = 4; 4 -> 7 -> 4: 3 + 1 = 4.
    EXPECT_EQ(recMii(graph), 4);
}

TEST_F(Figure5Test, ResMiiIsThreeFromFiveIntegerOps)
{
    // Paper: "there are 5 integer instructions in the loop (3, 4, 7, 9,
    // and 10) and 2 integer units, II must be at least ceil(5/2) = 3".
    const auto analysis = analyzeLoop(f_.loop);
    const auto mapping =
        mapToCca(f_.loop, analysis, *la_.cca, la_.latencies);
    const SchedGraph graph(f_.loop, analysis, mapping, la_);
    EXPECT_EQ(resMii(graph, la_), 3);
}

TEST_F(Figure5Test, SchedulesAtIiFourWithOp10InLaterStage)
{
    const auto result =
        translateLoop(f_.loop, la_, TranslationMode::kFullyDynamic);
    ASSERT_TRUE(result.ok) << toString(result.reject) << ": "
                           << result.reject_detail;
    EXPECT_EQ(result.mii, 4);
    EXPECT_EQ(result.schedule.ii, 4);
    ASSERT_NE(result.graph, nullptr);
    EXPECT_FALSE(
        validateSchedule(*result.graph, la_, result.schedule).has_value());

    // Op 10 depends on both recurrences' outputs; the paper schedules it
    // at time 5, i.e. in a later stage than the recurrence bodies.
    const int unit10 = result.graph->unitOf(f_.op10);
    EXPECT_GE(result.schedule.stageOf(unit10), 1);
    EXPECT_GE(result.schedule.stage_count, 2);
}

TEST_F(Figure5Test, SchedulesAtIiFourWithoutCcaToo)
{
    // Without a CCA the recurrence is 4 unit-latency ops (still 4) and
    // ResMII is ceil(8/2) = 4: the loop still reaches II = 4.
    LaConfig no_cca = la_;
    no_cca.num_cca_units = 0;
    no_cca.cca.reset();
    const auto result =
        translateLoop(f_.loop, no_cca, TranslationMode::kFullyDynamic);
    ASSERT_TRUE(result.ok);
    EXPECT_EQ(result.schedule.ii, 4);
}

TEST_F(Figure5Test, HybridAnnotationsReproduceTheSameIi)
{
    const auto annotations = precompileAnnotations(f_.loop, la_);
    ASSERT_TRUE(annotations.cca_mapping.has_value());
    ASSERT_TRUE(annotations.op_priority.has_value());
    const auto hybrid = translateLoop(
        f_.loop, la_, TranslationMode::kHybridStaticCcaPriority,
        &annotations);
    ASSERT_TRUE(hybrid.ok);
    EXPECT_EQ(hybrid.schedule.ii, 4);
    // The hybrid translator skips the expensive phases: it must be much
    // cheaper than the fully dynamic one.
    const auto dynamic =
        translateLoop(f_.loop, la_, TranslationMode::kFullyDynamic);
    EXPECT_LT(hybrid.meter.totalInstructions(),
              0.5 * dynamic.meter.totalInstructions());
}

TEST_F(Figure5Test, RegisterDemandIsModest)
{
    const auto result =
        translateLoop(f_.loop, la_, TranslationMode::kFullyDynamic);
    ASSERT_TRUE(result.ok);
    EXPECT_LE(result.registers.int_regs_used, 8);
    EXPECT_EQ(result.registers.fp_regs_used, 0);
}

}  // namespace
}  // namespace veal
