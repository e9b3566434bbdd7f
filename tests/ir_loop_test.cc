#include "veal/ir/loop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "veal/ir/loop_builder.h"

namespace veal {
namespace {

Loop
makeSimpleLoop()
{
    LoopBuilder b("simple");
    const OpId iv = b.induction(1);
    const OpId x = b.load("in", iv);
    const OpId c = b.constant(3);
    const OpId y = b.mul(x, c);
    b.store("out", iv, y);
    b.loopBack(iv, b.constant(100));
    return b.build();
}

TEST(LoopBuilderTest, BuildsVerifiableLoop)
{
    Loop loop = makeSimpleLoop();
    EXPECT_FALSE(loop.verify().has_value());
    // step const + iv + ld + c + mul + st + bound const + cmp + br.
    EXPECT_EQ(loop.size(), 9);
}

TEST(LoopBuilderTest, InductionHasSelfEdgeAtDistanceOne)
{
    LoopBuilder b("iv");
    const OpId iv = b.induction(4);
    b.loopBack(iv, b.constant(10));
    Loop loop = b.build();
    const Operation& op = loop.op(iv);
    EXPECT_TRUE(op.is_induction);
    ASSERT_EQ(op.inputs.size(), 2u);
    EXPECT_EQ(op.inputs[0].producer, iv);
    EXPECT_EQ(op.inputs[0].distance, 1);
    // The step constant is 4.
    EXPECT_EQ(loop.op(op.inputs[1].producer).immediate, 4);
}

TEST(LoopBuilderTest, CallMarksFeature)
{
    LoopBuilder b("call");
    const OpId iv = b.induction(1);
    const OpId x = b.load("in", iv);
    b.call("sin", {Operand{x, 0}});
    b.loopBack(iv, b.constant(10));
    Loop loop = b.build();
    EXPECT_EQ(loop.feature(), LoopFeature::kHasSubroutineCall);
}

TEST(LoopTest, AllEdgesIncludesDataAndMemoryEdges)
{
    LoopBuilder b("edges");
    const OpId iv = b.induction(1);
    const OpId x = b.load("a", iv);
    const OpId st = b.store("a", iv, x);
    b.memoryEdge(st, x, 1);  // Store feeds next iteration's load.
    b.loopBack(iv, b.constant(10));
    Loop loop = b.build();

    const auto edges = loop.allEdges();
    const bool has_memory_edge = std::any_of(
        edges.begin(), edges.end(), [&](const DepEdge& edge) {
            return edge.is_memory && edge.from == st && edge.to == x &&
                   edge.distance == 1;
        });
    EXPECT_TRUE(has_memory_edge);
}

TEST(LoopTest, UseListsInvertOperands)
{
    Loop loop = makeSimpleLoop();
    const auto uses = loop.useLists();
    // Find the load; its value must be used by the multiply.
    for (const auto& op : loop.operations()) {
        if (op.opcode != Opcode::kLoad)
            continue;
        bool used_by_mul = false;
        for (const auto& use : uses[static_cast<std::size_t>(op.id)])
            used_by_mul |= loop.op(use.producer).opcode == Opcode::kMul;
        EXPECT_TRUE(used_by_mul);
    }
}

TEST(LoopTest, TopologicalOrderRespectsIntraIterationEdges)
{
    Loop loop = makeSimpleLoop();
    const auto order = loop.topologicalOrder();
    ASSERT_EQ(static_cast<int>(order.size()), loop.size());
    std::vector<int> position(order.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        position[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
    for (const auto& edge : loop.allEdges()) {
        if (edge.distance != 0)
            continue;
        EXPECT_LT(position[static_cast<std::size_t>(edge.from)],
                  position[static_cast<std::size_t>(edge.to)]);
    }
}

TEST(LoopVerifyTest, DetectsUndefinedProducer)
{
    Loop loop("bad");
    Operation op;
    op.opcode = Opcode::kAdd;
    op.inputs = {Operand{5, 0}, Operand{6, 0}};
    loop.addOperation(std::move(op));
    EXPECT_TRUE(loop.verify().has_value());
}

TEST(LoopVerifyTest, DetectsZeroDistanceCycle)
{
    Loop loop("cycle");
    Operation a;
    a.opcode = Opcode::kAdd;
    loop.addOperation(std::move(a));
    Operation b;
    b.opcode = Opcode::kAdd;
    loop.addOperation(std::move(b));
    loop.mutableOp(0).inputs = {Operand{1, 0}};
    loop.mutableOp(1).inputs = {Operand{0, 0}};
    const auto error = loop.verify();
    ASSERT_TRUE(error.has_value());
    EXPECT_NE(error->find("cycle"), std::string::npos);
}

/** An unverified loop of (opcode, inputs) ops plus @p memory edges. */
Loop
rawLoop(const std::vector<std::pair<Opcode, std::vector<Operand>>>& ops,
        const std::vector<DepEdge>& memory = {})
{
    Loop loop("raw");
    for (const auto& [opcode, inputs] : ops) {
        Operation op;
        op.opcode = opcode;
        op.inputs = inputs;
        loop.addOperation(std::move(op));
    }
    for (const DepEdge& edge : memory)
        loop.addMemoryEdge(edge.from, edge.to, edge.distance);
    return loop;
}

TEST(LoopVerifyTest, NamesTheFirstCycleTheWalkCloses)
{
    // Two distance-0 cycles leave op 1: 1 -> 2 -> 1, closed only by the
    // memory edge from the store back to the load, and 3 -> 4 -> 3,
    // entered over the memory edge 1 -> 3 and closed by the memory edge
    // 4 -> 3.  The walk starts at op 0 and takes each op's data
    // successors (in operand order) before its memory ones, so it
    // closes the first cycle, at op 1.
    const Loop memory = rawLoop(
        {{Opcode::kConst, {}},
         {Opcode::kLoad, {{0, 0}}},
         {Opcode::kStore, {{0, 0}, {1, 0}}},
         {Opcode::kLoad, {{0, 0}}},
         {Opcode::kStore, {{0, 0}, {3, 0}}}},
        {{1, 3, 0, true}, {2, 1, 0, true}, {4, 3, 0, true}});
    EXPECT_EQ(memory.verify(),
              "distance-0 dependence cycle through op 1");

    // Roots go in id order: the data cycle 0 <-> 1 is found before the
    // memory-closed one at ops 3 and 4.
    const Loop data = rawLoop(
        {{Opcode::kAdd, {{1, 0}}},
         {Opcode::kAdd, {{0, 0}}},
         {Opcode::kConst, {}},
         {Opcode::kLoad, {{2, 0}}},
         {Opcode::kStore, {{2, 0}, {3, 0}}}},
        {{4, 3, 0, true}});
    EXPECT_EQ(data.verify(), "distance-0 dependence cycle through op 0");

    // A finished op is not a cycle: root 0 finishes 0 -> 1 -> 2 and
    // 0 -> 6 -> 7, and root 3 passes finished op 1 before it closes
    // 3 -> 4 -> 5 -> 3.  The carried data edge 2 -> 0 and the carried
    // memory edge 7 -> 6 close nothing.
    const Loop finished = rawLoop(
        {{Opcode::kAdd, {{2, 1}}},
         {Opcode::kAdd, {{0, 0}, {3, 0}}},
         {Opcode::kAdd, {{1, 0}}},
         {Opcode::kAdd, {{5, 0}}},
         {Opcode::kAdd, {{3, 0}}},
         {Opcode::kAdd, {{4, 0}}},
         {Opcode::kLoad, {{0, 0}}},
         {Opcode::kStore, {{0, 0}, {6, 0}}}},
        {{7, 6, 1, true}});
    EXPECT_EQ(finished.verify(),
              "distance-0 dependence cycle through op 3");
}

TEST(LoopVerifyTest, AcceptsCarriedCycle)
{
    Loop loop("carried");
    Operation a;
    a.opcode = Opcode::kAdd;
    loop.addOperation(std::move(a));
    Operation b;
    b.opcode = Opcode::kAdd;
    loop.addOperation(std::move(b));
    loop.mutableOp(0).inputs = {Operand{1, 1}};  // Across iterations: OK.
    loop.mutableOp(1).inputs = {Operand{0, 0}};
    EXPECT_FALSE(loop.verify().has_value());
}

TEST(LoopVerifyTest, DetectsMalformedStore)
{
    Loop loop("badstore");
    Operation store;
    store.opcode = Opcode::kStore;
    loop.addOperation(std::move(store));
    const auto error = loop.verify();
    ASSERT_TRUE(error.has_value());
    EXPECT_NE(error->find("store"), std::string::npos);
}

TEST(LoopVerifyTest, DetectsValueSourceWithInputs)
{
    Loop loop("badconst");
    Operation c;
    c.opcode = Opcode::kConst;
    loop.addOperation(std::move(c));
    Operation c2;
    c2.opcode = Opcode::kConst;
    loop.addOperation(std::move(c2));
    loop.mutableOp(1).inputs = {Operand{0, 0}};
    EXPECT_TRUE(loop.verify().has_value());
}

TEST(LoopVerifyTest, DetectsDoubleBranch)
{
    LoopBuilder b("twobr");
    const OpId iv = b.induction(1);
    b.loopBack(iv, b.constant(5));
    Operation extra;
    extra.opcode = Opcode::kBranch;
    extra.inputs = {Operand{iv, 0}};
    b.loop().addOperation(std::move(extra));
    EXPECT_TRUE(b.loop().verify().has_value());
}

TEST(LoopTest, DotOutputMentionsEveryOp)
{
    Loop loop = makeSimpleLoop();
    const std::string dot = loop.toDot();
    for (const auto& op : loop.operations()) {
        EXPECT_NE(dot.find("n" + std::to_string(op.id)),
                  std::string::npos);
    }
    EXPECT_NE(dot.find("digraph"), std::string::npos);
}

TEST(LoopTest, CountOpsFiltersByPredicate)
{
    Loop loop = makeSimpleLoop();
    const int loads = loop.countOps([](const Operation& op) {
        return op.opcode == Opcode::kLoad;
    });
    EXPECT_EQ(loads, 1);
}

}  // namespace
}  // namespace veal
