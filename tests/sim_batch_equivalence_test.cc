/**
 * Differential tests for the batched simulation engine.
 *
 * BatchSimulator's contract is bit-identity with the frozen reference
 * simulators in veal/sim/reference.h: cycle counts (including the
 * cycles-per-iteration double, compared bit for bit), architectural
 * memory images and live-outs, and per-phase LA invocation charges --
 * for any batch width and any grouping of lanes.  These tests sweep
 * 1000 seeded random fuzz loops plus the edge widths (a batch of one,
 * a ragged final batch, mixed trip counts) and the interpreter's
 * dense-window overflow paths.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "tests/testing/random_workloads.h"
#include "veal/arch/la_config.h"
#include "veal/fuzz/driver.h"
#include "veal/fuzz/oracle.h"
#include "veal/ir/loop_builder.h"
#include "veal/sim/batch.h"
#include "veal/sim/reference.h"
#include "veal/vm/translator.h"

namespace veal {
namespace {

constexpr std::uint64_t kCampaignSeed = 0xba7c4ull;
constexpr int kLoops = 1000;

Loop
caseLoop(int index)
{
    return testing::caseLoop(kCampaignSeed, index);
}

void
expectSameTiming(const CpuLoopTiming& batched,
                 const CpuLoopTiming& scalar, int index)
{
    EXPECT_EQ(batched.total_cycles, scalar.total_cycles)
        << "case " << index;
    // The steady-state rate is a double produced by the same division;
    // require bit identity, not closeness.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(batched.cycles_per_iteration),
              std::bit_cast<std::uint64_t>(scalar.cycles_per_iteration))
        << "case " << index;
}

TEST(SimBatchEquivalence, CpuTimingMatchesReferenceOver1000Loops)
{
    const CpuConfig cpu = CpuConfig::arm11();
    std::vector<Loop> loops;
    std::vector<CpuSimRequest> requests;
    loops.reserve(kLoops);
    for (int i = 0; i < kLoops; ++i) {
        loops.push_back(caseLoop(i));
        requests.push_back({&loops.back(), loops.back().tripCount()});
    }
    // (vector growth invalidates nothing: requests point at loops,
    // which was reserved up front.)
    const auto batched = simulateCpuBatch(cpu, requests);
    ASSERT_EQ(batched.size(), requests.size());
    for (int i = 0; i < kLoops; ++i) {
        const auto scalar = reference::simulateLoopOnCpu(
            loops[static_cast<std::size_t>(i)], cpu,
            requests[static_cast<std::size_t>(i)].iterations);
        expectSameTiming(batched[static_cast<std::size_t>(i)], scalar,
                         i);
    }
}

TEST(SimBatchEquivalence, CpuTimingIndependentOfBatchWidth)
{
    const CpuConfig cpu = CpuConfig::arm11();
    constexpr int kCases = 200;
    const std::vector<Loop> loops = testing::caseLoops(kCampaignSeed,
                                                       kCases);
    const auto iterationsFor = [&](int i) {
        return testing::edgeTripIterations(loops, i);
    };

    std::vector<CpuLoopTiming> whole;
    for (int i = 0; i < kCases; ++i) {
        const std::vector<CpuSimRequest> one = {
            {&loops[static_cast<std::size_t>(i)], iterationsFor(i)}};
        whole.push_back(simulateCpuBatch(cpu, one)[0]);
    }

    // Width 16 and 64 (64 leaves a ragged final batch of 200 % 64 = 8),
    // one reused simulator across chunks.
    for (const int width : {16, 64}) {
        BatchSimulator simulator;
        std::vector<CpuLoopTiming> chunked;
        for (int begin = 0; begin < kCases; begin += width) {
            std::vector<CpuSimRequest> chunk;
            for (int i = begin; i < std::min(begin + width, kCases); ++i)
                chunk.push_back({&loops[static_cast<std::size_t>(i)],
                                 iterationsFor(i)});
            const auto part = simulator.simulateCpuBatch(cpu, chunk);
            chunked.insert(chunked.end(), part.begin(), part.end());
        }
        ASSERT_EQ(chunked.size(), whole.size()) << "width " << width;
        for (int i = 0; i < kCases; ++i) {
            expectSameTiming(chunked[static_cast<std::size_t>(i)],
                             whole[static_cast<std::size_t>(i)], i);
        }
    }
}

TEST(SimBatchEquivalence, InterpretationMatchesReferenceOver1000Loops)
{
    std::vector<Loop> loops;
    std::vector<ExecutionInput> inputs;
    loops.reserve(kLoops);
    inputs.reserve(kLoops);
    std::vector<InterpretRequest> requests;
    for (int i = 0; i < kLoops; ++i) {
        loops.push_back(caseLoop(i));
        ASSERT_TRUE(interpretable(loops.back())) << "case " << i;
        inputs.push_back(makeFuzzInput(
            loops.back(), makeFuzzCaseSeed(kCampaignSeed, i), 12));
        requests.push_back({&loops.back(), &inputs.back()});
    }
    const auto batched = interpretBatch(requests);
    ASSERT_EQ(batched.size(), requests.size());
    for (int i = 0; i < kLoops; ++i) {
        const auto scalar = reference::interpretLoop(
            loops[static_cast<std::size_t>(i)],
            inputs[static_cast<std::size_t>(i)]);
        EXPECT_EQ(batched[static_cast<std::size_t>(i)].memory,
                  scalar.memory)
            << "case " << i;
        EXPECT_EQ(batched[static_cast<std::size_t>(i)].live_outs,
                  scalar.live_outs)
            << "case " << i;
    }
}

TEST(SimBatchEquivalence, InterpretationIndependentOfBatchWidth)
{
    constexpr int kCases = 200;
    std::vector<Loop> loops;
    std::vector<ExecutionInput> inputs;
    loops.reserve(kCases);
    inputs.reserve(kCases);
    for (int i = 0; i < kCases; ++i) {
        loops.push_back(caseLoop(i));
        // Mixed trip counts, including the no-iteration edge where
        // live-outs read the initial carried state.
        ExecutionInput input = makeFuzzInput(
            loops.back(), makeFuzzCaseSeed(kCampaignSeed, i), 12);
        input.iterations = i % 13;
        inputs.push_back(std::move(input));
    }

    std::vector<ExecutionResult> scalar;
    for (int i = 0; i < kCases; ++i) {
        scalar.push_back(reference::interpretLoop(
            loops[static_cast<std::size_t>(i)],
            inputs[static_cast<std::size_t>(i)]));
    }

    for (const int width : {1, 16, 64}) {
        BatchSimulator simulator;
        std::vector<ExecutionResult> chunked;
        for (int begin = 0; begin < kCases; begin += width) {
            std::vector<InterpretRequest> chunk;
            for (int i = begin; i < std::min(begin + width, kCases); ++i)
                chunk.push_back({&loops[static_cast<std::size_t>(i)],
                                 &inputs[static_cast<std::size_t>(i)]});
            auto part = simulator.interpretBatch(chunk);
            for (auto& result : part)
                chunked.push_back(std::move(result));
        }
        ASSERT_EQ(chunked.size(), scalar.size()) << "width " << width;
        for (int i = 0; i < kCases; ++i) {
            EXPECT_EQ(chunked[static_cast<std::size_t>(i)].memory,
                      scalar[static_cast<std::size_t>(i)].memory)
                << "width " << width << " case " << i;
            EXPECT_EQ(chunked[static_cast<std::size_t>(i)].live_outs,
                      scalar[static_cast<std::size_t>(i)].live_outs)
                << "width " << width << " case " << i;
        }
    }
}

TEST(SimBatchEquivalence, FlatInputAndLazyViewMatchReference)
{
    // The campaign fast path end to end: pre-flattened memory images in,
    // the arena-backed BatchExecView out, no ExecutionResult maps ever
    // materialised.  Walking the view must reproduce the reference maps
    // exactly, cell for cell and in ascending order.
    constexpr int kCases = 64;
    std::vector<Loop> loops;
    std::vector<ExecutionInput> inputs;
    loops.reserve(kCases);
    inputs.reserve(kCases);
    for (int i = 0; i < kCases; ++i) {
        loops.push_back(caseLoop(i));
        inputs.push_back(makeFuzzInput(
            loops.back(), makeFuzzCaseSeed(kCampaignSeed, i), 12));
    }
    std::vector<FlatMemoryImage> flats;
    flats.reserve(kCases);
    for (const ExecutionInput& input : inputs)
        flats.push_back(flattenMemoryImage(input.memory));

    std::vector<InterpretRequest> requests;
    for (int i = 0; i < kCases; ++i) {
        requests.push_back({&loops[static_cast<std::size_t>(i)],
                            &inputs[static_cast<std::size_t>(i)],
                            &flats[static_cast<std::size_t>(i)]});
    }
    BatchSimulator simulator;
    const BatchExecView& view = simulator.interpretBatchFlat(requests);
    ASSERT_EQ(view.lanes.size(), requests.size());

    for (int i = 0; i < kCases; ++i) {
        const auto scalar = reference::interpretLoop(
            loops[static_cast<std::size_t>(i)],
            inputs[static_cast<std::size_t>(i)]);
        const auto& lane = view.lanes[static_cast<std::size_t>(i)];

        std::map<OpId, std::int64_t> live_outs;
        for (std::size_t lo = lane.live_out_begin;
             lo < lane.live_out_end; ++lo) {
            live_outs.emplace_hint(live_outs.end(),
                                   view.live_outs[lo].first,
                                   view.live_outs[lo].second);
        }
        EXPECT_EQ(live_outs, scalar.live_outs) << "case " << i;

        MemoryImage memory;
        for (std::size_t r = lane.region_begin; r < lane.region_end;
             ++r) {
            const BatchExecView::Region& region = view.regions[r];
            auto& cells = memory[*region.name];
            std::int64_t previous = std::numeric_limits<std::int64_t>::min();
            forEachRegionCell(
                region, [&](std::int64_t address, std::int64_t value) {
                    EXPECT_GT(address, previous)
                        << "case " << i << " region " << *region.name;
                    previous = address;
                    cells.emplace_hint(cells.end(), address, value);
                });
        }
        EXPECT_EQ(memory, scalar.memory) << "case " << i;
    }
}

TEST(SimBatchEquivalence, DenseWindowOverflowPathsMatchReference)
{
    // Stores land far outside the initial image's dense window, and one
    // array is too sparse for a window at all -- both must round-trip
    // through the overflow map bit-identically.
    LoopBuilder b("overflow");
    const OpId iv = b.induction(1);
    const OpId base = b.liveIn("base");
    const OpId loaded = b.load("sparse", iv);
    b.store("sparse", b.add(iv, base), b.add(loaded, b.constant(5)));
    b.loopBack(iv, b.constant(64));
    Loop loop = b.build();
    ASSERT_TRUE(interpretable(loop));

    ExecutionInput input;
    input.iterations = 16;
    input.live_ins[base] = 5'000'000;  // Stores beyond any window pad.
    for (std::int64_t address : {std::int64_t{-3}, std::int64_t{2},
                                 std::int64_t{4'000'000'000}}) {
        input.memory["sparse"][address] = address % 97;
    }
    input.memory["untouched"][7] = 42;

    const auto scalar = reference::interpretLoop(loop, input);
    const auto batched = interpretBatch({{&loop, &input}});
    ASSERT_EQ(batched.size(), 1u);
    EXPECT_EQ(batched[0].memory, scalar.memory);
    EXPECT_EQ(batched[0].live_outs, scalar.live_outs);
}

TEST(SimBatchEquivalence, LaChargesMatchReferencePerPhase)
{
    const LaConfig la = LaConfig::proposed();
    BatchSimulator simulator;
    int translated = 0;
    for (int i = 0; i < 200 && translated < 60; ++i) {
        const Loop loop = caseLoop(i);
        const TranslationResult translation =
            translateLoop(loop, la, TranslationMode::kFullyDynamic);
        if (!translation.ok || translation.graph == nullptr)
            continue;
        ++translated;
        for (const bool first : {true, false}) {
            const std::vector<LaCostRequest> requests = {
                {&translation.schedule, &*translation.graph,
                 &translation.analysis, &translation.registers,
                 loop.tripCount(), first}};
            const auto batched =
                simulator.acceleratorCostBatch(la, requests);
            const auto scalar = reference::acceleratorLoopCost(
                translation.schedule, *translation.graph,
                translation.analysis, translation.registers, la,
                loop.tripCount(), first);
            ASSERT_EQ(batched.size(), 1u);
            EXPECT_EQ(batched[0].setup_cycles, scalar.setup_cycles)
                << "case " << i << " first=" << first;
            EXPECT_EQ(batched[0].pipeline_cycles, scalar.pipeline_cycles)
                << "case " << i << " first=" << first;
            EXPECT_EQ(batched[0].drain_cycles, scalar.drain_cycles)
                << "case " << i << " first=" << first;
        }
    }
    // The fuzz presets translate well over half the stream; if this
    // ever drops to zero the test silently stops covering the model.
    EXPECT_GE(translated, 30);
}

TEST(SimBatchEquivalence, RejectsNonInterpretableLoops)
{
    LoopBuilder b("call");
    const OpId iv = b.induction(1);
    b.call("helper", {iv});
    b.loopBack(iv, b.constant(8));
    const Loop loop = b.build();
    EXPECT_FALSE(interpretable(loop));
}

}  // namespace
}  // namespace veal
