#include "veal/sim/tlb_model.h"

#include <gtest/gtest.h>

#include "veal/arch/la_config.h"
#include "veal/ir/loop_analysis.h"
#include "veal/ir/loop_builder.h"
#include "veal/vm/persist/blob.h"
#include "veal/vm/translator.h"

namespace veal {
namespace {

TlbConfig
enabledConfig()
{
    TlbConfig config = TlbConfig::proposed();
    EXPECT_TRUE(config.enabled);
    return config;
}

TEST(StreamPageSpan, ZeroStridePinsOnePage)
{
    const TlbConfig config = enabledConfig();
    EXPECT_EQ(streamPageSpan(0, 1, config), 1);
    EXPECT_EQ(streamPageSpan(0, 100000, config), 1);
}

TEST(StreamPageSpan, UnitStrideSweepsContiguously)
{
    // 8-byte elements, 4096-byte pages: 512 elements per page.
    const TlbConfig config = enabledConfig();
    EXPECT_EQ(streamPageSpan(1, 1, config), 1);
    EXPECT_EQ(streamPageSpan(1, 512, config), 1);
    EXPECT_EQ(streamPageSpan(1, 513, config), 2);
    EXPECT_EQ(streamPageSpan(1, 1024, config), 2);
    EXPECT_EQ(streamPageSpan(1, 1025, config), 3);
}

TEST(StreamPageSpan, NegativeStrideMatchesItsMirror)
{
    const TlbConfig config = enabledConfig();
    for (const std::int64_t iterations : {1, 7, 512, 5000}) {
        EXPECT_EQ(streamPageSpan(-3, iterations, config),
                  streamPageSpan(3, iterations, config));
    }
}

TEST(StreamPageSpan, SparseStrideCapsAtOnePagePerIteration)
{
    // Stride 1024 elements = 8192 bytes = 2 pages/iteration of span,
    // but each iteration touches only one element, so the distinct-page
    // set is bounded by the iteration count.
    const TlbConfig config = enabledConfig();
    EXPECT_EQ(streamPageSpan(1024, 16, config), 16);
    EXPECT_EQ(streamPageSpan(1 << 20, 7, config), 7);
}

TEST(StreamTlbCharge, DisabledConfigChargesNothing)
{
    const TlbConfig off = TlbConfig::off();
    const TlbCharge charge =
        streamTlbCharge({1, 2, 3}, {4}, off, 100000, true);
    EXPECT_EQ(charge.pages, 0);
    EXPECT_EQ(charge.walks, 0);
    EXPECT_EQ(charge.cycles, 0);
}

TEST(StreamTlbCharge, FirstInvocationWalksTheWholeWorkingSet)
{
    TlbConfig config = enabledConfig();
    config.entries = 4;
    config.walk_cycles = 10;
    // Two unit-stride streams over 1024 iterations: 2 pages each.
    const TlbCharge first =
        streamTlbCharge({1}, {1}, config, 1024, /*first_invocation=*/true);
    EXPECT_EQ(first.pages, 4);
    EXPECT_EQ(first.walks, 4);
    EXPECT_EQ(first.cycles, 40);
}

TEST(StreamTlbCharge, WarmInvocationWalksOnlyTheExcessOverCapacity)
{
    TlbConfig config = enabledConfig();
    config.entries = 3;
    config.walk_cycles = 10;
    const TlbCharge warm =
        streamTlbCharge({1}, {1}, config, 1024, /*first_invocation=*/false);
    EXPECT_EQ(warm.pages, 4);
    EXPECT_EQ(warm.walks, 1) << "3 of 4 pages stayed resident";
    EXPECT_EQ(warm.cycles, 10);

    config.entries = 64;
    const TlbCharge resident =
        streamTlbCharge({1}, {1}, config, 1024, /*first_invocation=*/false);
    EXPECT_EQ(resident.walks, 0) << "a fitting working set re-walks nothing";
    EXPECT_EQ(resident.cycles, 0);
}

TEST(StreamTlbCharge, SummaryStridesMatchAnalysisStreams)
{
    // Every LA price reads its TLB strides from a persist summary
    // (persist::servePrice), so summarize() must carry the analysis
    // streams' strides, loads and stores apart and in order, or a
    // warm-started price would walk another working set.
    LoopBuilder b("tlb-streams");
    const OpId iv = b.induction(1);
    const OpId wide = b.induction(4);  // Second stream, 4x the stride.
    const OpId a = b.load("A", iv);
    const OpId c = b.load("B", wide);
    const OpId k = b.liveIn("k");
    const OpId y = b.mul(a, k);
    const OpId z = b.add(y, c);
    b.markLiveOut(z);
    b.store("out", iv, z);
    b.loopBack(iv, b.constant(4096));
    const Loop loop = b.build();
    const TranslationResult tr =
        translateLoop(loop, LaConfig::proposed(),
                      TranslationMode::kFullyDynamic);
    ASSERT_TRUE(tr.ok);

    const persist::TranslationSummary summary = persist::summarize(tr);
    ASSERT_EQ(summary.load_strides.size(), 2u);
    ASSERT_EQ(summary.load_strides.size(), tr.analysis.load_streams.size());
    ASSERT_EQ(summary.store_strides.size(),
              tr.analysis.store_streams.size());
    ASSERT_FALSE(summary.store_strides.empty());
    for (std::size_t i = 0; i < summary.load_strides.size(); ++i)
        EXPECT_EQ(summary.load_strides[i], tr.analysis.load_streams[i].stride);
    for (std::size_t i = 0; i < summary.store_strides.size(); ++i) {
        EXPECT_EQ(summary.store_strides[i],
                  tr.analysis.store_streams[i].stride);
    }
    EXPECT_NE(summary.load_strides[0], summary.load_strides[1])
        << "two distinct strides, so a swapped order would show";
}

TEST(StreamTlbCharge, WarmNeverChargesMoreThanFirst)
{
    TlbConfig config = enabledConfig();
    config.entries = 2;
    for (const std::int64_t iterations : {1, 100, 2048}) {
        const TlbCharge first =
            streamTlbCharge({1, 3}, {2}, config, iterations, true);
        const TlbCharge warm =
            streamTlbCharge({1, 3}, {2}, config, iterations, false);
        EXPECT_EQ(first.pages, warm.pages) << "working set is invariant";
        EXPECT_LE(warm.walks, first.walks);
        EXPECT_LE(warm.cycles, first.cycles);
    }
}

}  // namespace
}  // namespace veal
