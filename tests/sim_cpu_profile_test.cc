/**
 * The CpuProfile contract: one simulated run of L iterations prices
 * every trip count N <= L -- and, once L is the model's full
 * 96-iteration window, every N at all -- bit-identically to the frozen
 * reference::simulateLoopOnCpu.  Swept over the 1,000 seeded random
 * loops of the batch-equivalence battery on all three baseline CPUs,
 * plus the one-lane simulateLoopOnCpu entry point and the 32-bit
 * narrowing check.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "tests/testing/random_workloads.h"
#include "veal/ir/loop_builder.h"
#include "veal/sim/batch.h"
#include "veal/sim/cpu_sim.h"
#include "veal/sim/reference.h"

namespace veal {
namespace {

constexpr std::uint64_t kCampaignSeed = 0xba7c4ull;
constexpr int kLoops = 1000;

/** Profile lengths around the model's 64- and 96-iteration seams. */
constexpr int kLengths[] = {1, 31, 63, 64, 65, 95, 96};

/** Trip counts a full profile must extrapolate to. */
constexpr std::int64_t kBeyond[] = {97, 128, 512, 10000,
                                    std::int64_t{1} << 20};

CpuConfig
cpuNamed(const std::string& name)
{
    if (name == "cortexA8")
        return CpuConfig::cortexA8();
    if (name == "quadIssue")
        return CpuConfig::quadIssue();
    return CpuConfig::arm11();
}

class CpuProfileTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CpuProfileTest, PrefixRunsPriceEveryCoveredTripLikeTheReference)
{
    const CpuConfig cpu = cpuNamed(GetParam());
    const std::vector<Loop> loops =
        testing::caseLoops(kCampaignSeed, kLoops);

    // One batch call per length; profiles[l][i] is loop i's run of
    // kLengths[l] iterations.
    BatchSimulator simulator;
    std::vector<std::vector<CpuProfile>> profiles(std::size(kLengths));
    for (std::size_t l = 0; l < std::size(kLengths); ++l) {
        std::vector<CpuSimRequest> lanes;
        for (const Loop& loop : loops)
            lanes.push_back({&loop, kLengths[l]});
        simulator.simulateCpuBatch(cpu, lanes, &profiles[l]);
        ASSERT_EQ(profiles[l].size(), loops.size());
    }

    for (int i = 0; i < kLoops; ++i) {
        const Loop& loop = loops[static_cast<std::size_t>(i)];
        for (std::int64_t n = 1; n <= kCpuSimIterations; ++n) {
            const std::int64_t expected =
                reference::simulateLoopOnCpu(loop, cpu, n).total_cycles;
            for (std::size_t l = 0; l < std::size(kLengths); ++l) {
                const CpuProfile& profile =
                    profiles[l][static_cast<std::size_t>(i)];
                ASSERT_EQ(profile.length(), kLengths[l]) << "case " << i;
                if (n > kLengths[l])
                    continue;
                ASSERT_TRUE(profile.covers(n));
                ASSERT_EQ(profile.totalAt(n), expected)
                    << "case " << i << " length " << kLengths[l]
                    << " trips " << n;
            }
        }
        const CpuProfile& full = profiles.back()[static_cast<std::size_t>(i)];
        for (const std::int64_t n : kBeyond) {
            ASSERT_TRUE(full.covers(n));
            ASSERT_EQ(full.totalAt(n),
                      reference::simulateLoopOnCpu(loop, cpu, n).total_cycles)
                << "case " << i << " trips " << n;
        }
    }
}

TEST_P(CpuProfileTest, ShortRunsCoverNothingPastTheirLength)
{
    const CpuConfig cpu = cpuNamed(GetParam());
    const std::vector<Loop> loops = testing::caseLoops(kCampaignSeed, 50);
    for (const int length : kLengths) {
        std::vector<CpuSimRequest> lanes;
        for (const Loop& loop : loops)
            lanes.push_back({&loop, length});
        std::vector<CpuProfile> profiles;
        BatchSimulator().simulateCpuBatch(cpu, lanes, &profiles);
        for (const CpuProfile& profile : profiles) {
            EXPECT_FALSE(profile.covers(0));
            EXPECT_TRUE(profile.covers(length));
            const bool full = length == kCpuSimIterations;
            EXPECT_EQ(profile.covers(length + 1), full) << length;
            EXPECT_EQ(profile.covers(std::int64_t{1} << 20), full)
                << length;
        }
    }
}

TEST_P(CpuProfileTest, OneLaneEntryPointMatchesTheReference)
{
    const CpuConfig cpu = cpuNamed(GetParam());
    const std::vector<Loop> loops =
        testing::caseLoops(kCampaignSeed, kLoops);
    for (int i = 0; i < kLoops; ++i) {
        const Loop& loop = loops[static_cast<std::size_t>(i)];
        for (const std::int64_t n :
             {std::int64_t{1}, std::int64_t{2}, std::int64_t{63},
              std::int64_t{64}, std::int64_t{96}, std::int64_t{97},
              loop.tripCount()}) {
            const CpuLoopTiming live = simulateLoopOnCpu(loop, cpu, n);
            const CpuLoopTiming frozen =
                reference::simulateLoopOnCpu(loop, cpu, n);
            ASSERT_EQ(live.total_cycles, frozen.total_cycles)
                << "case " << i << " trips " << n;
            ASSERT_EQ(
                std::bit_cast<std::uint64_t>(live.cycles_per_iteration),
                std::bit_cast<std::uint64_t>(frozen.cycles_per_iteration))
                << "case " << i << " trips " << n;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Cpus, CpuProfileTest,
                         ::testing::Values("arm11", "cortexA8",
                                           "quadIssue"));

TEST(CpuProfile, EmptyProfileCoversNothing)
{
    const CpuProfile empty;
    EXPECT_EQ(empty.length(), 0);
    EXPECT_FALSE(empty.covers(1));
    EXPECT_FALSE(empty.covers(kCpuSimIterations));
    EXPECT_FALSE(empty.covers(std::int64_t{1} << 20));
}

TEST(CpuProfile, RunPastThirtyTwoBitsIsNotMemoized)
{
    // A load-to-store chain on a core whose loads take 2^30 cycles: the
    // second iteration already completes past INT32_MAX.
    LoopBuilder b("slow-load");
    const OpId iv = b.induction(1);
    b.store("out", iv, b.load("in", iv));
    b.loopBack(iv, b.constant(1024));
    const Loop loop = b.build();
    CpuConfig cpu = CpuConfig::arm11();
    cpu.load_latency = 1 << 30;

    std::vector<CpuProfile> profiles;
    for (const int length : {1, kCpuSimIterations}) {
        const auto timings = BatchSimulator().simulateCpuBatch(
            cpu, {{&loop, length}}, &profiles);
        EXPECT_EQ(timings[0].total_cycles,
                  reference::simulateLoopOnCpu(loop, cpu, length)
                      .total_cycles);
        ASSERT_EQ(profiles.size(), 1u);
        if (length == 1) {
            ASSERT_EQ(profiles[0].length(), 1) << "one iteration fits";
            EXPECT_EQ(profiles[0].totalAt(1), timings[0].total_cycles);
        } else {
            EXPECT_GT(timings[0].total_cycles,
                      std::int64_t{0x7fffffff});
            EXPECT_EQ(profiles[0].length(), 0)
                << "a run past 32 bits must not be memoized";
            EXPECT_FALSE(profiles[0].covers(1));
        }
    }
}

}  // namespace
}  // namespace veal
