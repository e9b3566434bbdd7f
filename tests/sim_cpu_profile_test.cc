/**
 * The CpuProfile contract: a profiled simulateCpuBatch() lane steps the
 * model's full 96-iteration window whatever its own trip count, so its
 * profile prices every trip count bit-identically to the frozen
 * reference::simulateLoopOnCpu, while its timing stays the reference's
 * at its own count.  Swept over the 1,000 seeded random loops of the
 * batch-equivalence battery on all three baseline CPUs, plus the
 * one-lane simulateLoopOnCpu entry point and the 32-bit narrowing
 * check.
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

/** Lane trip counts around the model's 64- and 96-iteration seams. */
constexpr int kLengths[] = {1, 31, 63, 64, 65, 95, 96};

/** Trip counts past the window, which a profile extrapolates to. */
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

    // One batch call per lane trip count; profiles[l][i] is loop i's
    // profile from a lane of kLengths[l] iterations.
    BatchSimulator simulator;
    std::vector<std::vector<CpuProfile>> profiles(std::size(kLengths));
    for (std::size_t l = 0; l < std::size(kLengths); ++l) {
        std::vector<CpuSimRequest> lanes;
        for (const Loop& loop : loops)
            lanes.push_back({&loop, kLengths[l]});
        simulator.simulateCpuBatch(cpu, lanes, &profiles[l]);
        ASSERT_EQ(profiles[l].size(), loops.size());
    }

    // Every lane ran the full window, so every profile, whatever its
    // lane's count, covers and prices every trip count.
    std::vector<std::int64_t> trips;
    for (std::int64_t n = 1; n <= kCpuSimIterations; ++n)
        trips.push_back(n);
    trips.insert(trips.end(), std::begin(kBeyond), std::end(kBeyond));
    for (int i = 0; i < kLoops; ++i) {
        const Loop& loop = loops[static_cast<std::size_t>(i)];
        for (std::size_t l = 0; l < std::size(kLengths); ++l) {
            const CpuProfile& profile =
                profiles[l][static_cast<std::size_t>(i)];
            ASSERT_EQ(profile.totals().size(),
                      static_cast<std::size_t>(kCpuSimIterations))
                << "case " << i << " lane of " << kLengths[l];
            ASSERT_FALSE(profile.covers(0));
        }
        for (const std::int64_t n : trips) {
            const std::int64_t expected =
                reference::simulateLoopOnCpu(loop, cpu, n).total_cycles;
            for (std::size_t l = 0; l < std::size(kLengths); ++l) {
                const CpuProfile& profile =
                    profiles[l][static_cast<std::size_t>(i)];
                ASSERT_TRUE(profile.covers(n));
                ASSERT_EQ(profile.totalAt(n), expected)
                    << "case " << i << " lane of " << kLengths[l]
                    << " trips " << n;
            }
        }
    }
}

TEST_P(CpuProfileTest, ProfiledLanesTimeLikeTheReferenceBitForBit)
{
    // Stepping past its own count must not move a lane's timing: total
    // cycles and cycles per iteration equal the reference's at the
    // lane's count, with and without profiles.
    const CpuConfig cpu = cpuNamed(GetParam());
    const std::vector<Loop> loops =
        testing::caseLoops(kCampaignSeed, kLoops);
    std::vector<std::int64_t> counts(std::begin(kLengths),
                                     std::end(kLengths));
    counts.insert(counts.end(), std::begin(kBeyond), std::end(kBeyond));
    BatchSimulator simulator;
    std::vector<CpuProfile> profiles;
    for (const std::int64_t n : counts) {
        std::vector<CpuSimRequest> lanes;
        for (const Loop& loop : loops)
            lanes.push_back({&loop, n});
        const auto profiled = simulator.simulateCpuBatch(cpu, lanes, &profiles);
        const auto plain = simulator.simulateCpuBatch(cpu, lanes);
        for (int i = 0; i < kLoops; ++i) {
            const auto u = static_cast<std::size_t>(i);
            const CpuLoopTiming frozen =
                reference::simulateLoopOnCpu(loops[u], cpu, n);
            for (const CpuLoopTiming& live : {profiled[u], plain[u]}) {
                ASSERT_EQ(live.total_cycles, frozen.total_cycles)
                    << "case " << i << " trips " << n;
                ASSERT_EQ(std::bit_cast<std::uint64_t>(
                              live.cycles_per_iteration),
                          std::bit_cast<std::uint64_t>(
                              frozen.cycles_per_iteration))
                    << "case " << i << " trips " << n;
            }
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
    EXPECT_TRUE(empty.empty());
    EXPECT_FALSE(empty.covers(1));
    EXPECT_FALSE(empty.covers(kCpuSimIterations));
    EXPECT_FALSE(empty.covers(std::int64_t{1} << 20));
}

TEST(CpuProfile, RunPastThirtyTwoBitsIsNotMemoized)
{
    // A load-to-store chain on a core whose loads take 2^30 cycles: the
    // second iteration already completes past INT32_MAX, so the full
    // window a profiled lane steps overflows even for a one-iteration
    // lane, whose own timing still fits.
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
        EXPECT_EQ(timings[0].total_cycles > std::int64_t{0x7fffffff},
                  length > 1);
        ASSERT_EQ(profiles.size(), 1u);
        EXPECT_TRUE(profiles[0].empty())
            << "a run past 32 bits must not be memoized";
        EXPECT_FALSE(profiles[0].covers(1));
    }
}

}  // namespace
}  // namespace veal
