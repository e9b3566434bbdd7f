/**
 * Property battery for the heterogeneous-fleet scorer and steerer.
 *
 * The load-bearing contracts, each tested over seeded random loops:
 *
 *  - every BackendScorer cell equals an independently recomputed
 *    fleet::scoreBackend() price, and its CPU column equals
 *    simulateLoopOnCpu() (500-loop sweep), so placements are exactly
 *    as cheap as the service later charges;
 *  - with the TLB on, every ok column carries exactly the loop's
 *    stream-TLB charge, first and warm, and placements do not move;
 *  - placement is greedy best-warm-cycles with index-ordered tie-breaks,
 *    saturation spills to the *strictly* next-best backend, and the CPU
 *    is the last rung when every viable backend is full;
 *  - an empty fleet disables steering and a one-backend (baseline)
 *    fleet degenerates to today's single-design-point service
 *    bit-exactly (digests, counters, and the fleet-line-stripped
 *    report);
 *  - the scoring kernel and the suite builders are pure functions of
 *    their config arguments: A/B/A evaluations under different configs
 *    share no cached state (the regression for the hoisted SweepRunner
 *    cell config and the suite fission target).
 */

#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "veal/arch/cpu_config.h"
#include "veal/fleet/fleet.h"
#include "veal/ir/loop_analysis.h"
#include "veal/ir/random_loop.h"
#include "veal/service/service.h"
#include "veal/service/trace.h"
#include "veal/sim/cpu_sim.h"
#include "veal/sim/tlb_model.h"
#include "veal/workloads/suite.h"

namespace veal {
namespace {

constexpr TranslationMode kMode = TranslationMode::kFullyDynamic;
constexpr std::int64_t kIterations = 12;

fleet::FleetConfig
cappedFleet(int capacity)
{
    fleet::FleetConfig config = fleet::FleetConfig::standard();
    for (auto& backend : config.backends)
        backend.capacity = capacity;
    return config;
}

/** A hand-built score set: every backend ok with the given prices. */
persist::FleetScoreSet
scoresWithWarmCycles(const std::vector<std::int64_t>& warm)
{
    persist::FleetScoreSet set;
    set.scoring_iterations = kIterations;
    set.cpu_cycles = 1 << 20;
    for (const std::int64_t cycles : warm) {
        persist::FleetBackendScore score;
        score.ok = true;
        score.ii = 2;
        score.stage_count = 2;
        score.first_cycles = cycles + 100;
        score.warm_cycles = cycles;
        set.backends.push_back(score);
    }
    return set;
}

TEST(FleetSteering, FiveHundredScoreSetsMatchIndependentRecomputation)
{
    const fleet::FleetConfig config = fleet::FleetConfig::standard();
    const CpuConfig cpu;
    const TlbConfig tlb;
    const fleet::BackendScorer scorer(config, cpu, tlb, kIterations);
    fleet::FleetSteerer steerer(config);

    for (std::uint64_t seed = 1; seed <= 500; ++seed) {
        const Loop loop = makeStressLoop(seed % 17, seed);
        const persist::FleetScoreSet set = scorer.score(loop, kMode);
        ASSERT_EQ(set.backends.size(), config.backends.size());
        ASSERT_EQ(set.scoring_iterations, kIterations);
        EXPECT_EQ(set.cpu_cycles,
                  simulateLoopOnCpu(loop, cpu, kIterations).total_cycles);

        // Column-by-column against the independent one-cell kernel.
        for (std::size_t j = 0; j < config.backends.size(); ++j) {
            const persist::FleetBackendScore expected = fleet::scoreBackend(
                loop, config.backends[j].la, kMode, kIterations, tlb);
            const persist::FleetBackendScore& got = set.backends[j];
            ASSERT_EQ(got.ok, expected.ok) << "seed " << seed << " b" << j;
            ASSERT_EQ(got.reject, expected.reject);
            ASSERT_EQ(got.ii, expected.ii);
            ASSERT_EQ(got.stage_count, expected.stage_count);
            ASSERT_EQ(got.first_cycles, expected.first_cycles);
            ASSERT_EQ(got.warm_cycles, expected.warm_cycles)
                << "seed " << seed << " backend " << j;
        }

        // The placement is the cheapest ok backend, index tie-broken.
        const fleet::Placement placement =
            steerer.place("loop-" + std::to_string(seed), set);
        int best = -1;
        for (std::size_t j = 0; j < set.backends.size(); ++j) {
            if (!set.backends[j].ok)
                continue;
            if (best < 0 ||
                set.backends[j].warm_cycles <
                    set.backends[static_cast<std::size_t>(best)]
                        .warm_cycles) {
                best = static_cast<int>(j);
            }
        }
        if (best < 0) {
            EXPECT_TRUE(placement.unscored) << "seed " << seed;
            EXPECT_EQ(placement.backend, 0);
        } else {
            EXPECT_FALSE(placement.unscored);
            EXPECT_EQ(placement.backend, best) << "seed " << seed;
            EXPECT_EQ(placement.spill_rank, 0);
        }

        // Sticky: a replay of the same key changes nothing.
        const fleet::Placement again =
            steerer.place("loop-" + std::to_string(seed), set);
        EXPECT_EQ(again.backend, placement.backend);
        EXPECT_EQ(again.spill_rank, placement.spill_rank);
    }
}

TEST(FleetSteering, TlbChargeShiftsEveryBackendScoreAlike)
{
    // With the TLB on, every ok backend's first and warm price carries
    // exactly the stream-TLB charge of the loop's streams.  The charge
    // depends on the strides and the trip count, never on the backend,
    // so it shifts every column alike and no placement moves.
    const fleet::FleetConfig config = fleet::FleetConfig::standard();
    const CpuConfig cpu;
    TlbConfig tlb = TlbConfig::proposed();
    tlb.entries = 1;
    const fleet::BackendScorer off(config, cpu, TlbConfig{}, kIterations);
    const fleet::BackendScorer on(config, cpu, tlb, kIterations);
    fleet::FleetSteerer steer_off(config);
    fleet::FleetSteerer steer_on(config);
    std::int64_t warm_walks = 0;
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        const Loop loop = makeStressLoop(seed % 17, seed);
        const LoopAnalysis analysis = analyzeLoop(loop);
        std::vector<std::int64_t> loads;
        for (const auto& stream : analysis.load_streams)
            loads.push_back(stream.stride);
        std::vector<std::int64_t> stores;
        for (const auto& stream : analysis.store_streams)
            stores.push_back(stream.stride);
        const TlbCharge first =
            streamTlbCharge(loads, stores, tlb, kIterations, true);
        const TlbCharge warm =
            streamTlbCharge(loads, stores, tlb, kIterations, false);

        const persist::FleetScoreSet a = off.score(loop, kMode);
        const persist::FleetScoreSet b = on.score(loop, kMode);
        EXPECT_EQ(a.cpu_cycles, b.cpu_cycles);
        for (std::size_t j = 0; j < config.backends.size(); ++j) {
            ASSERT_EQ(a.backends[j].ok, b.backends[j].ok);
            ASSERT_EQ(a.backends[j].ii, b.backends[j].ii);
            if (!a.backends[j].ok)
                continue;
            warm_walks += warm.walks;
            EXPECT_EQ(b.backends[j].first_cycles,
                      a.backends[j].first_cycles + first.cycles)
                << "seed " << seed << " backend " << j;
            EXPECT_EQ(b.backends[j].warm_cycles,
                      a.backends[j].warm_cycles + warm.cycles)
                << "seed " << seed << " backend " << j;
        }
        const std::string key = "loop-" + std::to_string(seed);
        EXPECT_EQ(steer_off.place(key, a).backend,
                  steer_on.place(key, b).backend)
            << "seed " << seed;
    }
    EXPECT_GT(warm_walks, 0) << "no warm score re-walked a page";
}

TEST(FleetSteering, SaturationSpillsToStrictlyNextBest)
{
    fleet::FleetSteerer steerer(cappedFleet(1));
    // Backend 2 is cheapest, then 0, then 4, then 1, then 3.
    const auto set = scoresWithWarmCycles({20, 40, 10, 50, 30});

    const auto first = steerer.place("k1", set);
    EXPECT_EQ(first.backend, 2);
    EXPECT_EQ(first.spill_rank, 0);

    // Best is full: k2 spills to the strictly next-best (0), k3 to 4...
    const auto second = steerer.place("k2", set);
    EXPECT_EQ(second.backend, 0);
    EXPECT_EQ(second.spill_rank, 1);
    const auto third = steerer.place("k3", set);
    EXPECT_EQ(third.backend, 4);
    EXPECT_EQ(third.spill_rank, 2);
    const auto fourth = steerer.place("k4", set);
    EXPECT_EQ(fourth.backend, 1);
    const auto fifth = steerer.place("k5", set);
    EXPECT_EQ(fifth.backend, 3);
    EXPECT_EQ(steerer.spills(), 4);

    // Everything is full: the CPU is the last rung.
    const auto sixth = steerer.place("k6", set);
    EXPECT_EQ(sixth.backend, -1);
    EXPECT_EQ(steerer.cpuFallbacks(), 1);

    // Sticky placements survive saturation: k1 still owns backend 2.
    EXPECT_EQ(steerer.place("k1", set).backend, 2);
    EXPECT_EQ(steerer.cpuFallbacks(), 1);
}

TEST(FleetSteering, TieBreaksAreIndexOrdered)
{
    fleet::FleetSteerer steerer(cappedFleet(1));
    const auto set = scoresWithWarmCycles({25, 25, 25, 25, 25});
    // All prices equal: keys fill backends in index order.
    for (int k = 0; k < 5; ++k) {
        const auto placement =
            steerer.place("key-" + std::to_string(k), set);
        EXPECT_EQ(placement.backend, k);
        EXPECT_EQ(placement.spill_rank, k);
    }
}

TEST(FleetSteering, NotOkBackendsNeverPlace)
{
    fleet::FleetSteerer steerer(cappedFleet(0));
    auto set = scoresWithWarmCycles({5, 10, 15, 20, 25});
    set.backends[0].ok = false;  // Cheapest rejects: must be skipped.
    EXPECT_EQ(steerer.place("k", set).backend, 1);

    persist::FleetScoreSet none = scoresWithWarmCycles({5, 5, 5, 5, 5});
    for (auto& backend : none.backends) {
        backend.ok = false;
        backend.reject = TranslationReject::kScheduleFailed;
    }
    const auto placement = steerer.place("rejected-everywhere", none);
    EXPECT_TRUE(placement.unscored);
    EXPECT_EQ(placement.backend, 0);  // Ladder climbs on backend 0.
}

struct RunSnapshot {
    std::string render;
    std::map<int, std::uint64_t> digests;
    std::int64_t translate_ok = 0;
    std::int64_t la_warm_cycles = 0;
    std::int64_t la_first_cycles = 0;
    std::int64_t cpu_cycles = 0;
    std::int64_t translation_cycles = 0;
    std::int64_t path_la = 0;
    std::int64_t path_cpu = 0;
};

RunSnapshot
runService(const ServiceTrace& trace,
           std::optional<fleet::FleetConfig> fleet_config)
{
    ServiceOptions options;
    options.shards = 2;
    options.threads = 2;
    options.batch = 8;
    options.fleet = std::move(fleet_config);
    TranslationService service(options, nullptr);
    const ServiceReport& report = service.run(trace);

    RunSnapshot snapshot;
    snapshot.render = report.render();
    for (const auto& [tenant, tenant_report] : report.tenants)
        snapshot.digests[tenant] = tenant_report.digest;
    snapshot.translate_ok = report.translate_ok;
    snapshot.la_warm_cycles = report.la_warm_cycles;
    snapshot.la_first_cycles = report.la_first_cycles;
    snapshot.cpu_cycles = report.cpu_cycles;
    snapshot.translation_cycles = report.translation_cycles;
    snapshot.path_la = report.path_la;
    snapshot.path_cpu = report.path_cpu;
    return snapshot;
}

/** Drop "fleet:"/"fleet-placed:" lines -- the only permitted delta. */
std::string
stripFleetLines(const std::string& render)
{
    std::istringstream in(render);
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("fleet", 0) == 0)
            continue;
        out << line << "\n";
    }
    return out.str();
}

ServiceTrace
degeneracyTrace()
{
    TraceGenOptions gen;
    gen.seed = 42;
    gen.requests = 96;
    gen.tenants = 3;
    gen.loop_pool = 6;
    gen.tick_size = 8;
    gen.iterations = 10;
    return generateTrace(gen);
}

TEST(FleetSteering, EmptyFleetDegeneratesToTodayBitExactly)
{
    const ServiceTrace trace = degeneracyTrace();
    const RunSnapshot plain = runService(trace, std::nullopt);
    // An empty FleetConfig is "no fleet": steering never engages and
    // the report renders without fleet lines -- byte-identical.
    const RunSnapshot empty = runService(trace, fleet::FleetConfig{});
    EXPECT_EQ(empty.render, plain.render);
    EXPECT_EQ(empty.digests, plain.digests);
}

TEST(FleetSteering, OneBackendFleetDegeneratesToTodayBitExactly)
{
    const ServiceTrace trace = degeneracyTrace();
    const RunSnapshot plain = runService(trace, std::nullopt);
    // A baseline-only fleet steers every loop to the single design
    // point the fleetless service already uses: every outcome field,
    // digest, and non-fleet report line must match bit for bit.
    const RunSnapshot baseline =
        runService(trace, fleet::FleetConfig::baselineOnly());
    EXPECT_EQ(stripFleetLines(baseline.render), plain.render);
    EXPECT_EQ(baseline.digests, plain.digests);
    EXPECT_EQ(baseline.translate_ok, plain.translate_ok);
    EXPECT_EQ(baseline.la_warm_cycles, plain.la_warm_cycles);
    EXPECT_EQ(baseline.la_first_cycles, plain.la_first_cycles);
    EXPECT_EQ(baseline.cpu_cycles, plain.cpu_cycles);
    EXPECT_EQ(baseline.translation_cycles, plain.translation_cycles);
    EXPECT_EQ(baseline.path_la, plain.path_la);
    EXPECT_EQ(baseline.path_cpu, plain.path_cpu);
}

TEST(FleetSteering, CellEvaluationSharesNoStateAcrossConfigs)
{
    // A/B/A: re-evaluating a cell under config A after pricing the same
    // loop under very different configs B must reproduce A's score
    // field for field (the regression for the hoisted cell config).
    const TlbConfig tlb;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const Loop loop = makeStressLoop(seed % 7, seed);
        const auto a1 = fleet::scoreBackend(
            loop, LaConfig::proposed(), kMode, kIterations, tlb);
        const auto b = fleet::scoreBackend(
            loop, fleet::tinyIiConfig(), kMode, kIterations, tlb);
        const auto c = fleet::scoreBackend(
            loop, fleet::streamHeavyConfig(), kMode, kIterations, tlb);
        (void)b;
        (void)c;
        const auto a2 = fleet::scoreBackend(
            loop, LaConfig::proposed(), kMode, kIterations, tlb);
        EXPECT_EQ(a1.ok, a2.ok) << "seed " << seed;
        EXPECT_EQ(a1.reject, a2.reject);
        EXPECT_EQ(a1.ii, a2.ii);
        EXPECT_EQ(a1.stage_count, a2.stage_count);
        EXPECT_EQ(a1.first_cycles, a2.first_cycles);
        EXPECT_EQ(a1.warm_cycles, a2.warm_cycles) << "seed " << seed;
    }
}

/** Structural fingerprint of a built suite (sites, pieces, op counts). */
std::string
suiteFingerprint(const std::vector<Benchmark>& suite)
{
    std::ostringstream os;
    for (const Benchmark& benchmark : suite) {
        os << benchmark.name << ":";
        for (const LoopSite& site : benchmark.transformed.sites) {
            os << " " << site.loop.size() << "/" << site.fissioned.size();
            for (const Loop& piece : site.fissioned)
                os << "," << piece.size();
        }
        os << "\n";
    }
    return os.str();
}

TEST(FleetSteering, SuiteBuildersArePureFunctionsOfTheFissionTarget)
{
    // A/B/A again, one level up: building the suite for another fission
    // target in between must not perturb the proposed-target suite
    // (the regression for the hoisted BenchmarkBuilder target).
    LaConfig tight = LaConfig::proposed();
    tight.name = "tight-streams";
    tight.num_load_streams = 2;
    tight.num_store_streams = 1;

    const std::string a1 = suiteFingerprint(mediaFpSuite());
    const std::string b = suiteFingerprint(mediaFpSuite(tight));
    const std::string a2 = suiteFingerprint(mediaFpSuite());
    EXPECT_EQ(a1, a2);
    EXPECT_EQ(a1, suiteFingerprint(mediaFpSuite(LaConfig::proposed())));
    // A 2-load-stream toolchain must fission far more aggressively, so
    // the builds genuinely differ -- the A/B/A would pass vacuously
    // otherwise.
    EXPECT_NE(a1, b);

    const std::string i1 = suiteFingerprint(integerSuite());
    EXPECT_EQ(i1, suiteFingerprint(integerSuite(LaConfig::proposed())));
}

}  // namespace
}  // namespace veal
