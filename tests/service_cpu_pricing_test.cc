/**
 * Baseline-CPU pricing through the service's memoized profiles: repeated
 * keys at iteration counts that cross the CPU model's 96-iteration
 * window in rising and falling order, served across ticks, within one
 * tick (coalesced), on a quarantined pair under a fault stream, and
 * from the persistent store's profiles after a restart.  Every
 * outcome's cpu_cycles must equal the frozen reference model, and
 * reports must stay byte-identical across the shard/thread/batch shape.
 */

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "veal/service/service.h"
#include "veal/service/trace.h"
#include "veal/sim/reference.h"
#include "veal/support/metrics/metrics.h"
#include "veal/vm/persist/blob.h"
#include "veal/vm/persist/store.h"

namespace veal {
namespace {

namespace fs = std::filesystem;

/** Trip counts on both sides of the window, rising and falling. */
constexpr std::int64_t kCrossing[] = {5, 200, 64, 1, 96, 97, 100000, 63, 2};

/** Loop seeds: 201 translates cleanly (its image can be corrupted),
    27 is rejected on the default design point (a negative entry). */
constexpr std::uint64_t kSeeds[] = {201, 27, 12};

constexpr int kTenants = 3;

/**
 * Key k of the (seed, mode) keys asks at kCrossing[(t + k) % n] in tick
 * t, so each key is first seen at a different count and later counts
 * fall below or rise past it; even ticks add a twin from the next
 * tenant at the following count (coalesced on the key's cold tick,
 * warm later).
 */
ServiceTrace
makeCrossingTrace(int ticks)
{
    constexpr std::size_t kCounts = std::size(kCrossing);
    ServiceTrace trace;
    for (int t = 0; t < ticks; ++t) {
        auto& tick = trace.ticks.emplace_back();
        std::size_t k = 0;
        for (const std::uint64_t seed : kSeeds) {
            for (const TranslationMode mode :
                 {TranslationMode::kFullyDynamic,
                  TranslationMode::kStatic}) {
                const std::size_t step = static_cast<std::size_t>(t) + k;
                for (int twin = 0; twin < (t % 2 == 0 ? 2 : 1); ++twin) {
                    TraceRequest request;
                    request.tenant = static_cast<int>(k + twin) % kTenants;
                    request.loop_seed = seed;
                    request.mode = mode;
                    request.iterations = kCrossing[(step + twin) % kCounts];
                    tick.push_back(request);
                }
                ++k;
            }
        }
    }
    return trace;
}

struct Replay {
    std::string render;
    std::string metrics;
    ServiceReport report;
    std::vector<RequestOutcome> outcomes;  ///< Sequence order.
    std::map<std::string, int> profile_lengths;  ///< Per key, at the end.
};

struct Shape {
    int shards = 1;
    int threads = 1;
    int batch = 1;
};

Replay
replay(const ServiceTrace& trace, const Shape& shape,
       std::optional<std::uint64_t> fault_seed = std::nullopt,
       int quarantine_strikes = 2, const std::string& cache_dir = "")
{
    ServiceOptions options;
    options.shards = shape.shards;
    options.threads = shape.threads;
    options.batch = shape.batch;
    options.queue_depth = 256;
    options.tenant_quota = 256;
    options.fault_seed = fault_seed;
    options.quarantine_strikes = quarantine_strikes;
    options.cache_dir = cache_dir;
    metrics::Registry registry;
    TranslationService service(options, &registry);
    Replay out;
    std::map<std::uint64_t, Loop> loops;
    for (const auto& tick : trace.ticks) {
        for (const TraceRequest& request : tick) {
            auto it = loops.find(request.loop_seed);
            if (it == loops.end()) {
                it = loops.emplace(request.loop_seed,
                                   makeTraceLoop(request.loop_seed))
                         .first;
            }
            ServiceRequest submission;
            submission.tenant = request.tenant;
            submission.loop = it->second;
            submission.key = traceRequestKey(request);
            submission.mode = request.mode;
            submission.iterations = request.iterations;
            service.submit(std::move(submission));
        }
        service.drainTick();
        const auto& outcomes = service.lastTickOutcomes();
        out.outcomes.insert(out.outcomes.end(), outcomes.begin(),
                            outcomes.end());
    }
    service.shutdown();
    out.report = service.report();
    out.render = out.report.render();
    out.metrics = registry.toJson();
    for (const auto& tick : trace.ticks) {
        for (const TraceRequest& request : tick) {
            const std::string key = traceRequestKey(request);
            if (const auto entry = service.warmTier().find(key))
                out.profile_lengths[key] =
                    static_cast<int>(entry->cpu_profile.totals().size());
        }
    }
    return out;
}

/** Every admitted outcome's cpu_cycles against the frozen model. */
void
expectReferenceCpuCycles(const ServiceTrace& trace, const Replay& run)
{
    std::vector<TraceRequest> requests;
    for (const auto& tick : trace.ticks)
        requests.insert(requests.end(), tick.begin(), tick.end());
    ASSERT_EQ(run.outcomes.size(), requests.size());
    std::map<std::pair<std::uint64_t, std::int64_t>, std::int64_t> oracle;
    const CpuConfig cpu = ServiceOptions{}.cpu;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const TraceRequest& request = requests[i];
        const RequestOutcome& outcome = run.outcomes[i];
        ASSERT_EQ(outcome.admission, AdmissionOutcome::kAdmitted);
        const auto at = std::make_pair(request.loop_seed,
                                       request.iterations);
        auto it = oracle.find(at);
        if (it == oracle.end()) {
            it = oracle
                     .emplace(at, reference::simulateLoopOnCpu(
                                      makeTraceLoop(request.loop_seed),
                                      cpu, request.iterations)
                                      .total_cycles)
                     .first;
        }
        EXPECT_EQ(outcome.cpu_cycles, it->second)
            << "sequence " << outcome.sequence << " key " << outcome.key
            << " iterations " << request.iterations << " cache "
            << toString(outcome.cache);
    }
}

void
expectShapeInvariant(const Replay& narrow, const Replay& wide)
{
    EXPECT_EQ(wide.render, narrow.render);
    EXPECT_EQ(wide.metrics, narrow.metrics);
}

TEST(ServiceCpuPricing, CrossingCountsAcrossAndWithinTicksMatchTheReference)
{
    const ServiceTrace trace = makeCrossingTrace(12);
    const Replay narrow = replay(trace, {1, 1, 1});
    expectReferenceCpuCycles(trace, narrow);
    EXPECT_GT(narrow.report.coalesced, 0) << "same-tick twins coalesce";
    EXPECT_GT(narrow.report.warm, 0) << "later ticks serve warm";

    // Every key's first sight simulated the full window, so its entry
    // holds the full profile -- negative entries (rejected translations)
    // too.
    EXPECT_FALSE(narrow.report.rejects.empty());
    ASSERT_EQ(narrow.profile_lengths.size(), 2 * std::size(kSeeds));
    for (const auto& [key, length] : narrow.profile_lengths)
        EXPECT_EQ(length, kCpuSimIterations) << key;

    expectShapeInvariant(narrow, replay(trace, {8, 8, 3}));
}

TEST(ServiceCpuPricing, FirstSimulationLeavesAFullProfile)
{
    // One key, one request per tick: the first request's lane steps the
    // full window whatever its count, so the entry's profile is full
    // from the first tick on, prices every later count, and is never
    // replaced.
    ServiceOptions options;
    TranslationService service(options);
    TraceRequest stub;
    stub.loop_seed = kSeeds[0];
    const std::string key = traceRequestKey(stub);
    const Loop loop = makeTraceLoop(kSeeds[0]);
    const std::int32_t* first_totals = nullptr;
    for (const std::int64_t iterations : kCrossing) {
        ServiceRequest request;
        request.loop = loop;
        request.key = key;
        request.iterations = iterations;
        service.submit(std::move(request));
        service.drainTick();
        const auto entry = service.warmTier().find(key);
        ASSERT_NE(entry, nullptr);
        ASSERT_EQ(entry->cpu_profile.totals().size(),
                  static_cast<std::size_t>(kCpuSimIterations))
            << "after " << iterations << " iterations";
        if (first_totals == nullptr)
            first_totals = entry->cpu_profile.totals().data();
        EXPECT_EQ(entry->cpu_profile.totals().data(), first_totals)
            << "after " << iterations << " iterations";
        EXPECT_EQ(service.lastTickOutcomes()[0].cpu_cycles,
                  reference::simulateLoopOnCpu(loop, options.cpu,
                                               iterations)
                      .total_cycles);
    }
}

TEST(ServiceCpuPricing, QuarantinedPairsPriceLikeTheReference)
{
    // A 1-strike policy quarantines a (tenant, key) pair on its first
    // warm-image corruption; scan fault seeds (pure, so stable) for a
    // campaign that quarantines, then hold every outcome to the oracle.
    const ServiceTrace trace = makeCrossingTrace(16);
    std::optional<std::uint64_t> hit;
    for (std::uint64_t seed = 1; seed <= 200 && !hit; ++seed) {
        if (replay(trace, {1, 1, 1}, seed, 1).report.quarantined > 0)
            hit = seed;
    }
    ASSERT_TRUE(hit.has_value()) << "no quarantine in 200 campaigns";

    const Replay narrow = replay(trace, {1, 1, 1}, hit, 1);
    EXPECT_GT(narrow.report.quarantined, 0);
    EXPECT_GT(narrow.report.invalidated + narrow.report.quarantined, 0);
    expectReferenceCpuCycles(trace, narrow);
    expectShapeInvariant(narrow, replay(trace, {8, 8, 3}, hit, 1));
}

TEST(ServiceCpuPricing, PersistedServesAfterARestartMatchTheReference)
{
    const fs::path dir =
        fs::temp_directory_path() / "veal-service-cpu-pricing";
    fs::remove_all(dir);
    const ServiceTrace trace = makeCrossingTrace(9);

    const Replay cold = replay(trace, {1, 1, 1}, std::nullopt, 2,
                               dir.string());
    expectReferenceCpuCycles(trace, cold);
    EXPECT_EQ(cold.report.persisted, 0);

    // Profiles are persisted: the restart prices each key's first
    // sight from its blob's profile, and later ticks from the
    // rehydrated entry, which took the blob's profile along.
    const Replay warm = replay(trace, {1, 1, 1}, std::nullopt, 2,
                               dir.string());
    EXPECT_GT(warm.report.persisted, 0);
    EXPECT_EQ(warm.report.cold, 0);
    expectReferenceCpuCycles(trace, warm);

    const Replay wide = replay(trace, {8, 8, 3}, std::nullopt, 2,
                               dir.string());
    expectShapeInvariant(warm, wide);
    fs::remove_all(dir);
}

TEST(ServiceCpuPricing, RestartPricesFromTheStoredProfileOfItsOwnCpu)
{
    // A cold run persists one key; its record is then re-saved with a
    // crafted profile -- consistent, but no loop's.  A restart that
    // prices the key at the crafted totals read them from the store: a
    // simulation would have priced the reference.  Saved under another
    // CPU's signature, the same record is ignored.
    const fs::path dir =
        fs::temp_directory_path() / "veal-service-stored-profile";
    fs::remove_all(dir);
    ServiceTrace trace;
    TraceRequest request;
    request.loop_seed = kSeeds[0];
    request.iterations = 5;
    trace.ticks.push_back({request});
    const std::string key = traceRequestKey(request);
    const CpuConfig cpu = ServiceOptions{}.cpu;
    replay(trace, {1, 1, 1}, std::nullopt, 2, dir.string());

    std::int64_t totals[kCpuSimIterations];
    for (int k = 0; k < kCpuSimIterations; ++k)
        totals[k] = 1000 * (k + 1) + 7;
    const CpuProfile crafted(totals, 32 * 999);

    ServiceTrace restart;
    for (const std::int64_t iterations : {1, 5, 64, 96, 97, 100000}) {
        request.iterations = iterations;
        restart.ticks.push_back({request});
    }
    const Loop loop = makeTraceLoop(kSeeds[0]);
    for (const bool own_cpu : {true, false}) {
        {
            persist::PersistentStore store(dir.string(), {});
            std::optional<persist::PersistedImage> record = store.load(key);
            ASSERT_TRUE(record.has_value());
            ASSERT_FALSE(record->cpu_profile.empty())
                << "the cold run persisted its profile";
            ASSERT_EQ(record->cpu_signature, persist::cpuSignature(cpu));
            record->cpu_profile = crafted;
            record->cpu_signature = persist::cpuSignature(
                own_cpu ? cpu : CpuConfig::cortexA8());
            ASSERT_TRUE(store.save(*record));
        }
        const Replay warm =
            replay(restart, {1, 1, 1}, std::nullopt, 2, dir.string());
        ASSERT_EQ(warm.outcomes.size(), restart.ticks.size());
        EXPECT_EQ(warm.outcomes[0].cache, CacheOutcome::kPersisted);
        for (std::size_t t = 0; t < restart.ticks.size(); ++t) {
            const std::int64_t iterations = restart.ticks[t][0].iterations;
            const std::int64_t expected =
                own_cpu ? crafted.totalAt(iterations)
                        : reference::simulateLoopOnCpu(loop, cpu, iterations)
                              .total_cycles;
            ASSERT_NE(crafted.totalAt(iterations),
                      reference::simulateLoopOnCpu(loop, cpu, iterations)
                          .total_cycles);
            EXPECT_EQ(warm.outcomes[t].cpu_cycles, expected)
                << (own_cpu ? "own" : "other") << " CPU, iterations "
                << iterations;
        }
    }
    fs::remove_all(dir);
}

}  // namespace
}  // namespace veal
