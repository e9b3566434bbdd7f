/**
 * The determinism contract of the translation service, tested as a
 * property: for 500 generated multi-tenant traces, the rendered report,
 * the metrics-registry snapshot, and every per-tenant digest are
 * byte-identical at every point of the shards {1,2,8} x threads {1,8}
 * x batch {1,64} matrix.  A third of the traces run with the fault
 * stream armed, so corruption/degradation under concurrency is held to
 * the same standard, and every request carries its own iteration count
 * drawn across the CPU model's 96-iteration window, so the memoized
 * full-window CPU profiles are read inside the window and extrapolated
 * past it under every shape.
 */

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "veal/service/service.h"
#include "veal/service/trace.h"
#include "veal/support/metrics/metrics.h"
#include "veal/support/rng.h"

namespace veal {
namespace {

constexpr int kShards[] = {1, 2, 8};
constexpr int kThreads[] = {1, 8};
constexpr int kBatches[] = {1, 64};

/**
 * Test-local rewrite of @p trace: each request gets its own iteration
 * count, drawn on both sides of the CPU model's window (exact seams
 * included), so one key is priced below, at and past the window.
 */
void
spreadIterations(ServiceTrace& trace, std::uint64_t seed)
{
    static constexpr std::int64_t kCounts[] = {1,  2,  5,  31,  63,  64,
                                               65, 95, 96, 97, 200, 100000};
    Rng rng(seed ^ 0x17e5ull);
    for (auto& tick : trace.ticks) {
        for (auto& request : tick)
            request.iterations = kCounts[rng.nextBelow(std::size(kCounts))];
    }
}

struct RunSnapshot {
    std::string render;
    std::string metrics;
    std::map<int, std::uint64_t> digests;
};

RunSnapshot
runOnce(const ServiceTrace& trace, int shards, int threads, int batch,
        std::optional<std::uint64_t> fault_seed)
{
    metrics::Registry registry;
    ServiceOptions options;
    options.shards = shards;
    options.threads = threads;
    options.batch = batch;
    options.shard_cache_entries = 4;  // Small: force evictions too.
    options.fault_seed = fault_seed;
    TranslationService service(options, &registry);
    const ServiceReport& report = service.run(trace);

    RunSnapshot snapshot;
    snapshot.render = report.render();
    snapshot.metrics = registry.toJson();
    for (const auto& [tenant, tenant_report] : report.tenants)
        snapshot.digests[tenant] = tenant_report.digest;
    return snapshot;
}

TEST(ServiceDeterminism, FiveHundredTracesAcrossTheWholeMatrix)
{
    for (std::uint64_t seed = 1; seed <= 500; ++seed) {
        TraceGenOptions gen;
        gen.seed = seed;
        gen.requests = 6 + static_cast<int>(seed % 6);
        gen.tenants = 3;
        gen.loop_pool = 3;
        gen.tick_size = 4;
        gen.iterations = 6;
        ServiceTrace trace = generateTrace(gen);
        spreadIterations(trace, seed);

        // Every third trace runs with per-request fault streams armed.
        const std::optional<std::uint64_t> fault_seed =
            (seed % 3 == 0) ? std::optional<std::uint64_t>(seed ^ 0xf5)
                            : std::nullopt;

        const RunSnapshot baseline = runOnce(trace, 1, 1, 1, fault_seed);
        for (int shards : kShards) {
            for (int threads : kThreads) {
                for (int batch : kBatches) {
                    if (shards == 1 && threads == 1 && batch == 1)
                        continue;
                    const RunSnapshot probe =
                        runOnce(trace, shards, threads, batch, fault_seed);
                    ASSERT_EQ(probe.render, baseline.render)
                        << "report diverged: seed " << seed << " shards "
                        << shards << " threads " << threads << " batch "
                        << batch;
                    ASSERT_EQ(probe.metrics, baseline.metrics)
                        << "metrics diverged: seed " << seed << " shards "
                        << shards << " threads " << threads << " batch "
                        << batch;
                    ASSERT_EQ(probe.digests, baseline.digests)
                        << "per-tenant digest diverged: seed " << seed
                        << " shards " << shards << " threads " << threads
                        << " batch " << batch;
                }
            }
        }
    }
}

TEST(ServiceDeterminism, ReportsAreReplayStable)
{
    // The same trace through two fresh services (same knobs) is
    // byte-identical -- no hidden global state leaks between runs.
    TraceGenOptions gen;
    gen.seed = 77;
    gen.requests = 24;
    gen.tenants = 4;
    gen.loop_pool = 4;
    gen.tick_size = 6;
    const ServiceTrace trace = generateTrace(gen);
    const RunSnapshot first = runOnce(trace, 2, 8, 16, 1234);
    const RunSnapshot second = runOnce(trace, 2, 8, 16, 1234);
    EXPECT_EQ(first.render, second.render);
    EXPECT_EQ(first.metrics, second.metrics);
}

}  // namespace
}  // namespace veal
