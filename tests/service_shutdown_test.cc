/**
 * Graceful service shutdown: a flipped stop flag ends run() at a tick
 * boundary with every admitted request fully drained and the store
 * flushed; beginShutdown() stops admitting so later submissions bounce
 * through the normal backpressure path; and a stopped run's store is
 * immediately warm-startable by the next process.
 */

#include <atomic>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "veal/service/service.h"
#include "veal/service/trace.h"
#include "veal/support/metrics/metrics.h"
#include "veal/vm/persist/store.h"

namespace veal {
namespace {

namespace fs = std::filesystem;

class ServiceShutdownTest : public ::testing::Test {
  protected:
    void
    SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("veal-shutdown-test-" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()));
        fs::remove_all(dir_);
    }

    void
    TearDown() override
    {
        fs::remove_all(dir_);
    }

    fs::path dir_;
};

ServiceTrace
makeTrace(std::uint64_t seed = 3, int requests = 160)
{
    TraceGenOptions gen;
    gen.seed = seed;
    gen.requests = requests;
    gen.tenants = 3;
    gen.loop_pool = 6;
    gen.tick_size = 16;
    return generateTrace(gen);
}

ServiceRequest
makeRequest(const TranslationService&, std::uint64_t loop_seed)
{
    ServiceRequest request;
    request.tenant = 0;
    request.loop = makeTraceLoop(loop_seed);
    TraceRequest stub;
    stub.tenant = 0;
    stub.loop_seed = loop_seed;
    request.key = traceRequestKey(stub);
    return request;
}

TEST_F(ServiceShutdownTest, StopFlagEndsRunAtATickBoundary)
{
    const ServiceTrace trace = makeTrace();

    // Baseline: the full trace, no stop.
    ServiceOptions options;
    options.cache_dir = (dir_ / "full").string();
    TranslationService full(options);
    full.run(trace);
    const std::int64_t all_ticks = full.report().ticks;
    ASSERT_GT(all_ticks, 1);

    // A pre-flipped flag: run() stops before the first tick.
    std::atomic<bool> stop{true};
    ServiceOptions stopped_options;
    stopped_options.cache_dir = (dir_ / "stopped").string();
    stopped_options.stop = &stop;
    metrics::Registry registry;
    TranslationService stopped(stopped_options, &registry);
    stopped.run(trace);
    EXPECT_TRUE(stopped.shuttingDown());
    EXPECT_EQ(stopped.report().ticks, 0);
    EXPECT_EQ(stopped.report().submitted, 0);
    EXPECT_EQ(registry.counter("service.shutdowns"), 1);
}

TEST_F(ServiceShutdownTest, DirectDriveShutdownDrainsTheInflightTick)
{
    ServiceOptions options;
    options.cache_dir = dir_.string();
    metrics::Registry registry;
    TranslationService service(options, &registry);

    // Submit a tick's worth of work but do NOT drain -- this is the
    // in-flight state a signal interrupts.
    ASSERT_EQ(service.submit(makeRequest(service, 101)),
              AdmissionOutcome::kAdmitted);
    ASSERT_EQ(service.submit(makeRequest(service, 102)),
              AdmissionOutcome::kAdmitted);

    service.shutdown();

    // The in-flight submissions were fully drained and accounted.
    EXPECT_EQ(service.report().submitted, 2);
    EXPECT_EQ(service.report().admitted, 2);
    EXPECT_EQ(service.report().ticks, 1);
    EXPECT_EQ(service.report().cold, 2);
    EXPECT_EQ(static_cast<int>(service.lastTickOutcomes().size()), 2);

    // Admission is closed: later submissions bounce as queue-full (the
    // normal backpressure path -- no new caller-side handling).
    EXPECT_EQ(service.submit(makeRequest(service, 103)),
              AdmissionOutcome::kQueueFull);

    // shutdown() is idempotent and the drained work stayed accounted.
    service.shutdown();
    EXPECT_EQ(service.report().admitted, 2);
    EXPECT_EQ(registry.counter("service.shutdowns"), 1);
}

TEST_F(ServiceShutdownTest, ShutdownFlushesTheStoreForTheNextProcess)
{
    {
        ServiceOptions options;
        options.cache_dir = dir_.string();
        TranslationService service(options);
        service.submit(makeRequest(service, 7));
        service.submit(makeRequest(service, 8));
        service.shutdown();
        // The store was flushed by shutdown(), not the destructor:
        // the manifest snapshot is already durable here.
        EXPECT_TRUE(fs::exists(dir_ / "MANIFEST.log"));
    }
    // The next "process" warm-starts from the drained tick's saves.
    persist::PersistentStore store(dir_.string(),
                                   persist::StoreOptions{});
    EXPECT_EQ(store.size(), 2);
    for (const std::string& key : store.keys())
        EXPECT_TRUE(store.load(key).has_value()) << key;
}

TEST_F(ServiceShutdownTest, StoppedPrefixReportMatchesAnUnstoppedPrefix)
{
    // Stopping after tick N must produce the exact report of running
    // the first N ticks -- nothing half-accounted.  Drive the service
    // tick by tick and flip the flag midway.
    const ServiceTrace trace = makeTrace();
    const int cut = static_cast<int>(trace.ticks.size()) / 2;
    ASSERT_GT(cut, 0);

    // Reference: the first `cut` ticks, plain run.
    ServiceTrace prefix;
    prefix.ticks.assign(trace.ticks.begin(), trace.ticks.begin() + cut);
    ServiceOptions ref_options;
    ref_options.cache_dir = (dir_ / "ref").string();
    TranslationService reference(ref_options);
    reference.run(prefix);
    reference.shutdown();

    // Stopped: full trace, flag flips once `cut` ticks are done.  The
    // flag is polled between ticks, so the run ends exactly there.
    std::atomic<bool> stop{false};
    ServiceOptions options;
    options.cache_dir = (dir_ / "stopped").string();
    options.stop = &stop;
    TranslationService stopped(options);
    std::map<std::uint64_t, Loop> loops;
    int ticks_done = 0;
    for (const auto& tick : trace.ticks) {
        if (ticks_done == cut)
            stop.store(true);
        if (stop.load()) {
            stopped.shutdown();
            break;
        }
        for (const auto& trace_request : tick) {
            auto it = loops.find(trace_request.loop_seed);
            if (it == loops.end())
                it = loops
                         .emplace(trace_request.loop_seed,
                                  makeTraceLoop(trace_request.loop_seed))
                         .first;
            ServiceRequest request;
            request.tenant = trace_request.tenant;
            request.loop = it->second;
            request.key = traceRequestKey(trace_request);
            request.mode = trace_request.mode;
            request.iterations = trace_request.iterations;
            stopped.submit(std::move(request));
        }
        stopped.drainTick();
        ++ticks_done;
    }

    EXPECT_EQ(stopped.report().render(), reference.report().render());
}

}  // namespace
}  // namespace veal
