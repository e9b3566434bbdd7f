/**
 * The cross-run persistence contract of the translation service: a
 * `cache_dir` run populates the on-disk store, a fresh service over the
 * same directory warm-starts with zero translation cycles, warm reports
 * are byte-identical across restarts and the whole shards/threads/batch
 * matrix, corruption degrades through the quarantine ladder (committing
 * the drop so nothing resurrects), eviction extends to disk, and a
 * second service on a locked directory serves from a read-only tier.
 */

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "veal/service/service.h"
#include "veal/service/trace.h"
#include "veal/support/metrics/metrics.h"
#include "veal/vm/persist/store.h"

namespace veal {
namespace {

namespace fs = std::filesystem;

class ServicePersistTest : public ::testing::Test {
  protected:
    void
    SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("veal-service-persist-" +
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

    std::string
    cacheDir() const
    {
        return dir_.string();
    }

    fs::path dir_;
};

ServiceTrace
makeTrace(std::uint64_t seed = 11, int requests = 192)
{
    TraceGenOptions gen;
    gen.seed = seed;
    gen.requests = requests;
    gen.tenants = 3;
    gen.loop_pool = 8;
    gen.tick_size = 16;
    gen.iterations = 12;
    return generateTrace(gen);
}

ServiceOptions
makeOptions(const std::string& cache_dir, int shards = 2, int threads = 1,
            int batch = 16)
{
    ServiceOptions options;
    options.shards = shards;
    options.threads = threads;
    options.batch = batch;
    options.cache_dir = cache_dir;
    return options;
}

struct RunResult {
    ServiceReport report;
    std::string render;
    std::string metrics;
};

RunResult
runService(const ServiceTrace& trace, const ServiceOptions& options)
{
    metrics::Registry registry;
    TranslationService service(options, &registry);
    service.run(trace);
    service.flushPersistentStore();
    return {service.report(), service.report().render(),
            registry.toJson()};
}

TEST_F(ServicePersistTest, ColdRunPopulatesTheStore)
{
    const ServiceTrace trace = makeTrace();
    const RunResult cold = runService(trace, makeOptions(cacheDir()));
    EXPECT_EQ(cold.report.persisted, 0)
        << "nothing can be served from an empty store";
    EXPECT_GT(cold.report.translation_cycles, 0);
    // The run left a durable log-structured store behind: a manifest
    // log plus at least one segment file.
    EXPECT_TRUE(fs::exists(fs::path(cacheDir()) / "MANIFEST.log"));
    EXPECT_TRUE(fs::exists(fs::path(cacheDir()) / "seg-0.vlog"));
    // One save per fresh job: coalesced twins ride their provider.
    persist::PersistentStore store(cacheDir(), persist::StoreOptions{});
    EXPECT_EQ(store.size(), cold.report.cold);
}

TEST_F(ServicePersistTest, WarmStartIsTranslationFreeAndStable)
{
    const ServiceTrace trace = makeTrace();
    const RunResult cold = runService(trace, makeOptions(cacheDir()));

    const RunResult warm1 = runService(trace, makeOptions(cacheDir()));
    const RunResult warm2 = runService(trace, makeOptions(cacheDir()));

    // Warm runs serve every first-sight key from the store.
    EXPECT_EQ(warm1.report.translation_cycles, 0);
    EXPECT_EQ(warm1.report.cold, 0);
    EXPECT_EQ(warm1.report.coalesced, 0);
    EXPECT_EQ(warm1.report.persisted,
              cold.report.cold + cold.report.coalesced);
    // Execution-side pricing is unchanged by where the image came from.
    EXPECT_EQ(warm1.report.cpu_cycles, cold.report.cpu_cycles);
    EXPECT_EQ(warm1.report.la_warm_cycles, cold.report.la_warm_cycles);
    // Restarts are byte-identical, reports and metrics both.
    EXPECT_EQ(warm1.render, warm2.render);
    EXPECT_EQ(warm1.metrics, warm2.metrics);
}

TEST_F(ServicePersistTest, WarmReportIsIdenticalAcrossTheShapeMatrix)
{
    const ServiceTrace trace = makeTrace();
    runService(trace, makeOptions(cacheDir()));

    const RunResult baseline =
        runService(trace, makeOptions(cacheDir(), 1, 1, 1));
    for (const int shards : {2, 8}) {
        for (const int threads : {1, 4}) {
            for (const int batch : {1, 5, 64}) {
                const RunResult probe = runService(
                    trace,
                    makeOptions(cacheDir(), shards, threads, batch));
                EXPECT_EQ(probe.render, baseline.render)
                    << "shards=" << shards << " threads=" << threads
                    << " batch=" << batch;
                EXPECT_EQ(probe.metrics, baseline.metrics)
                    << "shards=" << shards << " threads=" << threads
                    << " batch=" << batch;
            }
        }
    }
}

TEST_F(ServicePersistTest, PersistedOutcomeFeedsTenantAccounting)
{
    const ServiceTrace trace = makeTrace();
    runService(trace, makeOptions(cacheDir()));
    const RunResult warm = runService(trace, makeOptions(cacheDir()));

    std::int64_t tenant_persisted = 0;
    for (const auto& [tenant, stats] : warm.report.tenants)
        tenant_persisted += stats.persisted;
    EXPECT_EQ(tenant_persisted, warm.report.persisted)
        << "per-tenant persisted counts must sum to the report total";
    EXPECT_GT(warm.report.warm, 0)
        << "store loads must rehydrate the warm tier for later ticks";
}

TEST_F(ServicePersistTest, CorruptBlobDegradesAndNeverResurrects)
{
    const ServiceTrace trace = makeTrace();
    runService(trace, makeOptions(cacheDir()));

    // Corrupt one record's payload in its segment file (a real bit
    // flip, not an injected probe).
    {
        persist::PersistentStore store(cacheDir(),
                                       persist::StoreOptions{});
        const auto keys = store.keys();
        ASSERT_FALSE(keys.empty());
        const auto location = store.recordLocation(keys.front());
        ASSERT_TRUE(location.has_value());
        std::fstream file(location->path, std::ios::in | std::ios::out |
                                              std::ios::binary);
        const std::int64_t at = location->offset + 18;
        file.seekg(at);
        char byte = 0;
        file.get(byte);
        file.seekp(at);
        file.put(static_cast<char>(byte ^ 0x20));
    }

    const RunResult repaired = runService(trace, makeOptions(cacheDir()));
    // The corrupted key re-translates (cold), everything else persists.
    EXPECT_GT(repaired.report.translation_cycles, 0);
    EXPECT_GT(repaired.report.persisted, 0);
    EXPECT_GT(repaired.report.cold + repaired.report.coalesced, 0);

    const RunResult warm = runService(trace, makeOptions(cacheDir()));
    EXPECT_EQ(warm.report.translation_cycles, 0)
        << "repair must re-save the re-translated key";
}

TEST_F(ServicePersistTest, InjectedCorruptionOnPersistedServeInvalidates)
{
    // Arm the fault stream: kCacheCorruption probes now also fire on
    // persisted serves, which must invalidate the store entry (deleting
    // the blob), purge the shard caches, and re-translate -- while the
    // report stays shape-independent (the determinism property test
    // covers that; here we pin the persist-side bookkeeping).
    const ServiceTrace trace = makeTrace(23);
    runService(trace, makeOptions(cacheDir()));

    ServiceOptions faulted = makeOptions(cacheDir());
    faulted.fault_seed = 99;
    const RunResult warm = runService(trace, faulted);
    if (warm.report.invalidated + warm.report.quarantined == 0)
        GTEST_SKIP() << "fault stream never drew a corruption probe";
    EXPECT_GT(warm.report.translation_cycles, 0)
        << "an invalidated persisted image must re-translate";
}

ServiceTrace
traceOfSeeds(const std::vector<int>& seeds)
{
    std::string text = "veal-trace-v1\n";
    for (const int seed : seeds)
        text += "tick\nsubmit tenant=0 seed=" + std::to_string(seed) +
                "\n";
    auto parsed = parseTrace(text);
    return std::get<ServiceTrace>(std::move(parsed));
}

TEST_F(ServicePersistTest, StoreCapacityEvictionNeverResurrects)
{
    // Eight distinct keys through a four-entry store: save order
    // 1..8, so the probation tail evicts 1..4 and 5..8 survive on
    // disk.  Deterministic by construction -- no random trace.
    ServiceOptions tiny = makeOptions(cacheDir());
    tiny.store.max_entries = 4;
    const RunResult cold =
        runService(traceOfSeeds({1, 2, 3, 4, 5, 6, 7, 8}), tiny);
    ASSERT_EQ(cold.report.cold, 8);

    // Only 4 entries may remain; the evictions were committed to the
    // manifest log, so a reopen agrees.
    {
        persist::PersistentStore store(cacheDir(), tiny.store);
        EXPECT_EQ(store.size(), 4);
    }

    // Replay most-recent-first: the four survivors serve from disk,
    // the four evicted keys re-translate (an evicted entry never
    // resurrects), and nothing crashes along the way.
    const RunResult warm =
        runService(traceOfSeeds({8, 7, 6, 5, 4, 3, 2, 1}), tiny);
    EXPECT_EQ(warm.report.persisted, 4);
    EXPECT_EQ(warm.report.cold, 4);
    EXPECT_GT(warm.report.translation_cycles, 0);
    EXPECT_LT(warm.report.translation_cycles,
              cold.report.translation_cycles)
        << "the surviving entries must still save their translations";
}

TEST_F(ServicePersistTest, PersistenceOffLeavesReportsUntouched)
{
    // The whole feature is opt-in: without cache_dir the report must be
    // bit-identical to what the service produced before persistence
    // existed (pinned implicitly by the golden service tests; here we
    // pin that the no-cache-dir path writes nothing to disk).
    const ServiceTrace trace = makeTrace();
    ServiceOptions options;
    options.shards = 2;
    const RunResult plain = runService(trace, options);
    EXPECT_EQ(plain.report.persisted, 0);
    EXPECT_FALSE(fs::exists(dir_));
}

TEST_F(ServicePersistTest, SecondServiceOnTheSameDirServesReadOnly)
{
    // Two veal-serve processes pointed at one --cache-dir: the first
    // owns the flock; the second degrades to a read-only cache tier --
    // it still *serves* persisted images, just never writes.
    const ServiceTrace trace = makeTrace();
    runService(trace, makeOptions(cacheDir()));  // Populate.

    metrics::Registry writer_registry;
    TranslationService writer(makeOptions(cacheDir()),
                              &writer_registry);
    ASSERT_NE(writer.persistentStore(), nullptr);
    ASSERT_FALSE(writer.persistentStore()->readOnly());

    metrics::Registry reader_registry;
    TranslationService reader(makeOptions(cacheDir()),
                              &reader_registry);
    ASSERT_NE(reader.persistentStore(), nullptr);
    EXPECT_TRUE(reader.persistentStore()->readOnly());
    EXPECT_EQ(reader_registry.counter("vm.persist.readonly"), 1);

    // The read-only tier still warm-starts the reader.
    reader.run(trace);
    EXPECT_EQ(reader.report().translation_cycles, 0)
        << "read-only tier must still serve persisted images";
    EXPECT_GT(reader.report().persisted, 0);

    // The writer is undisturbed: same directory, still writable, and a
    // run through it produces the canonical warm report.
    writer.run(trace);
    EXPECT_FALSE(writer.persistentStore()->readOnly());
    EXPECT_EQ(writer.report().translation_cycles, 0);
    EXPECT_EQ(writer.report().render(), reader.report().render())
        << "a read-only warm run must not diverge from the writer's";

    // A reader that translates *new* keys skips (and counts) every
    // persist instead of erroring.
    metrics::Registry fresh_registry;
    TranslationService fresh_reader(makeOptions(cacheDir()),
                                    &fresh_registry);
    ASSERT_TRUE(fresh_reader.persistentStore()->readOnly());
    fresh_reader.run(makeTrace(31));  // Unseen seed: cold translations.
    EXPECT_GT(fresh_reader.report().cold, 0);
    EXPECT_GT(fresh_registry.counter("vm.persist.readonly_skips"), 0)
        << "skipped persists must be counted, not silent";
}

TEST_F(ServicePersistTest, TlbChargesAreOffByDefaultAndMeteredWhenOn)
{
    const ServiceTrace trace = makeTrace();
    const RunResult off = runService(trace, makeOptions(cacheDir()));
    EXPECT_EQ(off.report.tlb_pages, 0);
    EXPECT_EQ(off.report.tlb_walks, 0);
    EXPECT_EQ(off.report.tlb_cycles, 0);

    // A fresh directory: the TLB-on cold run must actually translate
    // (the off run above already populated cacheDir()).
    const std::string tlb_dir = (dir_ / "tlb").string();
    ServiceOptions with_tlb = makeOptions(tlb_dir);
    with_tlb.tlb = TlbConfig::proposed();
    with_tlb.tlb.entries = 1;  // Tiny TLB: warm re-walks too.
    const RunResult on = runService(trace, with_tlb);
    EXPECT_GT(on.report.tlb_pages, 0);
    EXPECT_GT(on.report.tlb_walks, 0);
    EXPECT_EQ(on.report.tlb_cycles,
              on.report.tlb_walks * with_tlb.tlb.walk_cycles);
    // TLB charges ride on execution pricing, never translation.
    EXPECT_EQ(on.report.translation_cycles,
              off.report.translation_cycles);
    EXPECT_GT(on.report.la_warm_cycles, off.report.la_warm_cycles);

    // A warm start prices TLB from the persisted summary strides.  It
    // charges no first-invocation walks (nothing translates), so its
    // totals sit below the cold TLB run -- but every warm price equals
    // the in-process one, and warm restarts agree with each other bit
    // for bit.
    const RunResult on_warm1 = runService(trace, with_tlb);
    const RunResult on_warm2 = runService(trace, with_tlb);
    EXPECT_GT(on_warm1.report.tlb_cycles, 0);
    EXPECT_LT(on_warm1.report.tlb_walks, on.report.tlb_walks);
    EXPECT_EQ(on_warm1.report.la_warm_cycles, on.report.la_warm_cycles);
    EXPECT_EQ(on_warm1.render, on_warm2.render);
    EXPECT_EQ(on_warm1.metrics, on_warm2.metrics);
}

}  // namespace
}  // namespace veal
