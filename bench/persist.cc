#include "bench/persist.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "veal/service/service.h"
#include "veal/service/trace.h"
#include "veal/support/assert.h"
#include "veal/support/fnv.h"
#include "veal/vm/persist/store.h"

namespace veal::bench {

namespace {

/** The fixed study trace: big enough that every tenant's working set
    cycles through warm, coalesced, and persisted outcomes. */
constexpr int kRequests = 1024;
constexpr int kLoops = 24;
constexpr int kTenants = 4;
constexpr int kTickSize = 32;
constexpr std::uint64_t kTraceSeed = 0xbeefcafe17ull;

/** Warm-matrix shapes: the report must not care about any of these. */
struct Shape {
    int shards;
    int threads;
    int batch;
};
constexpr Shape kMatrix[] = {
    {1, 1, 1}, {2, 1, 16}, {4, 3, 5}, {8, 4, 64}};

/** Lifecycle churn: every key re-saved this many extra generations. */
constexpr int kChurnRounds = 3;

/** Small segments for the churn pass so compaction has real work. */
constexpr std::int64_t kChurnSegmentBytes = 4096;

ServiceOptions
makeOptions(const std::string& cache_dir, const Shape& shape)
{
    ServiceOptions options;
    options.shards = shape.shards;
    options.threads = shape.threads;
    options.batch = shape.batch;
    options.cache_dir = cache_dir;
    return options;
}

/** One full service run; returns the rendered report. */
std::string
runOnce(const ServiceTrace& trace, const ServiceOptions& options,
        ServiceReport* report_out, double* wall_ms)
{
    using Clock = std::chrono::steady_clock;
    TranslationService service(options, nullptr);
    const auto start = Clock::now();
    service.run(trace);
    const double ms = std::chrono::duration<double, std::milli>(
                          Clock::now() - start)
                          .count();
    if (wall_ms != nullptr)
        *wall_ms = ms;
    service.flushPersistentStore();
    if (report_out != nullptr)
        *report_out = service.report();
    return service.report().render();
}

}  // namespace

ModeReport
runPersistBench(const ModeOptions& options)
{
    namespace fs = std::filesystem;

    TraceGenOptions gen;
    gen.requests = kRequests;
    gen.loop_pool = kLoops;
    gen.tenants = kTenants;
    gen.tick_size = kTickSize;
    gen.seed = kTraceSeed;
    const ServiceTrace trace = generateTrace(gen);

    std::error_code ec;
    const fs::path cache_dir =
        fs::temp_directory_path(ec) /
        ("veal-persist-bench-" +
         std::to_string(static_cast<long long>(
             std::chrono::steady_clock::now().time_since_epoch().count())));
    fs::remove_all(cache_dir, ec);

    // Phase 1: cold.  Fresh directory; every key translates and is
    // saved.  Re-run --runs times from scratch for the timing sample
    // (the report must come out identical every time).
    ServiceReport cold;
    std::string cold_render;
    std::vector<double> cold_wall_ms;
    for (int run = 0; run < options.runs; ++run) {
        fs::remove_all(cache_dir, ec);
        double ms = 0.0;
        std::string render = runOnce(
            trace, makeOptions(cache_dir.string(), kMatrix[1]), &cold,
            &ms);
        cold_wall_ms.push_back(ms);
        std::fprintf(stderr,
                     "veal-bench: persist cold pass %d/%d %.2f ms\n",
                     run + 1, options.runs, ms);
        if (run == 0) {
            cold_render = std::move(render);
        } else {
            VEAL_ASSERT(render == cold_render,
                        "cold report drifted across bench runs");
        }
    }
    VEAL_ASSERT(cold.persisted == 0,
                "a cold run served from a fresh store");

    // Phase 2: warm.  Fresh service over the populated store, --runs
    // timed passes; every pass must render the same bytes.
    ServiceReport warm;
    std::string warm_render;
    std::vector<double> warm_wall_ms;
    for (int run = 0; run < options.runs; ++run) {
        double ms = 0.0;
        std::string render = runOnce(
            trace, makeOptions(cache_dir.string(), kMatrix[1]), &warm,
            &ms);
        warm_wall_ms.push_back(ms);
        std::fprintf(stderr,
                     "veal-bench: persist warm pass %d/%d %.2f ms\n",
                     run + 1, options.runs, ms);
        if (run == 0) {
            warm_render = std::move(render);
        } else {
            VEAL_ASSERT(render == warm_render,
                        "warm report drifted across restarts");
        }
    }

    // Phase 3: the warm matrix.  The service contract says the report
    // never depends on --shards/--threads/--batch; the persistent store
    // must not break that.
    for (const Shape& shape : kMatrix) {
        const std::string render = runOnce(
            trace, makeOptions(cache_dir.string(), shape), nullptr,
            nullptr);
        VEAL_ASSERT(render == warm_render,
                    "warm report depends on the service shape (shards=",
                    shape.shards, " threads=", shape.threads,
                    " batch=", shape.batch, ")");
    }

    // Phase 4a: recovery.  Time a bare store open over the populated
    // directory -- this is the warm-restart tax before the first
    // request can be served.
    std::int64_t recovered = 0;
    std::vector<double> recover_wall_ms;
    for (int run = 0; run < options.runs; ++run) {
        using Clock = std::chrono::steady_clock;
        const auto start = Clock::now();
        persist::PersistentStore store(cache_dir.string(),
                                       persist::StoreOptions{});
        const double ms = std::chrono::duration<double, std::milli>(
                              Clock::now() - start)
                              .count();
        recover_wall_ms.push_back(ms);
        if (run == 0) {
            recovered = store.size();
        } else {
            VEAL_ASSERT(store.size() == recovered,
                        "recovery drifted across reopens");
        }
    }

    // Phase 4b: churn + compaction.  Re-save every live key for a few
    // generations over small segments (each re-save strands the prior
    // record as garbage).  At 100% the store auto-compacts only fully-
    // garbage segments, so the log tracks the live set through the
    // churn; compactNow() then drains the mixed stragglers.  The byte
    // counts are pure functions of the trace, so they are modeled.
    std::int64_t churn_log_bytes = 0;
    std::int64_t compacted_log_bytes = 0;
    std::int64_t reclaimed_bytes = 0;
    std::int64_t compactions = 0;
    {
        persist::StoreOptions store_options;
        store_options.segment_bytes = kChurnSegmentBytes;
        store_options.compact_garbage_percent = 100;
        persist::PersistentStore store(cache_dir.string(), store_options);
        for (int round = 0; round < kChurnRounds; ++round) {
            for (const std::string& key : store.keys()) {
                const auto image = store.load(key);
                VEAL_ASSERT(image.has_value(),
                            "a recovered key failed to load during churn");
                VEAL_ASSERT(store.save(*image),
                            "a churn re-save was not acked");
            }
        }
        churn_log_bytes = store.stats().log_bytes;
        while (store.compactNow()) {
        }
        const persist::StoreStats stats = store.stats();
        compacted_log_bytes = stats.log_bytes;
        reclaimed_bytes = stats.reclaimed_bytes;
        compactions = stats.compactions;
        VEAL_ASSERT(reclaimed_bytes > 0,
                    "compaction reclaimed nothing from a churned log");
        VEAL_ASSERT(compacted_log_bytes <= churn_log_bytes,
                    "the compacted log grew");
        VEAL_ASSERT(store.size() == recovered,
                    "churn + compaction changed the live set");
    }

    fs::remove_all(cache_dir, ec);

    // The warm-start contract: the store serves every translated key,
    // so a warm run performs no translation work at all.
    VEAL_ASSERT(warm.translation_cycles == 0,
                "warm run still translated (",
                warm.translation_cycles, " cycles)");
    VEAL_ASSERT(warm.persisted > 0, "warm run never hit the store");

    const auto digest = [](const std::string& render) {
        return hex(fnvBytes(render.data(), render.size()));
    };
    ModeReport report;
    report.modeled.add("requests", kRequests)
        .add("loops", kLoops)
        .add("tenants", kTenants)
        .add("cold_translation_cycles", cold.translation_cycles)
        .add("warm_translation_cycles", warm.translation_cycles)
        .add("translation_cycle_ratio",
             cold.translation_cycles /
                 std::max<std::int64_t>(warm.translation_cycles, 1))
        .add("cold_persisted", cold.cold + cold.coalesced)
        .add("warm_persisted", warm.persisted)
        .add("cold_report_digest", digest(cold_render))
        .add("warm_report_digest", digest(warm_render))
        .add("recovered_entries", recovered)
        .add("churn_rounds", kChurnRounds)
        .add("churn_log_bytes", churn_log_bytes)
        .add("compacted_log_bytes", compacted_log_bytes)
        .add("compaction_reclaimed_bytes", reclaimed_bytes)
        .add("compactions", compactions);
    report.wall.add("cold_p50_ms", p50(cold_wall_ms))
        .add("warm_p50_ms", p50(warm_wall_ms))
        .add("recover_p50_ms", p50(recover_wall_ms));
    return report;
}

}  // namespace veal::bench
