/**
 * Golden fleet-placement snapshots plus the persisted-score round trip.
 *
 * Every `tests/corpus/seed-*.veal` loop is scored and steered under
 * each preset fleet ("baseline" and "standard") and summarised as one
 * line: the chosen backend, the winning II, and the translation mode.
 * The lines are compared against `tests/golden/fleet_placements.golden`
 * so any change to a preset shape, the scoring kernel, or the steering
 * order moves a visible diff instead of drifting silently.
 *
 * To refresh after an intentional change:
 *
 *     VEAL_UPDATE_GOLDEN=1 ./build/tests/fleet_golden_test
 *
 * The second half pins the v2-blob contract end to end: a service run
 * with --fleet against a fresh store persists its score sets, and a
 * restart over the same store rehydrates every placement without
 * computing a single score (fleet_scores_computed == 0), with the
 * placement histogram and per-tenant digests byte-identical.
 */

#include <cstdint>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "tests/testing/golden.h"
#include "veal/arch/cpu_config.h"
#include "veal/fleet/fleet.h"
#include "veal/fuzz/corpus.h"
#include "veal/service/service.h"
#include "veal/service/trace.h"
#include "veal/sim/tlb_model.h"

#ifndef VEAL_CORPUS_DIR
#error "VEAL_CORPUS_DIR must point at tests/corpus"
#endif
#ifndef VEAL_GOLDEN_DIR
#error "VEAL_GOLDEN_DIR must point at tests/golden"
#endif

namespace veal {
namespace {

constexpr std::int64_t kIterations = 12;

/** One snapshot line per (fleet, corpus case), no trailing newline. */
std::string
snapshotLine(const std::string& fleet_name,
             const fleet::FleetConfig& config, const std::string& stem,
             const CorpusCase& repro)
{
    const fleet::BackendScorer scorer(config, CpuConfig{}, TlbConfig{},
                                      kIterations);
    fleet::FleetSteerer steerer(config);
    const persist::FleetScoreSet set =
        scorer.score(repro.loop, repro.mode);
    const fleet::Placement placement = steerer.place(stem, set);

    std::ostringstream os;
    os << fleet_name << " " << stem << " mode=" << toString(repro.mode);
    if (placement.unscored) {
        os << " backend=cpu-ladder reject="
           << toString(set.backends.empty()
                           ? TranslationReject::kNone
                           : set.backends[0].reject);
        return os.str();
    }
    const auto chosen = static_cast<std::size_t>(placement.backend);
    os << " backend="
       << config.backends[chosen].la.name
       << " ii=" << set.backends[chosen].ii
       << " warm=" << set.backends[chosen].warm_cycles;
    return os.str();
}

TEST(FleetGolden, CorpusPlacementsMatchSnapshots)
{
    const auto files = listCorpusFiles(VEAL_CORPUS_DIR);
    ASSERT_FALSE(files.empty()) << "no corpus at " VEAL_CORPUS_DIR;

    const std::pair<std::string, fleet::FleetConfig> fleets[] = {
        {"baseline", fleet::FleetConfig::baselineOnly()},
        {"standard", fleet::FleetConfig::standard()},
    };

    std::ostringstream actual;
    for (const auto& [fleet_name, config] : fleets) {
        for (const auto& path : files) {
            const auto parsed = loadCorpusFile(path);
            ASSERT_TRUE(std::holds_alternative<CorpusCase>(parsed))
                << path << ": " << std::get<std::string>(parsed);
            const auto stem =
                std::filesystem::path(path).stem().string();
            actual << snapshotLine(fleet_name, config, stem,
                                   std::get<CorpusCase>(parsed))
                   << "\n";
        }
    }

    VEAL_EXPECT_GOLDEN(actual.str(), "fleet_placements.golden", "fleet placements");
}

TEST(FleetGolden, SnapshotsAreDeterministic)
{
    const auto files = listCorpusFiles(VEAL_CORPUS_DIR);
    ASSERT_FALSE(files.empty());
    const auto parsed = loadCorpusFile(files.front());
    ASSERT_TRUE(std::holds_alternative<CorpusCase>(parsed));
    const auto& repro = std::get<CorpusCase>(parsed);
    const auto config = fleet::FleetConfig::standard();
    EXPECT_EQ(snapshotLine("standard", config, "case", repro),
              snapshotLine("standard", config, "case", repro));
}

struct FleetRun {
    std::string render;
    std::map<std::string, std::int64_t> placed;
    std::int64_t scores_computed = 0;
    std::int64_t scores_persisted = 0;
    std::map<int, std::uint64_t> digests;
};

FleetRun
runWithStore(const ServiceTrace& trace, const std::string& cache_dir)
{
    ServiceOptions options;
    options.shards = 2;
    options.threads = 2;
    options.batch = 8;
    options.cache_dir = cache_dir;
    options.fleet = fleet::FleetConfig::standard();
    TranslationService service(options, nullptr);
    const ServiceReport& report = service.run(trace);
    service.flushPersistentStore();

    FleetRun run;
    run.render = report.render();
    run.placed = report.fleet_placed;
    run.scores_computed = report.fleet_scores_computed;
    run.scores_persisted = report.fleet_scores_persisted;
    for (const auto& [tenant, tenant_report] : report.tenants)
        run.digests[tenant] = tenant_report.digest;
    return run;
}

TEST(FleetGolden, PersistedScoresRehydratePlacementsWithoutRescoring)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "veal-fleet-golden-store";
    std::error_code ec;
    fs::remove_all(dir, ec);

    TraceGenOptions gen;
    gen.seed = 9;
    gen.requests = 120;
    gen.tenants = 3;
    gen.loop_pool = 8;
    gen.tick_size = 8;
    gen.iterations = 10;
    const ServiceTrace trace = generateTrace(gen);

    const FleetRun cold = runWithStore(trace, dir.string());
    EXPECT_GT(cold.scores_computed, 0);
    EXPECT_EQ(cold.scores_persisted, 0);

    // Restart over the populated store: every placement rehydrates
    // from v2 blobs -- zero scoring work, identical steering.  (The
    // tenant digests fold the cache outcome, so cold-vs-warm digests
    // legitimately differ; warm restarts must agree with each other.)
    const FleetRun warm = runWithStore(trace, dir.string());
    EXPECT_EQ(warm.scores_computed, 0)
        << "a restart re-scored keys whose blobs carry fleet scores";
    EXPECT_EQ(warm.scores_persisted, cold.scores_computed);
    EXPECT_EQ(warm.placed, cold.placed);

    const FleetRun warm2 = runWithStore(trace, dir.string());
    EXPECT_EQ(warm2.render, warm.render);
    EXPECT_EQ(warm2.digests, warm.digests);
    EXPECT_EQ(warm2.placed, warm.placed);
    EXPECT_EQ(warm2.scores_computed, 0);

    fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace veal
