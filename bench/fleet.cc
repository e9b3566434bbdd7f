#include "bench/fleet.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "veal/arch/cpu_config.h"
#include "veal/explore/sweep.h"
#include "veal/fleet/fleet.h"
#include "veal/sim/cpu_sim.h"
#include "veal/support/assert.h"
#include "veal/workloads/suite.h"

namespace veal::bench {

namespace {

/** Scoring mode: the service default, and what the paper evaluates. */
constexpr TranslationMode kMode = TranslationMode::kFullyDynamic;

/** One priced unit: a transformed loop piece with its profile weight. */
struct Piece {
    const Loop* loop = nullptr;
    std::int64_t invocations = 1;
    std::int64_t iterations = 100;
    std::size_t benchmark = 0;
};

/** Every transformed-binary loop piece of the suite, in suite order
    (fissioned pieces expand in sequence -- the LA runs them back to
    back, so each is priced and steered independently). */
std::vector<Piece>
gatherPieces(const std::vector<Benchmark>& suite)
{
    std::vector<Piece> pieces;
    for (std::size_t b = 0; b < suite.size(); ++b) {
        for (const LoopSite& site : suite[b].transformed.sites) {
            if (site.fissioned.empty()) {
                pieces.push_back(
                    {&site.loop, site.invocations, site.iterations, b});
            } else {
                for (const Loop& piece : site.fissioned) {
                    pieces.push_back(
                        {&piece, site.invocations, site.iterations, b});
                }
            }
        }
    }
    return pieces;
}

/** One backend's share of the steered suite. */
struct BackendTally {
    std::int64_t placed_pieces = 0;
    std::int64_t placed_invocations = 0;
    std::int64_t steady_cycles = 0;
};

/** One benchmark's baseline-vs-fleet totals. */
struct BenchmarkTally {
    std::int64_t baseline_cycles = 0;
    std::int64_t fleet_cycles = 0;
};

}  // namespace

ModeReport
runFleetBench(const ModeOptions& options)
{
    using Clock = std::chrono::steady_clock;

    const fleet::FleetConfig config = fleet::FleetConfig::standard();
    const std::size_t num_backends = config.backends.size();
    const CpuConfig cpu;
    const TlbConfig tlb;  // Disabled: pure design-point comparison.

    // The suite as the service sees it: one set of binaries, fissioned
    // by the static toolchain for the baseline design point.  Fleet
    // members must win on the *same* pieces, never on friendlier ones.
    explore::SweepRunner runner(mediaFpSuite(), options.threads);
    const std::vector<Piece> pieces = gatherPieces(runner.suite());
    const auto scored_cells =
        static_cast<std::int64_t>(pieces.size() * num_backends);

    // The (piece x backend) scoring grid, each cell priced at its
    // piece's own trip count.  Repeated --runs times for the wall-clock
    // sample; every pass must agree bit for bit.
    std::vector<persist::FleetScoreSet> scores;
    std::vector<double> wall_ms;
    for (int run = 0; run < options.runs; ++run) {
        std::vector<persist::FleetScoreSet> pass(pieces.size());
        for (auto& set : pass)
            set.backends.resize(num_backends);
        const auto start = Clock::now();
        // Cells write into pre-sized slots (distinct per index); the
        // double return of evaluateCells is unused.
        runner.evaluateCells(static_cast<int>(scored_cells), [&](int i) {
            const auto p = static_cast<std::size_t>(i) / num_backends;
            const auto b = static_cast<std::size_t>(i) % num_backends;
            pass[p].backends[b] = fleet::scoreBackend(
                *pieces[p].loop, config.backends[b].la, kMode,
                pieces[p].iterations, tlb);
            return 0.0;
        });
        const double ms = std::chrono::duration<double, std::milli>(
                              Clock::now() - start)
                              .count();
        wall_ms.push_back(ms);
        std::fprintf(stderr,
                     "veal-bench: fleet scoring pass %d/%d %.2f ms "
                     "(%lld cells, %d threads)\n",
                     run + 1, options.runs, ms,
                     static_cast<long long>(scored_cells),
                     runner.threads());
        if (run == 0) {
            scores = std::move(pass);
        } else {
            for (std::size_t i = 0; i < pieces.size(); ++i) {
                for (std::size_t j = 0; j < num_backends; ++j) {
                    const auto& now = pass[i].backends[j];
                    const auto& first = scores[i].backends[j];
                    VEAL_ASSERT(now.ok == first.ok &&
                                    now.warm_cycles == first.warm_cycles,
                                "fleet scores drifted across bench passes");
                }
            }
        }
    }

    // Steer every piece through the real FleetSteerer (unlimited
    // capacity: the study compares design points, not admission).
    fleet::FleetSteerer steerer(config);
    std::vector<BackendTally> backend_tallies(num_backends);
    std::vector<BenchmarkTally> benchmark_tallies(runner.suite().size());
    std::int64_t cpu_steady_cycles = 0;
    std::int64_t baseline_steady_cycles = 0;
    std::int64_t fleet_steady_cycles = 0;
    std::int64_t cpu_win_pieces = 0;

    for (std::size_t i = 0; i < pieces.size(); ++i) {
        const Piece& piece = pieces[i];
        const std::int64_t weight = piece.invocations;
        const std::int64_t cpu_piece =
            weight *
            simulateLoopOnCpu(*piece.loop, cpu, piece.iterations)
                .total_cycles;
        cpu_steady_cycles += cpu_piece;

        // Baseline: the single proposed design point (fleet index 0).
        persist::FleetScoreSet& set = scores[i];
        const persist::FleetBackendScore& base = set.backends[0];
        const std::int64_t baseline_piece =
            base.ok ? std::min(cpu_piece, weight * base.warm_cycles)
                    : cpu_piece;
        baseline_steady_cycles += baseline_piece;
        benchmark_tallies[piece.benchmark].baseline_cycles += baseline_piece;

        // Fleet: steer, then serve from the placed backend (CPU when
        // the backend still loses at this piece's trip count).
        set.scoring_iterations = piece.iterations;
        set.cpu_cycles = cpu_piece / std::max<std::int64_t>(1, weight);
        const fleet::Placement placement =
            steerer.place("piece-" + std::to_string(i), set);

        std::int64_t fleet_piece = cpu_piece;
        if (placement.backend >= 0 && !placement.unscored) {
            const auto b = static_cast<std::size_t>(placement.backend);
            const std::int64_t la_piece = weight * set.backends[b].warm_cycles;
            ++backend_tallies[b].placed_pieces;
            backend_tallies[b].placed_invocations += weight;
            if (la_piece < cpu_piece) {
                fleet_piece = la_piece;
                backend_tallies[b].steady_cycles += la_piece;
            } else {
                ++cpu_win_pieces;
            }
        } else {
            ++cpu_win_pieces;
        }
        fleet_steady_cycles += fleet_piece;
        benchmark_tallies[piece.benchmark].fleet_cycles += fleet_piece;
    }

    VEAL_ASSERT(fleet_steady_cycles > 0);
    std::vector<JsonBlock> backend_rows;
    for (std::size_t j = 0; j < num_backends; ++j) {
        const BackendTally& tally = backend_tallies[j];
        backend_rows.push_back(
            JsonBlock()
                .add("name", config.backends[j].la.name)
                .add("placed_pieces", tally.placed_pieces)
                .add("placed_invocations", tally.placed_invocations)
                .add("steady_cycles", tally.steady_cycles));
    }
    std::vector<JsonBlock> benchmark_rows;
    for (std::size_t b = 0; b < benchmark_tallies.size(); ++b) {
        const BenchmarkTally& tally = benchmark_tallies[b];
        benchmark_rows.push_back(
            JsonBlock()
                .add("name", runner.suite()[b].name)
                .add("baseline_cycles", tally.baseline_cycles)
                .add("fleet_cycles", tally.fleet_cycles)
                .add("speedup_milli",
                     tally.fleet_cycles > 0
                         ? tally.baseline_cycles * 1000 / tally.fleet_cycles
                         : 1000));
    }

    ModeReport report;
    report.modeled.add("fleet", std::string("standard"))
        .add("pieces", static_cast<std::int64_t>(pieces.size()))
        .add("scored_cells", scored_cells)
        .add("cpu_steady_cycles", cpu_steady_cycles)
        .add("baseline_steady_cycles", baseline_steady_cycles)
        .add("fleet_steady_cycles", fleet_steady_cycles)
        .add("cpu_win_pieces", cpu_win_pieces)
        .add("speedup_milli",
             baseline_steady_cycles * 1000 / fleet_steady_cycles)
        .add("backends", backend_rows)
        .add("benchmarks", benchmark_rows);
    report.wall.add("p50_ms", p50(wall_ms));
    return report;
}

}  // namespace veal::bench
