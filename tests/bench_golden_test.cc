/**
 * veal-bench's modeled numbers, pinned in one golden.
 *
 * The simulation, persist and fleet modes run in-process at --runs 1,
 * and a translation block counts what one fully dynamic pass of the
 * media/FP suite on the proposed LA translates and charges.  Their
 * modeled blocks, rendered exactly as veal-bench prints them, are
 * compared with tests/golden/bench_modes.golden, so a diff names the
 * field that moved.  Running the modes also runs their in-process
 * checks: the batched simulation engine matches the reference oracle
 * bit for bit, and every warm persist report is identical across the
 * service shape matrix.  To refresh after an intentional change:
 *
 *     VEAL_UPDATE_GOLDEN=1 ./build/tests/bench_golden_test
 */

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "bench/fleet.h"
#include "bench/persist.h"
#include "bench/simulation.h"
#include "tests/testing/golden.h"
#include "veal/arch/la_config.h"
#include "veal/explore/sweep.h"
#include "veal/workloads/suite.h"

namespace veal {
namespace {

using bench::JsonBlock;

bench::ModeOptions
modeOptions(int threads, int batch = 64)
{
    bench::ModeOptions options;
    options.runs = 1;
    options.threads = threads;
    options.batch = batch;
    return options;
}

/** Pieces and ops of the suite, then the translations and phase cycles
    of one fully dynamic pass through the VM on the proposed LA. */
JsonBlock
translationBlock(int threads)
{
    explore::SweepRunner runner(mediaFpSuite(), threads);
    const auto& suite = runner.suite();
    std::int64_t pieces = 0;
    std::int64_t ops = 0;
    for (const Benchmark& benchmark : suite) {
        for (const LoopSite& site : benchmark.transformed.sites) {
            if (site.fissioned.empty()) {
                ++pieces;
                ops += static_cast<std::int64_t>(site.loop.size());
            }
            for (const Loop& piece : site.fissioned) {
                ++pieces;
                ops += static_cast<std::int64_t>(piece.size());
            }
        }
    }
    runner.evaluateCellsMetered(
        static_cast<int>(suite.size()),
        [&](int i, metrics::Registry& registry) {
            return explore::cellSpeedup(
                suite[static_cast<std::size_t>(i)], LaConfig::proposed(),
                TranslationMode::kFullyDynamic, nullptr, &registry);
        });

    JsonBlock phases;
    std::int64_t total = 0;
    for (int p = 0; p < kNumTranslationPhases; ++p) {
        const char* phase = toString(static_cast<TranslationPhase>(p));
        const std::int64_t cycles =
            runner.metrics().counter(std::string("vm.phase_cycles.") + phase);
        phases.add(phase, cycles);
        total += cycles;
    }
    return JsonBlock()
        .add("pieces_per_run", pieces)
        .add("ops_per_run", ops)
        .add("translated_loops_per_run",
             runner.metrics().counter("vm.translate.ok"))
        .add("phase_cycles", phases)
        .add("phase_cycles_total", total);
}

std::int64_t
integerField(const JsonBlock& block, const std::string& name)
{
    return std::stoll(block.value(name));
}

TEST(BenchGolden, ModeledBlocksMatchSnapshot)
{
    const JsonBlock persist = bench::runPersistBench(modeOptions(1)).modeled;
    const JsonBlock fleet = bench::runFleetBench(modeOptions(1)).modeled;

    // The floors the studies exist to show: a warm restart translates
    // nothing and wins at least 10x in translation cycles, and the
    // fleet beats the single design point by at least 1.1x.
    EXPECT_EQ(integerField(persist, "warm_translation_cycles"), 0);
    EXPECT_GE(integerField(persist, "translation_cycle_ratio"), 10);
    EXPECT_GE(integerField(fleet, "speedup_milli"), 1100);

    const std::string actual =
        JsonBlock()
            .add("simulation",
                 bench::runSimulationThroughput(modeOptions(1)).modeled)
            .add("persist", persist)
            .add("fleet", fleet)
            .add("translation", translationBlock(1))
            .render() +
        "\n";
    VEAL_EXPECT_GOLDEN(actual, "bench_modes.golden", "bench modeled blocks");
}

TEST(BenchGolden, ModeledBlocksAreThreadInvariant)
{
    EXPECT_EQ(translationBlock(1).render(), translationBlock(4).render());
    EXPECT_EQ(bench::runFleetBench(modeOptions(1)).modeled.render(),
              bench::runFleetBench(modeOptions(4)).modeled.render());
    EXPECT_EQ(
        bench::runSimulationThroughput(modeOptions(1, 64)).modeled.render(),
        bench::runSimulationThroughput(modeOptions(4, 1)).modeled.render());
}

}  // namespace
}  // namespace veal
