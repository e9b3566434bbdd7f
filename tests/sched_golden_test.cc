/**
 * Golden schedule snapshots for the repro corpus.
 *
 * Every `tests/corpus/seed-*.veal` is translated with its own pinned
 * config/mode and summarised as one line: II, stage count, register
 * demand, and a hash of the MRT occupancy pattern (rejecting seeds
 * record the reject reason instead).  The lines are compared against
 * `tests/golden/schedules.golden`, so any change to the translation
 * kernels that moves a schedule -- even to a different-but-valid one --
 * fails loudly instead of drifting silently.
 *
 * To refresh after an intentional scheduler change:
 *
 *     VEAL_UPDATE_GOLDEN=1 ./build/tests/sched_golden_test
 *
 * then review the diff of tests/golden/schedules.golden like any other
 * code change.
 */

#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "tests/testing/golden.h"
#include "veal/fuzz/corpus.h"
#include "veal/vm/translator.h"

#ifndef VEAL_CORPUS_DIR
#error "VEAL_CORPUS_DIR must point at tests/corpus"
#endif
#ifndef VEAL_GOLDEN_DIR
#error "VEAL_GOLDEN_DIR must point at tests/golden"
#endif

namespace veal {
namespace {

/**
 * FNV-1a over the reserved (class, instance, modulo-slot) triples in
 * unit-id order.  Unit ids are stable for a given loop, so two
 * schedules hash equal iff they reserve exactly the same MRT cells for
 * the same units.
 */
std::uint64_t
mrtOccupancyHash(const SchedGraph& graph, const Schedule& schedule)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    for (const auto& unit : graph.units()) {
        if (unit.fu == FuClass::kNone)
            continue;
        const auto u = static_cast<std::size_t>(unit.id);
        mix(static_cast<std::uint64_t>(unit.id));
        mix(static_cast<std::uint64_t>(unit.fu));
        mix(static_cast<std::uint64_t>(schedule.fu_instance[u]));
        for (int k = 0; k < unit.init_interval; ++k)
            mix(static_cast<std::uint64_t>((schedule.time[u] + k) %
                                           schedule.ii));
    }
    return h;
}

/** One snapshot line for a corpus case (no trailing newline). */
std::string
snapshotLine(const std::string& stem, const CorpusCase& repro)
{
    StaticAnnotations annotations;
    const StaticAnnotations* annotations_ptr = nullptr;
    if (repro.mode == TranslationMode::kHybridStaticCcaPriority) {
        annotations = precompileAnnotations(repro.loop, repro.config);
        annotations_ptr = &annotations;
    }
    const TranslationResult result = translateLoop(
        repro.loop, repro.config, repro.mode, annotations_ptr);

    std::ostringstream os;
    os << stem << " mode=" << toString(repro.mode);
    if (!result.ok) {
        os << " reject=" << toString(result.reject);
        return os.str();
    }
    os << " ii=" << result.schedule.ii
       << " stages=" << result.schedule.stage_count
       << " int_regs=" << result.registers.int_regs_used
       << " fp_regs=" << result.registers.fp_regs_used << " mrt=0x"
       << std::hex
       << mrtOccupancyHash(*result.graph, result.schedule);
    return os.str();
}

TEST(SchedGolden, CorpusSchedulesMatchSnapshots)
{
    const auto files = listCorpusFiles(VEAL_CORPUS_DIR);
    ASSERT_FALSE(files.empty()) << "no corpus at " VEAL_CORPUS_DIR;

    std::vector<std::string> lines;
    for (const auto& path : files) {
        const auto parsed = loadCorpusFile(path);
        ASSERT_TRUE(std::holds_alternative<CorpusCase>(parsed))
            << path << ": " << std::get<std::string>(parsed);
        const auto stem = std::filesystem::path(path).stem().string();
        lines.push_back(
            snapshotLine(stem, std::get<CorpusCase>(parsed)));
    }

    std::ostringstream actual;
    for (const auto& line : lines)
        actual << line << "\n";

    VEAL_EXPECT_GOLDEN(actual.str(), "schedules.golden", "schedule snapshots");
}

TEST(SchedGolden, SnapshotsAreDeterministic)
{
    // The snapshot must not depend on translation order or run count.
    const auto files = listCorpusFiles(VEAL_CORPUS_DIR);
    ASSERT_FALSE(files.empty());
    const auto& path = files.front();
    const auto parsed = loadCorpusFile(path);
    ASSERT_TRUE(std::holds_alternative<CorpusCase>(parsed));
    const auto& repro = std::get<CorpusCase>(parsed);
    const auto stem = std::filesystem::path(path).stem().string();
    EXPECT_EQ(snapshotLine(stem, repro), snapshotLine(stem, repro));
}

}  // namespace
}  // namespace veal
