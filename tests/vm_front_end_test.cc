/**
 * The design-invariant translation front end (TranslationFrontEnd) and
 * the per-site slots that share it across design points.
 *
 * Golden: every piece of every transformed mediaFpSuite() and
 * integerSuite() app is translated on six LA shapes that between them
 * reach every clean reject (the proposed design point, no CCA, 4 load
 * and 2 store streams, no FP unit, max II 2, 4 registers per file), in
 * all four modes.  Each (app, shape, mode) is one line: an FNV-1a digest
 * over every piece's verdict, MII, schedule, registers, CCA groups,
 * per-phase meter units and scheduler effort.  The plain translateLoop()
 * path and the slot path (the site's filled front end attached through
 * TranslationOptions::front_end) must both reproduce
 * `tests/golden/front_end.golden`.  To refresh after an intentional
 * change:
 *
 *     VEAL_UPDATE_GOLDEN=1 ./build/tests/vm_front_end_test
 *
 * The other tests pin the slot contract: translations share the front
 * end's graph, a slot fills once, an LA with another tag, a fault run
 * and a site without a slot all build afresh with identical results,
 * and concurrent first use is deterministic.  The last three pin the
 * front end's memoized priority orders: translations that reuse them
 * across design points, ladder rungs and threads equal fresh ones.
 */

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tests/testing/fnv.h"
#include "tests/testing/golden.h"
#include "veal/arch/cpu_config.h"
#include "veal/arch/la_config.h"
#include "veal/explore/sweep.h"
#include "veal/fault/fault_injector.h"
#include "veal/fault/fault_plan.h"
#include "veal/support/metrics/metrics.h"
#include "veal/support/rng.h"
#include "veal/support/thread_pool.h"
#include "veal/vm/translator.h"
#include "veal/vm/vm.h"
#include "veal/workloads/kernels.h"
#include "veal/workloads/suite.h"

#ifndef VEAL_GOLDEN_DIR
#error "VEAL_GOLDEN_DIR must point at tests/golden"
#endif

namespace veal {
namespace {

using testing::Fnv;

/** Every transformed app of both suites. */
std::vector<Application>
suiteApps()
{
    std::vector<Application> all;
    for (auto& benchmark : mediaFpSuite())
        all.push_back(std::move(benchmark.transformed));
    for (auto& benchmark : integerSuite())
        all.push_back(std::move(benchmark.transformed));
    return all;
}

/** The proposed design point with @p edit applied, named @p name. */
template <typename Edit>
LaConfig
shape(const std::string& name, Edit edit)
{
    LaConfig la = LaConfig::proposed();
    la.name = name;
    edit(la);
    return la;
}

/** LA shapes that between them reach every clean reject. */
std::vector<LaConfig>
laShapes()
{
    return {
        LaConfig::proposed(),
        shape("no-cca", [](LaConfig& la) { la.num_cca_units = 0; }),
        shape("4ls-2ss",
              [](LaConfig& la) {
                  la.num_load_streams = 4;
                  la.num_store_streams = 2;
              }),
        shape("0fp", [](LaConfig& la) { la.num_fp_units = 0; }),
        shape("maxii-2", [](LaConfig& la) { la.max_ii = 2; }),
        shape("4reg",
              [](LaConfig& la) {
                  la.num_int_registers = 4;
                  la.num_fp_registers = 4;
              }),
    };
}

constexpr TranslationMode kModes[] = {
    TranslationMode::kStatic,
    TranslationMode::kFullyDynamic,
    TranslationMode::kFullyDynamicHeight,
    TranslationMode::kHybridStaticCcaPriority,
};

/** The loops the VM translates for @p site: its pieces, or its loop. */
std::vector<const Loop*>
piecesOf(const LoopSite& site)
{
    std::vector<const Loop*> pieces;
    if (site.fissioned.empty())
        pieces.push_back(&site.loop);
    for (const Loop& piece : site.fissioned)
        pieces.push_back(&piece);
    return pieces;
}

/** Everything a translation decided, digested. */
void
addTranslation(Fnv& digest, const TranslationResult& tr)
{
    digest.add(tr.ok);
    digest.add(static_cast<int>(tr.reject));
    digest.add(tr.reject_detail);
    digest.add(tr.mii);
    digest.add(tr.schedule.ii);
    digest.add(tr.schedule.time);
    digest.add(tr.schedule.fu_instance);
    digest.add(tr.schedule.stage_count);
    digest.add(tr.schedule.length);
    digest.add(tr.registers.ok);
    digest.add(tr.registers.fail_reason);
    digest.add(tr.registers.int_regs_used);
    digest.add(tr.registers.fp_regs_used);
    digest.add(tr.registers.reg_of_unit);
    digest.add(tr.registers.reg_of_source_op);
    digest.add(static_cast<std::uint64_t>(tr.mapping.groups.size()));
    for (const CcaGroup& group : tr.mapping.groups)
        digest.add(group.members);
    digest.add(tr.mapping.group_of_op);
    for (int p = 0; p < kNumTranslationPhases; ++p)
        digest.add(tr.meter.units(static_cast<TranslationPhase>(p)));
    digest.add(tr.sched_stats.attempted_iis);
    digest.add(tr.sched_stats.placement_failures);
    digest.add(tr.register_retries);
    digest.add(tr.height_fallback);
}

/** addTranslation() of @p tr alone. */
std::string
translationDigest(const TranslationResult& tr)
{
    Fnv digest;
    addTranslation(digest, tr);
    return digest.hex();
}

/** How a golden line's translations are made. */
enum class Path { kPlain, kSlot };

/** Translate @p site's piece @p index on @p la along @p path. */
TranslationResult
translatePiece(const LoopSite& site, std::size_t index, const LaConfig& la,
               TranslationMode mode, Path path)
{
    const Loop& loop = *piecesOf(site)[index];
    if (path == Path::kPlain)
        return translateLoop(loop, la, mode);
    TranslationOptions options;
    options.front_end = site.front_ends != nullptr
                            ? site.front_ends->find(site, index, la)
                            : nullptr;
    EXPECT_NE(options.front_end, nullptr) << loop.name() << " @ " << la.name;
    return translateLoop(loop, la, mode, options);
}

/**
 * The golden text along @p path, one line per (app, shape, mode).
 * @p rejects, when non-null, collects every reject met.
 */
std::string
goldenText(const std::vector<Application>& apps, Path path,
           std::set<TranslationReject>* rejects = nullptr)
{
    std::ostringstream text;
    for (const Application& app : apps) {
        for (const LaConfig& la : laShapes()) {
            for (const TranslationMode mode : kModes) {
                Fnv digest;
                int pieces = 0;
                int ok = 0;
                for (const LoopSite& site : app.sites) {
                    for (std::size_t i = 0; i < piecesOf(site).size(); ++i) {
                        const TranslationResult tr =
                            translatePiece(site, i, la, mode, path);
                        addTranslation(digest, tr);
                        ++pieces;
                        ok += tr.ok ? 1 : 0;
                        if (rejects != nullptr)
                            rejects->insert(tr.reject);
                    }
                }
                text << "app=" << app.name << " la=" << la.name
                     << " mode=" << toString(mode) << " pieces=" << pieces
                     << " ok=" << ok << " digest=" << digest.hex() << "\n";
            }
        }
    }
    return text.str();
}

TEST(FrontEndGolden, PlainPathMatchesSnapshot)
{
    std::set<TranslationReject> rejects;
    const std::string actual =
        goldenText(suiteApps(), Path::kPlain, &rejects);
    // The shapes reach every reject a nominal translation can give.
    for (const TranslationReject reject :
         {TranslationReject::kNone, TranslationReject::kAnalysis,
          TranslationReject::kTooManyLoadStreams,
          TranslationReject::kTooManyStoreStreams,
          TranslationReject::kNoFuForOpcode,
          TranslationReject::kScheduleFailed,
          TranslationReject::kTooFewRegisters}) {
        EXPECT_EQ(rejects.count(reject), 1u) << toString(reject);
    }

    VEAL_EXPECT_GOLDEN(actual, "front_end.golden", "translations");
}

TEST(FrontEndGolden, SlotPathMatchesSnapshot)
{
    EXPECT_EQ(goldenText(suiteApps(), Path::kSlot),
              testing::readGolden("front_end.golden"))
        << "a translation on a shared front end differs from a fresh one";
}

/** The VM-visible outcome of one run, digested. */
std::string
runDigest(const AppRunResult& run, const metrics::Registry& registry,
          const FaultRunReport* report = nullptr)
{
    Fnv digest;
    digest.add(run.speedup);
    digest.add(run.baseline_cycles);
    digest.add(run.accelerated_cycles);
    digest.add(run.translation_cycles);
    digest.add(run.cache_hits);
    digest.add(run.cache_misses);
    for (const SiteResult& site : run.sites) {
        digest.add(site.loop_name);
        digest.add(site.accelerated);
        digest.add(static_cast<int>(site.reject));
        digest.add(site.actual_cycles);
        digest.add(site.translation_cycles);
        digest.add(site.translations);
        digest.add(site.ii);
        digest.add(site.mii);
        digest.add(site.stage_count);
    }
    digest.add(registry.toJson());
    if (report != nullptr) {
        for (const FaultSiteReport& site : report->sites) {
            digest.add(static_cast<int>(site.rung));
            for (const FaultPieceReport& piece : site.pieces) {
                addTranslation(digest, piece.translation);
                digest.add(static_cast<int>(piece.rung));
                digest.add(piece.la_dispatches);
                digest.add(piece.cpu_dispatches);
                digest.add(piece.checksum_invalidations);
                digest.add(piece.retranslations);
                digest.add(piece.quarantined);
            }
        }
    }
    return digest.hex();
}

/** A nominal run of @p app on @p la, digested. */
std::string
nominalRun(const Application& app, const LaConfig& la, TranslationMode mode)
{
    VmOptions options;
    options.mode = mode;
    const VirtualMachine vm(la, CpuConfig::arm11(), options);
    metrics::Registry registry;
    const AppRunResult run = vm.run(app, &registry);
    return runDigest(run, registry);
}

/** @p app with every site's slot reset: every run builds afresh. */
Application
withoutSlots(const Application& app)
{
    Application copy = app;
    for (LoopSite& site : copy.sites)
        site.front_ends.reset();
    return copy;
}

/** True when every slot of @p app has been filled. */
bool
allFilled(const Application& app)
{
    for (const LoopSite& site : app.sites) {
        if (site.front_ends == nullptr || !site.front_ends->filled())
            return false;
    }
    return true;
}

/** True when no slot of @p app has been filled. */
bool
noneFilled(const Application& app)
{
    for (const LoopSite& site : app.sites) {
        if (site.front_ends != nullptr && site.front_ends->filled())
            return false;
    }
    return true;
}

TEST(FrontEndSlot, SuiteSitesStartEmptyAndTranslationsShareTheGraph)
{
    const std::vector<Application> apps = suiteApps();
    for (const Application& app : apps) {
        for (const LoopSite& site : app.sites)
            ASSERT_NE(site.front_ends, nullptr) << site.loop.name();
        EXPECT_TRUE(noneFilled(app)) << app.name;
    }
    int shared = 0;
    for (const LaConfig& la : {LaConfig::proposed(),
                               shape("no-cca", [](LaConfig& l) {
                                   l.num_cca_units = 0;
                               })}) {
        for (const Application& app : apps) {
            for (const LoopSite& site : app.sites) {
                for (std::size_t i = 0; i < piecesOf(site).size(); ++i) {
                    const TranslationFrontEnd* front_end =
                        site.front_ends->find(site, i, la);
                    ASSERT_NE(front_end, nullptr);
                    EXPECT_EQ(front_end->cca, la.hasCca());
                    TranslationOptions options;
                    options.front_end = front_end;
                    for (const TranslationMode mode : kModes) {
                        const TranslationResult tr = translateLoop(
                            *piecesOf(site)[i], la, mode, options);
                        if (tr.ok) {
                            ++shared;
                            EXPECT_EQ(tr.graph.get(),
                                      front_end->graph.get());
                        } else if (tr.graph != nullptr) {
                            EXPECT_EQ(tr.graph.get(),
                                      front_end->graph.get());
                        }
                    }
                }
            }
        }
    }
    EXPECT_GT(shared, 0);
}

TEST(FrontEndSlot, RunsAtTwoDesignPointsFillEachSlotOnce)
{
    const std::vector<Benchmark> suite = mediaFpSuite();
    const Application& app = suite[13].transformed;  // 172.mgrid: fissioned
    ASSERT_TRUE(noneFilled(app));
    LaConfig narrow = shape("narrow", [](LaConfig& la) {
        la.num_int_units = 1;
        la.num_int_registers = 8;
        la.max_ii = 8;
    });
    const std::string first =
        nominalRun(app, LaConfig::proposed(), TranslationMode::kFullyDynamic);
    ASSERT_TRUE(allFilled(app));

    // Every front end and graph of the filled slots, CCA on and off:
    // later runs at other design points must neither rebuild nor move
    // them.
    LaConfig off = narrow;
    off.num_cca_units = 0;
    const auto pointers = [&] {
        std::vector<const void*> all;
        for (const LoopSite& site : app.sites) {
            for (std::size_t i = 0; i < piecesOf(site).size(); ++i) {
                for (const LaConfig* la : {&narrow, &off}) {
                    const TranslationFrontEnd* fe =
                        site.front_ends->find(site, i, *la);
                    EXPECT_NE(fe, nullptr);
                    all.push_back(fe);
                    all.push_back(fe != nullptr ? fe->graph.get() : nullptr);
                }
            }
        }
        return all;
    };
    const std::vector<const void*> before = pointers();
    const std::string second = nominalRun(app, narrow,
                                          TranslationMode::kFullyDynamic);
    const std::string third =
        nominalRun(app, off, TranslationMode::kHybridStaticCcaPriority);
    EXPECT_EQ(pointers(), before);

    // And every run equals a run that builds afresh.
    const Application fresh = withoutSlots(app);
    EXPECT_EQ(first, nominalRun(fresh, LaConfig::proposed(),
                                TranslationMode::kFullyDynamic));
    EXPECT_EQ(second,
              nominalRun(fresh, narrow, TranslationMode::kFullyDynamic));
    EXPECT_EQ(third, nominalRun(fresh, off,
                                TranslationMode::kHybridStaticCcaPriority));
}

TEST(FrontEndSlot, AnotherTagIgnoresTheSlot)
{
    LaConfig other_cca = LaConfig::proposed();
    other_cca.name = "other-cca";
    other_cca.cca->latency = 3;
    LaConfig other_latency = LaConfig::proposed();
    other_latency.name = "other-latency";
    other_latency.latencies.set(
        Opcode::kMul, other_latency.latencies.latency(Opcode::kMul) + 1);
    LaConfig no_spec = LaConfig::infinite();

    const std::vector<Benchmark> suite = mediaFpSuite();
    for (const LaConfig& la : {other_cca, other_latency, no_spec}) {
        for (const Benchmark& benchmark : suite) {
            const Application& app = benchmark.transformed;
            SCOPED_TRACE(app.name + " @ " + la.name);
            for (const TranslationMode mode : kModes) {
                EXPECT_EQ(nominalRun(app, la, mode),
                          nominalRun(withoutSlots(app), la, mode));
            }
            EXPECT_TRUE(noneFilled(app));
            for (const LoopSite& site : app.sites) {
                EXPECT_EQ(site.front_ends->find(site, 0, la), nullptr);
            }
        }
    }
}

TEST(FrontEndSlot, FaultRunsBuildAfreshAndMatchSlotlessRuns)
{
    const std::vector<Benchmark> suite = mediaFpSuite();
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const TranslationMode mode = kModes[seed % 4];
        VmOptions options;
        options.mode = mode;
        options.code_cache_entries = 4;
        const VirtualMachine vm(LaConfig::proposed(), CpuConfig::arm11(),
                                options);
        const FaultPlan plan = FaultPlan::sample(seed);
        for (const Benchmark& benchmark : suite) {
            Application app = benchmark.transformed;
            for (LoopSite& site : app.sites)
                site.invocations = std::min<std::int64_t>(site.invocations, 8);
            SCOPED_TRACE(app.name + " / plan " + std::to_string(seed));
            const auto faultRun = [&](const Application& target) {
                FaultInjector injector(plan);
                FaultRunReport report;
                metrics::Registry registry;
                const AppRunResult run =
                    vm.run(target, &registry, &injector, &report);
                return runDigest(run, registry, &report);
            };
            EXPECT_EQ(faultRun(app), faultRun(withoutSlots(app)));
            // The first plan meets empty slots, which a fault run must
            // leave empty; a nominal run then fills them for the rest.
            if (seed == 1) {
                EXPECT_TRUE(noneFilled(app));
                (void)nominalRun(app, LaConfig::proposed(), mode);
                EXPECT_TRUE(allFilled(app));
            }
        }
    }
}

TEST(FrontEndSlot, SitesWithoutAMatchingSlotRunFresh)
{
    const std::vector<Benchmark> suite = mediaFpSuite();
    Application app = suite[13].transformed;  // 172.mgrid: fissioned
    // An appended site has no slot.
    app.sites.push_back(LoopSite{.loop = makeSadLoop("extra"),
                                 .fissioned = {},
                                 .invocations = 3,
                                 .iterations = 16});
    app.cpu_baseline.reset();
    ASSERT_EQ(app.sites.back().front_ends, nullptr);
    for (const TranslationMode mode : kModes) {
        EXPECT_EQ(nominalRun(app, LaConfig::proposed(), mode),
                  nominalRun(withoutSlots(app), LaConfig::proposed(), mode));
    }

    // A site whose piece count no longer matches its filled slot's.
    std::size_t fissioned = app.sites.size();
    for (std::size_t s = 0; s < app.sites.size(); ++s) {
        if (!app.sites[s].fissioned.empty())
            fissioned = s;
    }
    ASSERT_LT(fissioned, app.sites.size());
    LoopSite& site = app.sites[fissioned];
    ASSERT_TRUE(site.front_ends->filled());
    ASSERT_NE(site.front_ends->find(site, 0, LaConfig::proposed()), nullptr);
    site.fissioned.pop_back();
    EXPECT_EQ(site.front_ends->find(site, 0, LaConfig::proposed()), nullptr);
    for (const TranslationMode mode : kModes) {
        EXPECT_EQ(nominalRun(app, LaConfig::proposed(), mode),
                  nominalRun(withoutSlots(app), LaConfig::proposed(), mode));
    }
}

/** A small DSE grid: CCA on and off, three widths. */
std::vector<LaConfig>
concurrentGrid()
{
    std::vector<LaConfig> grid;
    for (int cca = 0; cca <= 1; ++cca) {
        for (int width = 1; width <= 3; ++width) {
            LaConfig la = LaConfig::proposed();
            la.name = "w" + std::to_string(width) + "c" + std::to_string(cca);
            la.num_cca_units = cca;
            la.num_int_units = width;
            la.num_fp_units = width;
            la.max_ii = 8 * width;
            grid.push_back(la);
        }
    }
    return grid;
}

/**
 * Sweep a fresh suite: cells run app-major, so the first cells of every
 * app -- and so every slot's first use -- land on several workers at
 * once.  Returns the cell bits.
 */
std::vector<std::uint64_t>
sweepFreshSuite(int threads)
{
    const explore::SweepRunner runner(mediaFpSuite(), threads);
    const std::vector<LaConfig> grid = concurrentGrid();
    const int points = static_cast<int>(grid.size()) * 4;
    const int apps = static_cast<int>(runner.suite().size());
    const std::vector<double> cells =
        runner.evaluateCells(apps * points, [&](int i) {
            const Benchmark& benchmark =
                runner.suite()[static_cast<std::size_t>(i / points)];
            const int point = i % points;
            return explore::cellSpeedup(
                benchmark, grid[static_cast<std::size_t>(point / 4)],
                kModes[point % 4]);
        });
    for (const Benchmark& benchmark : runner.suite())
        EXPECT_TRUE(allFilled(benchmark.transformed)) << benchmark.name;
    std::vector<std::uint64_t> bits;
    for (const double cell : cells)
        bits.push_back(std::bit_cast<std::uint64_t>(cell));
    return bits;
}

TEST(FrontEndSlot, ConcurrentFirstUseMatchesSerial)
{
    const std::vector<std::uint64_t> serial = sweepFreshSuite(1);
    EXPECT_EQ(sweepFreshSuite(8), serial);
    EXPECT_EQ(sweepFreshSuite(8), serial);
}

/**
 * The proposed design point at int and FP unit counts 1-4, CCA on and
 * off, unit counts innermost: ResMII follows the unit counts, so a
 * piece meets MIIs that repeat and MIIs that differ.
 */
std::vector<LaConfig>
unitCountPoints()
{
    std::vector<LaConfig> points;
    for (int cca = 1; cca >= 0; --cca) {
        for (int int_units = 1; int_units <= 4; ++int_units) {
            for (int fp_units = 1; fp_units <= 4; ++fp_units) {
                points.push_back(shape(
                    "i" + std::to_string(int_units) + "f" +
                        std::to_string(fp_units) + "c" + std::to_string(cca),
                    [&](LaConfig& la) {
                        la.num_cca_units = cca;
                        la.num_int_units = int_units;
                        la.num_fp_units = fp_units;
                    }));
            }
        }
    }
    return points;
}

TEST(FrontEndSlot, SharedPriorityOrdersMatchFresh)
{
    const std::vector<LaConfig> points = unitCountPoints();
    // Design points reaching each (front end, MII), and the MIIs each
    // front end meets.
    std::map<std::pair<const TranslationFrontEnd*, int>, int> reached;
    std::map<const TranslationFrontEnd*, std::set<int>> miis;
    int fallbacks = 0;
    for (const Application& app : suiteApps()) {
        for (const LoopSite& site : app.sites) {
            for (std::size_t i = 0; i < piecesOf(site).size(); ++i) {
                const Loop& loop = *piecesOf(site)[i];
                for (const LaConfig& la : points) {
                    TranslationOptions options;
                    options.front_end = site.front_ends->find(site, i, la);
                    ASSERT_NE(options.front_end, nullptr) << loop.name();
                    for (const TranslationMode mode : kModes) {
                        const TranslationResult shared =
                            translateLoop(loop, la, mode, options);
                        EXPECT_EQ(translationDigest(shared),
                                  translationDigest(
                                      translateLoop(loop, la, mode)))
                            << loop.name() << " @ " << la.name << " / "
                            << toString(mode);
                        fallbacks += shared.height_fallback ? 1 : 0;
                        if (mode == TranslationMode::kStatic &&
                            shared.mii > 0) {
                            ++reached[{options.front_end, shared.mii}];
                            miis[options.front_end].insert(shared.mii);
                        }
                    }
                }
            }
        }
    }
    EXPECT_TRUE(std::any_of(reached.begin(), reached.end(),
                            [](const auto& entry) {
                                return entry.second > 1;
                            }));
    EXPECT_TRUE(std::any_of(miis.begin(), miis.end(),
                            [](const auto& entry) {
                                return entry.second.size() > 1;
                            }));
    EXPECT_GT(fallbacks, 0);
}

/**
 * Rung @p rung of a ladder climb with no injector (nominal, relaxed II,
 * no CCA), translated on a front end of its own.
 */
TranslationResult
freshRung(const Loop& loop, const LaConfig& la, TranslationMode mode,
          std::size_t rung)
{
    TranslationOptions options;
    options.ii_slack = rung == 0 ? 0 : 2;
    options.disable_cca = rung == 2;
    return translateLoop(loop, la, mode, options);
}

TEST(FrontEndSlot, LadderPriorityOrdersMatchFresh)
{
    // Tight register files fail nominal rungs, so climbs reach the
    // relaxed-II rung, which reuses the nominal rung's orders, and some
    // succeed there or on the no-CCA rung.
    std::vector<LaConfig> points;
    for (const auto& [registers, units] :
         {std::pair(6, 2), std::pair(10, 1), std::pair(12, 2)}) {
        points.push_back(shape(
            "r" + std::to_string(registers) + "u" + std::to_string(units),
            [&](LaConfig& la) {
                la.num_int_registers = registers;
                la.num_fp_registers = registers;
                la.num_int_units = units;
                la.num_fp_units = units;
            }));
    }
    int relaxed = 0;
    int relaxed_ok = 0;
    int no_cca_ok = 0;
    for (const Application& app : suiteApps()) {
        for (const LoopSite& site : app.sites) {
            for (const Loop* loop : piecesOf(site)) {
                for (const LaConfig& la : points) {
                    for (const TranslationMode mode : kModes) {
                        const LadderOutcome outcome = climbTranslationLadder(
                            *loop, la, mode, nullptr, nullptr);
                        std::vector<const TranslationResult*> attempts;
                        for (const TranslationResult& failed :
                             outcome.failed_attempts)
                            attempts.push_back(&failed);
                        attempts.push_back(&outcome.translation);
                        if (attempts.size() < 2)
                            continue;
                        ++relaxed;
                        relaxed_ok +=
                            outcome.rung == DegradationRung::kRelaxedIi;
                        no_cca_ok += outcome.rung == DegradationRung::kNoCca;
                        for (std::size_t rung = 0; rung < attempts.size();
                             ++rung) {
                            EXPECT_EQ(translationDigest(*attempts[rung]),
                                      translationDigest(freshRung(
                                          *loop, la, mode, rung)))
                                << loop->name() << " @ " << la.name << " / "
                                << toString(mode) << " rung " << rung;
                        }
                    }
                }
            }
        }
    }
    EXPECT_GT(relaxed, 0);
    EXPECT_GT(relaxed_ok, 0);
    EXPECT_GT(no_cca_ok, 0);
}

/**
 * Translate every (piece, design point, mode) of a fresh mediaFpSuite()
 * on its sites' slots, in one fixed shuffled order, on @p threads
 * workers.  Returns each translation's digest, in that order.
 */
std::vector<std::string>
translateShuffled(int threads)
{
    struct Job {
        const LoopSite* site;
        std::size_t piece;
        const LaConfig* la;
        TranslationMode mode;
    };
    const std::vector<Application> apps = [] {
        std::vector<Application> media;
        for (auto& benchmark : mediaFpSuite())
            media.push_back(std::move(benchmark.transformed));
        return media;
    }();
    const std::vector<LaConfig> points = unitCountPoints();
    std::vector<Job> jobs;
    for (const Application& app : apps) {
        for (const LoopSite& site : app.sites) {
            for (std::size_t i = 0; i < piecesOf(site).size(); ++i) {
                for (const LaConfig& la : points) {
                    for (const TranslationMode mode : kModes)
                        jobs.push_back({&site, i, &la, mode});
                }
            }
        }
    }
    Rng rng(23);
    for (std::size_t i = jobs.size(); i > 1; --i)
        std::swap(jobs[i - 1], jobs[rng.nextBelow(i)]);

    std::vector<std::string> digests(jobs.size());
    ThreadPool pool(threads);
    pool.run(static_cast<int>(jobs.size()), [&](int j) {
        const Job& job = jobs[static_cast<std::size_t>(j)];
        TranslationOptions options;
        options.front_end =
            job.site->front_ends->find(*job.site, job.piece, *job.la);
        digests[static_cast<std::size_t>(j)] = translationDigest(
            translateLoop(*piecesOf(*job.site)[job.piece], *job.la,
                          job.mode, options));
    });
    return digests;
}

TEST(FrontEndSlot, ConcurrentPriorityOrdersMatchSerial)
{
    const std::vector<std::string> serial = translateShuffled(1);
    EXPECT_EQ(translateShuffled(8), serial);
    EXPECT_EQ(translateShuffled(8), serial);
}

}  // namespace
}  // namespace veal
