#include "veal/vm/vm.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "veal/vm/control_image.h"
#include "veal/sim/la_timing.h"
#include "veal/support/assert.h"
#include "veal/support/metrics/metrics.h"

namespace veal {

VirtualMachine::VirtualMachine(LaConfig la, CpuConfig baseline,
                               VmOptions options)
    : la_(std::move(la)), cpu_(std::move(baseline)),
      options_(std::move(options))
{}

namespace {

/** LA invocation prices of one translated piece, TLB included. */
struct LaPiecePrice {
    std::int64_t first = 0;  ///< Cache-miss invocation cost.
    std::int64_t warm = 0;   ///< Cache-hit invocation cost.
    TlbCharge tlb_first;     ///< TLB share of `first`.
    TlbCharge tlb_warm;      ///< TLB share of `warm`.
};

/**
 * Price @p translation (ok) for @p iterations-iteration invocations.
 * The TLB surcharge (zero when the model is off) rides on both prices,
 * so the path choice and the cache fixed point see TLB pressure exactly
 * like any other cycle.
 */
LaPiecePrice
priceOnLa(const TranslationResult& translation, const LaConfig& la,
          const TlbConfig& tlb, std::int64_t iterations)
{
    VEAL_ASSERT(translation.ok && translation.graph.has_value());
    const auto invocation = [&](bool first) {
        return acceleratorLoopCost(translation.schedule, *translation.graph,
                                   translation.analysis,
                                   translation.registers, la, iterations,
                                   first)
            .total();
    };
    LaPiecePrice price;
    price.tlb_first = streamTlbCharge(translation.analysis, tlb, iterations,
                                      /*first_invocation=*/true);
    price.tlb_warm = streamTlbCharge(translation.analysis, tlb, iterations,
                                     /*first_invocation=*/false);
    price.first = invocation(true) + price.tlb_first.cycles;
    price.warm = invocation(false) + price.tlb_warm.cycles;
    return price;
}

/** Meter @p misses first and @p hits warm invocations' TLB charges. */
void
meterTlb(metrics::Registry& registry, const LaPiecePrice& price,
         std::int64_t misses, std::int64_t hits)
{
    registry.add("vm.tlb.pages",
                 misses * price.tlb_first.pages + hits * price.tlb_warm.pages);
    registry.add("vm.tlb.walks",
                 misses * price.tlb_first.walks + hits * price.tlb_warm.walks);
    registry.add("vm.tlb.cycles", misses * price.tlb_first.cycles +
                                      hits * price.tlb_warm.cycles);
}

/** A piece the VM dispatches for a site, with its CPU price. */
struct SitePiece {
    const Loop* loop = nullptr;
    std::int64_t cpu_cycles_per_invocation = 0;
};

/** @p site's pieces -- its fissioned pieces, or else the loop itself --
    priced from the site's entry @p prices of a CpuBaseline. */
std::vector<SitePiece>
sitePieces(const LoopSite& site, const CpuBaseline::Site& prices)
{
    if (site.fissioned.empty())
        return {{&site.loop, prices.loop}};
    std::vector<SitePiece> pieces;
    for (std::size_t i = 0; i < site.fissioned.size(); ++i)
        pieces.push_back({&site.fissioned[i], prices.pieces[i]});
    return pieces;
}

/** @p app's acyclic remainder on @p cpu. */
std::int64_t
acyclicCyclesOn(const Application& app, const CpuConfig& cpu)
{
    return static_cast<std::int64_t>(
        static_cast<double>(app.acyclic_cycles) /
        std::max(cpu.acyclic_speedup, 1.0));
}

/** Everything the VM derives for one translated piece of one site. */
struct PiecePlan {
    const Loop* loop = nullptr;
    TranslationResult translation;
    std::int64_t cpu_cycles_per_invocation = 0;
    LaPiecePrice la;  ///< Translated-ok pieces only.
};

/** Rejects the degradation ladder can recover from; anything else (bad
    analysis, missing FU classes, stream overflow) would fail identically
    at every rung, so the site pins straight to the CPU. */
bool
recoverableReject(TranslationReject reject)
{
    return reject == TranslationReject::kScheduleFailed ||
           reject == TranslationReject::kTooFewRegisters ||
           reject == TranslationReject::kCcaMapping ||
           reject == TranslationReject::kBudgetExhausted;
}

}  // namespace

AppRunResult
VirtualMachine::run(const Application& app) const
{
    return run(app, nullptr);
}

AppRunResult
VirtualMachine::run(const Application& app,
                    metrics::Registry* registry) const
{
    AppRunResult out;
    out.app_name = app.name;
    CpuBaseline priced;
    const CpuBaseline& cpu_prices = cpuBaselineOn(app, cpu_, priced);

    // First pass: translate every piece and price both execution paths.
    struct SitePlan {
        const LoopSite* site = nullptr;
        std::int64_t baseline_cpu_cycles_per_invocation = 0;
        std::vector<PiecePlan> pieces;
    };
    std::vector<SitePlan> plans;

    for (std::size_t s = 0; s < app.sites.size(); ++s) {
        const LoopSite& site = app.sites[s];
        const CpuBaseline::Site& prices = cpu_prices.sites[s];
        SitePlan plan;
        plan.site = &site;
        plan.baseline_cpu_cycles_per_invocation = prices.loop;
        for (const SitePiece& dispatched : sitePieces(site, prices)) {
            const Loop& loop = *dispatched.loop;
            PiecePlan piece;
            piece.loop = &loop;
            piece.cpu_cycles_per_invocation =
                dispatched.cpu_cycles_per_invocation;
            StaticAnnotations annotations;
            const StaticAnnotations* annotations_ptr = nullptr;
            if (options_.mode ==
                TranslationMode::kHybridStaticCcaPriority) {
                annotations = precompileAnnotations(loop, la_);
                annotations_ptr = &annotations;
            }
            piece.translation =
                translateLoop(loop, la_, options_.mode, annotations_ptr);
            if (piece.translation.ok) {
                piece.la = priceOnLa(piece.translation, la_, options_.tlb,
                                     site.iterations);
            }
            plan.pieces.push_back(std::move(piece));
        }
        plans.push_back(std::move(plan));
    }

    // Cache-miss count for one piece of @p site under a fits assumption:
    // a resident working set misses once, a thrashing one misses every
    // invocation, and Figure 6's forced-retranslation rate floors both.
    const auto missesFor = [&](const LoopSite& site, bool fits) {
        std::int64_t misses = fits ? 1 : site.invocations;
        const auto forced = static_cast<std::int64_t>(
            std::llround(options_.retranslation_rate *
                         static_cast<double>(site.invocations)));
        return std::clamp<std::int64_t>(std::max(misses, 1 + forced), 1,
                                        site.invocations);
    };

    // LA-vs-CPU path choice for one translated-ok piece.  Translation
    // work is sunk cost either way, so it is not part of the comparison.
    const auto laWins = [&](const SitePlan& plan, const PiecePlan& piece,
                            bool fits) {
        const std::int64_t misses = missesFor(*plan.site, fits);
        const std::int64_t hits = plan.site->invocations - misses;
        const std::int64_t la_total =
            misses * piece.la.first + hits * piece.la.warm;
        return la_total <=
               piece.cpu_cycles_per_invocation * plan.site->invocations;
    };

    // Code-cache behaviour: with round-robin site interleaving and LRU
    // replacement, either every hot translation stays resident (one miss
    // each) or the working set thrashes (every invocation misses).  The
    // working set counts only pieces that actually *take* the LA path --
    // a piece whose CPU path wins is translated once for the comparison
    // but never occupies a cache entry.  Fixed point: decide paths under
    // the fits assumption; if the winners overflow the cache, re-decide
    // everything under thrash pricing (the conservative resolution of
    // mixed equilibria -- see DESIGN.md §10).
    int resident_pieces = 0;
    for (const auto& plan : plans) {
        for (const auto& piece : plan.pieces) {
            if (piece.translation.ok && laWins(plan, piece, true))
                ++resident_pieces;
        }
    }
    const bool cache_fits =
        resident_pieces <= options_.code_cache_entries;
    if (registry != nullptr) {
        registry->add("vm.apps");
        registry->add("vm.resident_pieces", resident_pieces);
        registry->trace("vm/" + app.name, "cache",
                        cache_fits ? "fits" : "thrash", resident_pieces);
    }

    // Translation-cycle attribution is exact: every int64 charged below
    // is mirrored into the registry's vm.phase_cycles.* counters, and
    // audited_cycles re-sums those mirrors for the closing assertion.
    std::int64_t audited_cycles = 0;

    for (const auto& plan : plans) {
        const auto& site = *plan.site;
        SiteResult site_result;
        site_result.loop_name = site.loop.name();

        site_result.baseline_cycles =
            plan.baseline_cpu_cycles_per_invocation * site.invocations;

        for (const auto& piece : plan.pieces) {
            const auto& tr = piece.translation;
            std::string trace_scope;
            if (registry != nullptr)
                trace_scope = "vm/" + app.name + "/" + piece.loop->name();
            const double metered_penalty =
                options_.penalty_override >= 0.0
                    ? options_.penalty_override
                    : tr.penaltyCycles();

            if (registry != nullptr) {
                registry->add("vm.pieces");
                metrics::recordCostMeter(*registry, "vm", tr.meter);
                registry->add("vm.sched.attempted_iis",
                              tr.sched_stats.attempted_iis);
                registry->add("vm.sched.placement_failures",
                              tr.sched_stats.placement_failures);
                registry->add("vm.sched.register_retries",
                              tr.register_retries);
                if (tr.height_fallback)
                    registry->add("vm.sched.height_fallbacks");
            }

            if (!tr.ok) {
                // Failed translations still charge the analysis the VM
                // performed before giving up (once).  Keep the *first*
                // piece's reject as the site verdict; later pieces are
                // visible in the trace.
                if (site_result.reject == TranslationReject::kNone)
                    site_result.reject = tr.reject;
                const bool metered =
                    tr.mode != TranslationMode::kStatic;
                const auto failure_cycles = static_cast<std::int64_t>(
                    metered ? tr.meter.totalInstructions() : 0.0);
                site_result.translation_cycles += failure_cycles;
                site_result.actual_cycles +=
                    piece.cpu_cycles_per_invocation * site.invocations;
                if (registry != nullptr) {
                    registry->add(std::string("vm.translate.reject.") +
                                  toString(tr.reject));
                    registry->trace(trace_scope, "translate",
                                    toString(tr.reject), failure_cycles);
                    if (metered) {
                        audited_cycles += metrics::chargePhaseCycles(
                            *registry, "vm.phase_cycles", tr.meter, 1);
                    }
                }
                continue;
            }

            // A CPU-winning piece is translated exactly once (to price
            // the comparison) and never re-enters the cache; a resident
            // LA piece re-translates on every cache miss.
            const bool la_path = laWins(plan, piece, cache_fits);
            const std::int64_t misses =
                la_path ? missesFor(site, cache_fits) : 1;
            const std::int64_t hits = site.invocations - misses;

            const std::int64_t translation_cycles =
                static_cast<std::int64_t>(metered_penalty *
                                          static_cast<double>(misses));
            site_result.translation_cycles += translation_cycles;

            if (registry != nullptr) {
                registry->add("vm.translate.ok");
                registry->add("vm.translations", misses);
                registry->trace(trace_scope, "translate", "ok",
                                translation_cycles);
                if (options_.penalty_override >= 0.0) {
                    registry->add("vm.phase_cycles.override",
                                  translation_cycles);
                    audited_cycles += translation_cycles;
                } else if (tr.mode != TranslationMode::kStatic) {
                    const std::int64_t charged =
                        metrics::chargePhaseCycles(*registry,
                                                   "vm.phase_cycles",
                                                   tr.meter, misses);
                    VEAL_ASSERT(charged == translation_cycles,
                                "phase split diverged for ",
                                piece.loop->name());
                    audited_cycles += charged;
                }
            }

            if (la_path) {
                site_result.accelerated = true;
                site_result.actual_cycles +=
                    misses * piece.la.first + hits * piece.la.warm;
                site_result.translations += misses;
                site_result.instructions_per_translation =
                    tr.meter.totalInstructions();
                site_result.ii = tr.schedule.ii;
                site_result.mii = tr.mii;
                site_result.stage_count = tr.schedule.stage_count;
                out.cache_hits += hits;
                out.cache_misses += misses;
                if (registry != nullptr) {
                    registry->add("vm.path.la");
                    registry->add("vm.cache.hits", hits);
                    registry->add("vm.cache.misses", misses);
                    registry->observe("vm.ii", tr.schedule.ii);
                    registry->trace(trace_scope, "path", "la",
                                    tr.schedule.ii);
                    if (options_.tlb.enabled)
                        meterTlb(*registry, piece.la, misses, hits);
                }
            } else {
                site_result.actual_cycles +=
                    piece.cpu_cycles_per_invocation * site.invocations;
                site_result.translations += 1;
                if (registry != nullptr) {
                    registry->add("vm.path.cpu");
                    registry->trace(trace_scope, "path", "cpu",
                                    piece.cpu_cycles_per_invocation);
                }
            }
        }
        site_result.actual_cycles += site_result.translation_cycles;

        out.translation_cycles += site_result.translation_cycles;
        out.baseline_cycles += site_result.baseline_cycles;
        out.accelerated_cycles += site_result.actual_cycles;
        out.sites.push_back(std::move(site_result));
    }

    const std::int64_t acyclic_cycles = acyclicCyclesOn(app, cpu_);
    out.baseline_cycles += acyclic_cycles;
    out.accelerated_cycles += acyclic_cycles;
    out.speedup = out.accelerated_cycles > 0
                      ? static_cast<double>(out.baseline_cycles) /
                            static_cast<double>(out.accelerated_cycles)
                      : 1.0;
    if (registry != nullptr) {
        // The acceptance contract of DESIGN.md §10: the per-phase
        // vm.phase_cycles.* deltas this run recorded sum exactly to the
        // translation cycles the cost model reports.
        VEAL_ASSERT(audited_cycles == out.translation_cycles,
                    "phase attribution lost cycles for ", app.name, ": ",
                    audited_cycles, " != ", out.translation_cycles);
    }
    return out;
}

AppRunResult
VirtualMachine::run(const Application& app, metrics::Registry* registry,
                    FaultInjector* faults,
                    FaultRunReport* fault_report) const
{
    if (fault_report != nullptr)
        *fault_report = FaultRunReport{};
    if (faults == nullptr)
        return run(app, registry);

    AppRunResult out;
    out.app_name = app.name;
    const FaultPlan& plan = faults->plan();
    CpuBaseline priced;
    const CpuBaseline& cpu_prices = cpuBaselineOn(app, cpu_, priced);

    const auto annotationsFor =
        [&](const Loop& loop,
            StaticAnnotations* storage) -> const StaticAnnotations* {
        if (options_.mode != TranslationMode::kHybridStaticCcaPriority)
            return nullptr;
        *storage = precompileAnnotations(loop, la_);
        return storage;
    };

    // --- Translation phase: climb the loop-level ladder per piece.  A
    // piece that exhausts its rungs escalates the whole site: one
    // no-fission retry of the unfissioned loop (every relaxation on,
    // extra budget relief), then a permanent CPU pin.
    struct HardenedPiece {
        const Loop* loop = nullptr;
        TranslationResult translation;
        DegradationRung rung = DegradationRung::kNominal;
        std::int64_t cpu_cycles_per_invocation = 0;
        LaPiecePrice la;
        std::string key;
        // Dispatch-time recovery state.  Deliberately *not* stored with
        // the cached image: quarantine must survive eviction.
        int strikes = 0;
        std::int64_t retranslations = 0;
        bool quarantined = false;
        bool rebuild_pending = false;
        std::int64_t cache_hits = 0;
        std::int64_t cache_misses = 0;
        std::int64_t invalidations = 0;
        std::int64_t la_dispatches = 0;
        std::int64_t cpu_dispatches = 0;
    };
    struct HardenedSite {
        const LoopSite* site = nullptr;
        /** The unfissioned loop's CPU price: the site's baseline, and
            what a pinned site runs at. */
        std::int64_t baseline_cpu_cycles_per_invocation = 0;
        DegradationRung rung = DegradationRung::kNominal;
        bool pinned = false;
        TranslationReject reject = TranslationReject::kNone;
        std::vector<HardenedPiece> pieces;
        /** Work performed then abandoned (failed attempts, pieces a
            no-fission retry superseded): charged exactly once each. */
        std::vector<TranslationResult> charged_once;
    };
    std::vector<HardenedSite> sites;

    for (std::size_t site_index = 0; site_index < app.sites.size();
         ++site_index) {
        const LoopSite& site = app.sites[site_index];
        const CpuBaseline::Site& prices = cpu_prices.sites[site_index];
        HardenedSite hs;
        hs.site = &site;
        hs.baseline_cpu_cycles_per_invocation = prices.loop;

        bool pinned = false;
        bool retry_unfissioned = false;
        for (const SitePiece& dispatched : sitePieces(site, prices)) {
            const Loop& loop = *dispatched.loop;
            StaticAnnotations storage;
            const StaticAnnotations* annotations =
                annotationsFor(loop, &storage);
            LadderOutcome outcome = climbTranslationLadder(
                loop, la_, options_.mode, annotations, faults);
            for (auto& attempt : outcome.failed_attempts)
                hs.charged_once.push_back(std::move(attempt));
            if (!outcome.translation.ok) {
                hs.reject = outcome.translation.reject;
                retry_unfissioned =
                    recoverableReject(outcome.translation.reject);
                hs.charged_once.push_back(std::move(outcome.translation));
                pinned = true;
                break;  // Later pieces are moot: the site either
                        // re-translates unfissioned or pins.
            }
            hs.rung = std::max(hs.rung, outcome.rung);
            HardenedPiece piece;
            piece.loop = &loop;
            piece.cpu_cycles_per_invocation =
                dispatched.cpu_cycles_per_invocation;
            piece.rung = outcome.rung;
            piece.translation = std::move(outcome.translation);
            hs.pieces.push_back(std::move(piece));
        }

        if (pinned && retry_unfissioned) {
            StaticAnnotations storage;
            TranslationOptions nf;
            nf.annotations = annotationsFor(site.loop, &storage);
            nf.faults = faults;
            nf.ii_slack = 2;
            nf.disable_cca = true;
            nf.budget_relief = 3;
            TranslationResult tr =
                translateLoop(site.loop, la_, options_.mode, nf);
            if (tr.ok) {
                // Sibling pieces that did translate are sunk work now
                // that the unfissioned loop replaces them.
                for (auto& piece : hs.pieces)
                    hs.charged_once.push_back(
                        std::move(piece.translation));
                hs.pieces.clear();
                HardenedPiece piece;
                piece.loop = &site.loop;
                piece.cpu_cycles_per_invocation = prices.loop;
                piece.rung = DegradationRung::kNoFission;
                piece.translation = std::move(tr);
                hs.pieces.push_back(std::move(piece));
                hs.rung = DegradationRung::kNoFission;
                hs.reject = TranslationReject::kNone;
                pinned = false;
            } else {
                hs.charged_once.push_back(std::move(tr));
            }
        }

        if (pinned) {
            hs.pinned = true;
            hs.rung = DegradationRung::kCpuPinned;
            for (auto& piece : hs.pieces)
                hs.charged_once.push_back(std::move(piece.translation));
            hs.pieces.clear();
        }

        for (auto& piece : hs.pieces) {
            piece.key =
                std::to_string(site_index) + "/" + piece.loop->name();
            piece.la = priceOnLa(piece.translation, la_, options_.tlb,
                                 site.iterations);
        }
        sites.push_back(std::move(hs));
    }

    // --- Dispatch phase: explicit round-robin over invocations through a
    // real code cache.  Every cached dispatch validates the control
    // image's checksum first; a mismatch invalidates the entry, runs the
    // invocation on the CPU, and re-translates on the next dispatch --
    // at most plan.retranslation_bound times before the piece is
    // quarantined (as it is after plan.quarantine_strikes mismatches).
    // Note the contrast with the nominal overload's analytic cache
    // model: VmOptions::retranslation_rate and penalty_override do not
    // apply here.
    CodeCache cache(options_.code_cache_entries);
    struct ResidentImage {
        ControlImage image;
        std::uint32_t expected_checksum = 0;
    };
    std::unordered_map<std::string, ResidentImage> resident;

    std::int64_t max_invocations = 0;
    for (const auto& hs : sites)
        max_invocations = std::max(max_invocations, hs.site->invocations);

    for (std::int64_t round = 0; round < max_invocations; ++round) {
        for (auto& hs : sites) {
            if (hs.pinned || round >= hs.site->invocations)
                continue;
            for (auto& piece : hs.pieces) {
                if (piece.quarantined) {
                    ++piece.cpu_dispatches;
                    continue;
                }
                if (cache.lookup(piece.key)) {
                    ResidentImage& entry = resident.at(piece.key);
                    if (faults->probe(FaultSite::kCacheCorruption)) {
                        entry.image.flipBit(faults->corruptionBit(
                            entry.image.words().size() * 32));
                    }
                    if (entry.image.checksum() !=
                        entry.expected_checksum) {
                        ++piece.invalidations;
                        ++piece.strikes;
                        cache.erase(piece.key);
                        resident.erase(piece.key);
                        if (piece.strikes >= plan.quarantine_strikes ||
                            piece.retranslations >=
                                plan.retranslation_bound) {
                            piece.quarantined = true;
                        } else {
                            piece.rebuild_pending = true;
                        }
                        ++piece.cpu_dispatches;
                        continue;
                    }
                    ++piece.cache_hits;
                    ++piece.la_dispatches;
                    continue;
                }
                ++piece.cache_misses;
                if (piece.rebuild_pending) {
                    piece.rebuild_pending = false;
                    ++piece.retranslations;
                }
                ControlImage image =
                    ControlImage::encode(*piece.loop, piece.translation);
                const std::uint32_t expected = image.checksum();
                std::string evicted;
                cache.insert(piece.key, &evicted);
                if (!evicted.empty())
                    resident.erase(evicted);
                // insert_or_assign, not emplace: if the key were somehow
                // still resident (cache/payload desync), the freshly
                // encoded image must win -- emplace would silently keep
                // the stale one and the checksum guard would misfire.
                resident.insert_or_assign(
                    piece.key, ResidentImage{std::move(image), expected});
                ++piece.la_dispatches;
            }
        }
    }

    // --- Accounting phase: the same exact phase-cycle attribution
    // contract as the nominal overload (audited, not approximated).
    std::int64_t audited_cycles = 0;
    if (registry != nullptr)
        registry->add("vm.fault.runs");

    for (auto& hs : sites) {
        const LoopSite& site = *hs.site;
        SiteResult site_result;
        site_result.loop_name = site.loop.name();
        site_result.reject = hs.reject;
        site_result.baseline_cycles =
            hs.baseline_cpu_cycles_per_invocation * site.invocations;

        FaultSiteReport site_report;
        site_report.loop_name = site.loop.name();
        site_report.rung = hs.rung;

        std::string trace_scope;
        if (registry != nullptr) {
            trace_scope = "vm.fault/" + app.name + "/" + site.loop.name();
            registry->add(std::string("vm.fault.rung.") +
                          toString(hs.rung));
            registry->trace(trace_scope, "rung", toString(hs.rung),
                            static_cast<std::int64_t>(hs.rung));
        }

        for (const auto& tr : hs.charged_once) {
            const bool metered = tr.mode != TranslationMode::kStatic;
            const auto cycles = static_cast<std::int64_t>(
                metered ? tr.meter.totalInstructions() : 0.0);
            site_result.translation_cycles += cycles;
            if (registry != nullptr) {
                if (!tr.ok) {
                    registry->add(std::string("vm.translate.reject.") +
                                  toString(tr.reject));
                }
                if (metered) {
                    audited_cycles += metrics::chargePhaseCycles(
                        *registry, "vm.phase_cycles", tr.meter, 1);
                }
            }
        }

        if (hs.pinned) {
            site_result.actual_cycles +=
                hs.baseline_cpu_cycles_per_invocation * site.invocations;
            FaultPieceReport piece_report;
            piece_report.loop = &site.loop;
            if (!hs.charged_once.empty())
                piece_report.translation = hs.charged_once.back();
            piece_report.rung = DegradationRung::kCpuPinned;
            piece_report.cpu_dispatches = site.invocations;
            if (registry != nullptr) {
                registry->add("vm.fault.pinned_sites");
                registry->add("vm.fault.dispatch.cpu", site.invocations);
            }
            if (fault_report != nullptr) {
                fault_report->cpu_dispatches += site.invocations;
                site_report.pieces.push_back(std::move(piece_report));
            }
        }

        for (auto& piece : hs.pieces) {
            const auto& tr = piece.translation;
            VEAL_ASSERT(piece.cache_hits + piece.cache_misses +
                                piece.cpu_dispatches ==
                            site.invocations,
                        "dispatch accounting lost an invocation of ",
                        piece.loop->name());
            const bool metered = tr.mode != TranslationMode::kStatic;
            const auto translation_cycles = static_cast<std::int64_t>(
                metered ? tr.meter.totalInstructions() *
                              static_cast<double>(piece.cache_misses)
                        : 0.0);
            site_result.translation_cycles += translation_cycles;
            site_result.translations += piece.cache_misses;
            site_result.accelerated |= piece.la_dispatches > 0;
            if (site_result.ii == 0) {
                site_result.ii = tr.schedule.ii;
                site_result.mii = tr.mii;
                site_result.stage_count = tr.schedule.stage_count;
                site_result.instructions_per_translation =
                    tr.meter.totalInstructions();
            }
            site_result.actual_cycles +=
                piece.cache_misses * piece.la.first +
                piece.cache_hits * piece.la.warm +
                piece.cpu_dispatches * piece.cpu_cycles_per_invocation;
            out.cache_hits += piece.cache_hits;
            out.cache_misses += piece.cache_misses;

            if (registry != nullptr) {
                registry->add("vm.translate.ok");
                registry->add("vm.translations", piece.cache_misses);
                registry->observe("vm.ii", tr.schedule.ii);
                if (options_.tlb.enabled) {
                    meterTlb(*registry, piece.la, piece.cache_misses,
                             piece.cache_hits);
                }
                if (metered && piece.cache_misses > 0) {
                    const std::int64_t charged =
                        metrics::chargePhaseCycles(
                            *registry, "vm.phase_cycles", tr.meter,
                            piece.cache_misses);
                    VEAL_ASSERT(charged == translation_cycles,
                                "phase split diverged for ",
                                piece.loop->name());
                    audited_cycles += charged;
                }
                if (piece.invalidations > 0) {
                    registry->add("vm.fault.invalidations",
                                  piece.invalidations);
                    registry->trace(trace_scope, "invalidate",
                                    piece.loop->name(),
                                    piece.invalidations);
                }
                if (piece.retranslations > 0) {
                    registry->add("vm.fault.retranslations",
                                  piece.retranslations);
                }
                if (piece.quarantined)
                    registry->add("vm.fault.quarantines");
                if (piece.la_dispatches > 0) {
                    registry->add("vm.fault.dispatch.la",
                                  piece.la_dispatches);
                }
                if (piece.cpu_dispatches > 0) {
                    registry->add("vm.fault.dispatch.cpu",
                                  piece.cpu_dispatches);
                }
            }
            if (fault_report != nullptr) {
                FaultPieceReport piece_report;
                piece_report.loop = piece.loop;
                piece_report.translation = piece.translation;
                piece_report.rung = piece.rung;
                piece_report.la_dispatches = piece.la_dispatches;
                piece_report.cpu_dispatches = piece.cpu_dispatches;
                piece_report.checksum_invalidations = piece.invalidations;
                piece_report.retranslations = piece.retranslations;
                piece_report.quarantined = piece.quarantined;
                fault_report->checksum_invalidations +=
                    piece.invalidations;
                fault_report->retranslations += piece.retranslations;
                fault_report->quarantines += piece.quarantined ? 1 : 0;
                fault_report->la_dispatches += piece.la_dispatches;
                fault_report->cpu_dispatches += piece.cpu_dispatches;
                site_report.pieces.push_back(std::move(piece_report));
            }
        }
        site_result.actual_cycles += site_result.translation_cycles;

        out.translation_cycles += site_result.translation_cycles;
        out.baseline_cycles += site_result.baseline_cycles;
        out.accelerated_cycles += site_result.actual_cycles;
        out.sites.push_back(std::move(site_result));
        if (fault_report != nullptr)
            fault_report->sites.push_back(std::move(site_report));
    }

    const std::int64_t acyclic_cycles = acyclicCyclesOn(app, cpu_);
    out.baseline_cycles += acyclic_cycles;
    out.accelerated_cycles += acyclic_cycles;
    out.speedup = out.accelerated_cycles > 0
                      ? static_cast<double>(out.baseline_cycles) /
                            static_cast<double>(out.accelerated_cycles)
                      : 1.0;
    if (registry != nullptr) {
        VEAL_ASSERT(audited_cycles == out.translation_cycles,
                    "phase attribution lost cycles for ", app.name, ": ",
                    audited_cycles, " != ", out.translation_cycles);
    }
    return out;
}

std::int64_t
cpuOnlyCycles(const Application& app, const CpuConfig& cpu)
{
    CpuBaseline priced;
    const CpuBaseline& prices = cpuBaselineOn(app, cpu, priced);
    std::int64_t total = 0;
    for (std::size_t s = 0; s < app.sites.size(); ++s)
        total += prices.sites[s].loop * app.sites[s].invocations;
    return total + acyclicCyclesOn(app, cpu);
}

}  // namespace veal
