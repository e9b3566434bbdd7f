#include "veal/vm/vm.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "veal/vm/control_image.h"
#include "veal/vm/persist/blob.h"
#include "veal/support/assert.h"
#include "veal/support/metrics/metrics.h"

namespace veal {

FrontEndSlot::FrontEndSlot(std::optional<CcaSpec> cca,
                           LatencyModel latencies)
    : cca_(std::move(cca)), latencies_(std::move(latencies))
{}

const TranslationFrontEnd*
FrontEndSlot::find(const LoopSite& site, std::size_t piece,
                   const LaConfig& la) const
{
    if (la.cca != cca_ || !(la.latencies == latencies_))
        return nullptr;
    const bool fissioned = !site.fissioned.empty();
    const std::size_t count = fissioned ? site.fissioned.size() : 1;
    std::call_once(once_, [&] {
        pieces_.resize(count);
        for (std::size_t i = 0; i < count; ++i) {
            const Loop& loop = fissioned ? site.fissioned[i] : site.loop;
            Piece& built = pieces_[i];
            built.off = buildTranslationFrontEnd(loop, std::nullopt,
                                                 latencies_);
            if (cca_.has_value()) {
                built.on = buildTranslationFrontEnd(loop, cca_, latencies_,
                                                    &built.off);
            }
        }
        filled_.store(true, std::memory_order_release);
    });
    if (pieces_.size() != count || piece >= count)
        return nullptr;
    const Piece& found = pieces_[piece];
    return la.hasCca() ? &*found.on : &found.off;
}

VirtualMachine::VirtualMachine(LaConfig la, CpuConfig baseline,
                               VmOptions options)
    : la_(std::move(la)), cpu_(std::move(baseline)),
      options_(std::move(options))
{}

namespace {

/** Meter @p misses first and @p hits warm invocations' TLB charges. */
void
meterTlb(metrics::Registry& registry, const TlbCharge& first,
         const TlbCharge& warm, std::int64_t misses, std::int64_t hits)
{
    registry.add("vm.tlb.pages", misses * first.pages + hits * warm.pages);
    registry.add("vm.tlb.walks", misses * first.walks + hits * warm.walks);
    registry.add("vm.tlb.cycles", misses * first.cycles + hits * warm.cycles);
}

/** @p app's acyclic remainder on @p cpu. */
std::int64_t
acyclicCyclesOn(const Application& app, const CpuConfig& cpu)
{
    return static_cast<std::int64_t>(
        static_cast<double>(app.acyclic_cycles) /
        std::max(cpu.acyclic_speedup, 1.0));
}

/** One piece of one site, from its translation to its dispatch counts. */
struct PieceRecord {
    const Loop* loop = nullptr;
    std::int64_t cpu_cycles_per_invocation = 0;
    TranslationResult translation{};
    DegradationRung rung = DegradationRung::kNominal;
    // LA prices (translated-ok pieces only), TLB included, so the path
    // choice and the cache fixed point see TLB pressure like any cycle.
    persist::ServePrice first_price{};  ///< Cache-miss invocation.
    persist::ServePrice warm_price{};   ///< Cache-hit invocation.

    // Filled by either dispatch model.  The three invocation counts sum
    // to the site's invocations.
    std::int64_t translations = 0;  ///< Translations charged.
    std::int64_t la_first = 0;      ///< LA invocations at the miss price.
    std::int64_t la_warm = 0;       ///< LA invocations at the hit price.
    std::int64_t cpu_runs = 0;      ///< Invocations on the CPU.

    // Recovery counts (simulated dispatch only).
    std::int64_t invalidations = 0;
    std::int64_t retranslations = 0;
    bool quarantined = false;
};

/** One loop site: its translated pieces and its abandoned work. */
struct SiteRecord {
    const LoopSite* site = nullptr;
    /** The unfissioned loop's CPU price: the site's baseline, and what a
        pinned site runs at. */
    std::int64_t baseline_cpu_cycles_per_invocation = 0;
    /** The site verdict: the first failed piece's reject. */
    TranslationReject reject = TranslationReject::kNone;
    /** Deepest rung the site needed (fault runs). */
    DegradationRung rung = DegradationRung::kNominal;
    /** Pinned to the CPU (fault runs): no piece dispatches. */
    bool pinned = false;
    std::vector<PieceRecord> pieces;
    /** Work performed then abandoned (failed ladder attempts, pieces a
        no-fission retry superseded): charged exactly once each. */
    std::vector<TranslationResult> charged_once;
};

/**
 * Translate phase for one site, whose pieces are its fissioned pieces
 * or else the loop itself, CPU-priced from @p prices.  With no
 * injector, each piece gets one translateLoop() -- on the site's
 * front-end slot when @p la matches its tag -- and a failed piece runs
 * on the CPU.  With one, each piece climbs the loop-level ladder; a
 * piece that exhausts its rungs escalates the whole site: one
 * no-fission retry of the unfissioned loop (every relaxation on, extra
 * budget relief), then a permanent CPU pin -- straight to the pin when
 * the reject is not one the ladder recovers from.  Translated-ok pieces
 * are priced on the LA.
 */
SiteRecord
translateSite(const LoopSite& site, const CpuBaseline::Site& prices,
              const LaConfig& la, const VmOptions& options,
              FaultInjector* faults)
{
    SiteRecord record;
    record.site = &site;
    record.baseline_cpu_cycles_per_invocation = prices.loop;

    bool pinned = false;
    bool retry_unfissioned = false;
    const bool fissioned = !site.fissioned.empty();
    const std::size_t count = fissioned ? site.fissioned.size() : 1;
    for (std::size_t i = 0; i < count; ++i) {
        PieceRecord piece{
            .loop = fissioned ? &site.fissioned[i] : &site.loop,
            .cpu_cycles_per_invocation =
                fissioned ? prices.pieces[i] : prices.loop};
        if (faults == nullptr) {
            TranslationOptions nominal;
            if (site.front_ends != nullptr)
                nominal.front_end = site.front_ends->find(site, i, la);
            piece.translation =
                translateLoop(*piece.loop, la, options.mode, nominal);
            if (!piece.translation.ok &&
                record.reject == TranslationReject::kNone)
                record.reject = piece.translation.reject;
            record.pieces.push_back(std::move(piece));
            continue;
        }
        LadderOutcome outcome = climbTranslationLadder(
            *piece.loop, la, options.mode, nullptr, faults);
        for (auto& attempt : outcome.failed_attempts)
            record.charged_once.push_back(std::move(attempt));
        if (!outcome.translation.ok) {
            record.reject = outcome.translation.reject;
            retry_unfissioned = ladderCanRecover(record.reject);
            record.charged_once.push_back(std::move(outcome.translation));
            pinned = true;
            break;  // Later pieces are moot: the site either
                    // re-translates unfissioned or pins.
        }
        record.rung = std::max(record.rung, outcome.rung);
        piece.rung = outcome.rung;
        piece.translation = std::move(outcome.translation);
        record.pieces.push_back(std::move(piece));
    }

    if (pinned && retry_unfissioned) {
        TranslationOptions nf;
        nf.faults = faults;
        nf.ii_slack = 2;
        nf.disable_cca = true;
        nf.budget_relief = 3;
        TranslationResult tr = translateLoop(site.loop, la, options.mode, nf);
        if (tr.ok) {
            // Sibling pieces that did translate are sunk work now that
            // the unfissioned loop replaces them.
            for (auto& piece : record.pieces)
                record.charged_once.push_back(std::move(piece.translation));
            record.pieces.clear();
            record.pieces.push_back(
                {.loop = &site.loop,
                 .cpu_cycles_per_invocation = prices.loop,
                 .translation = std::move(tr),
                 .rung = DegradationRung::kNoFission});
            record.rung = DegradationRung::kNoFission;
            record.reject = TranslationReject::kNone;
            pinned = false;
        } else {
            record.charged_once.push_back(std::move(tr));
        }
    }

    if (pinned) {
        record.pinned = true;
        record.rung = DegradationRung::kCpuPinned;
        for (auto& piece : record.pieces)
            record.charged_once.push_back(std::move(piece.translation));
        record.pieces.clear();
    }

    for (auto& piece : record.pieces) {
        if (!piece.translation.ok)
            continue;
        const persist::TranslationSummary summary =
            persist::summarize(piece.translation);
        piece.first_price = persist::servePrice(summary, la, options.tlb,
                                                site.iterations, true);
        piece.warm_price = persist::servePrice(summary, la, options.tlb,
                                               site.iterations, false);
    }
    return record;
}

/**
 * Figure 6's analytic dispatch (no injector).  With round-robin site
 * interleaving and LRU replacement, either every hot translation stays
 * resident (one miss each) or the working set thrashes (every
 * invocation misses), and the forced-retranslation rate floors both.
 * The working set counts only pieces that actually *take* the LA path
 * -- a piece whose CPU path wins is translated once for the comparison
 * but never occupies a cache entry.  Fixed point: decide paths under the
 * fits assumption; if the winners overflow the cache, re-decide
 * everything under thrash pricing (the conservative resolution of mixed
 * equilibria -- see DESIGN.md §10).
 */
void
dispatchAnalytic(std::vector<SiteRecord>& sites, const VmOptions& options,
                 const std::string& app_name, metrics::Registry* registry)
{
    const auto missesFor = [&](const LoopSite& site, bool fits) {
        std::int64_t misses = fits ? 1 : site.invocations;
        const auto forced = static_cast<std::int64_t>(
            std::llround(options.retranslation_rate *
                         static_cast<double>(site.invocations)));
        return std::clamp<std::int64_t>(std::max(misses, 1 + forced), 1,
                                        site.invocations);
    };

    // LA-vs-CPU path choice for one translated-ok piece.  Translation
    // work is sunk cost either way, so it is not part of the comparison.
    const auto laWins = [&](const LoopSite& site, const PieceRecord& piece,
                            bool fits) {
        const std::int64_t misses = missesFor(site, fits);
        const std::int64_t hits = site.invocations - misses;
        const std::int64_t la_total =
            misses * piece.first_price.cycles +
            hits * piece.warm_price.cycles;
        return la_total <= piece.cpu_cycles_per_invocation * site.invocations;
    };

    int resident_pieces = 0;
    for (const auto& record : sites) {
        for (const auto& piece : record.pieces) {
            if (piece.translation.ok && laWins(*record.site, piece, true))
                ++resident_pieces;
        }
    }
    const bool cache_fits = resident_pieces <= options.code_cache_entries;
    if (registry != nullptr) {
        registry->add("vm.apps");
        registry->add("vm.resident_pieces", resident_pieces);
        registry->trace("vm/" + app_name, "cache",
                        cache_fits ? "fits" : "thrash", resident_pieces);
    }

    // A resident LA piece re-translates on every cache miss; a
    // CPU-winning piece is translated exactly once and never re-enters
    // the cache; a failed piece runs on the CPU.
    for (auto& record : sites) {
        const LoopSite& site = *record.site;
        for (auto& piece : record.pieces) {
            if (piece.translation.ok && laWins(site, piece, cache_fits)) {
                piece.translations = missesFor(site, cache_fits);
                piece.la_first = piece.translations;
                piece.la_warm = site.invocations - piece.la_first;
            } else {
                piece.translations = piece.translation.ok ? 1 : 0;
                piece.cpu_runs = site.invocations;
            }
        }
    }
}

/**
 * The simulated dispatch of a fault run: explicit round-robin over
 * invocations through a real code cache.  Every cached dispatch
 * validates the control image's checksum first; a mismatch invalidates
 * the entry, runs the invocation on the CPU, and re-translates on the
 * next dispatch -- at most plan.retranslation_bound times before the
 * piece is quarantined (as it is after plan.quarantine_strikes
 * mismatches).
 */
void
dispatchSimulated(std::vector<SiteRecord>& sites, const VmOptions& options,
                  FaultInjector& faults)
{
    const FaultPlan& plan = faults.plan();
    CodeCache cache(options.code_cache_entries);
    struct ResidentImage {
        ControlImage image;
        std::uint32_t expected_checksum = 0;
    };
    std::unordered_map<std::string, ResidentImage> resident;

    // Cache keys and strike state (pinned sites have no pieces).
    // Deliberately *not* stored with the cached image: quarantine must
    // survive eviction.
    struct Dispatch {
        PieceRecord* piece = nullptr;
        std::string key;
        int strikes = 0;
        bool rebuild_pending = false;
    };
    std::vector<std::vector<Dispatch>> dispatches(sites.size());
    std::int64_t max_invocations = 0;
    for (std::size_t s = 0; s < sites.size(); ++s) {
        max_invocations =
            std::max(max_invocations, sites[s].site->invocations);
        for (auto& piece : sites[s].pieces) {
            dispatches[s].push_back(
                {&piece, std::to_string(s) + "/" + piece.loop->name()});
        }
    }

    for (std::int64_t round = 0; round < max_invocations; ++round) {
        for (std::size_t s = 0; s < sites.size(); ++s) {
            if (round >= sites[s].site->invocations)
                continue;
            for (Dispatch& dispatch : dispatches[s]) {
                PieceRecord& piece = *dispatch.piece;
                if (piece.quarantined) {
                    ++piece.cpu_runs;
                    continue;
                }
                if (cache.lookup(dispatch.key)) {
                    ResidentImage& entry = resident.at(dispatch.key);
                    if (faults.probe(FaultSite::kCacheCorruption)) {
                        entry.image.flipBit(faults.corruptionBit(
                            entry.image.words().size() * 32));
                    }
                    if (entry.image.checksum() != entry.expected_checksum) {
                        ++piece.invalidations;
                        ++dispatch.strikes;
                        cache.erase(dispatch.key);
                        resident.erase(dispatch.key);
                        if (dispatch.strikes >= plan.quarantine_strikes ||
                            piece.retranslations >=
                                plan.retranslation_bound) {
                            piece.quarantined = true;
                        } else {
                            dispatch.rebuild_pending = true;
                        }
                        ++piece.cpu_runs;
                        continue;
                    }
                    ++piece.la_warm;
                    continue;
                }
                ++piece.la_first;
                ++piece.translations;
                if (dispatch.rebuild_pending) {
                    dispatch.rebuild_pending = false;
                    ++piece.retranslations;
                }
                ControlImage image =
                    ControlImage::encode(*piece.loop, piece.translation);
                const std::uint32_t expected = image.checksum();
                std::string evicted;
                cache.insert(dispatch.key, &evicted);
                if (!evicted.empty())
                    resident.erase(evicted);
                // insert_or_assign, not emplace: if the key were somehow
                // still resident (cache/payload desync), the freshly
                // encoded image must win -- emplace would silently keep
                // the stale one and the checksum guard would misfire.
                resident.insert_or_assign(
                    dispatch.key, ResidentImage{std::move(image), expected});
            }
        }
    }
}

/**
 * Charge @p tr's metered work once (a failed translation, or work a
 * fault run abandoned), mirroring it into @p registry's
 * vm.phase_cycles.* counters and @p audited.  Returns the cycles.
 */
std::int64_t
chargeOnce(const TranslationResult& tr, metrics::Registry* registry,
           std::int64_t& audited)
{
    const bool metered = tr.mode != TranslationMode::kStatic;
    if (registry != nullptr) {
        if (!tr.ok) {
            registry->add(std::string("vm.translate.reject.") +
                          toString(tr.reject));
        }
        if (metered) {
            audited += metrics::chargePhaseCycles(
                *registry, "vm.phase_cycles", tr.meter, 1);
        }
    }
    return static_cast<std::int64_t>(
        metered ? tr.meter.totalInstructions() : 0.0);
}

}  // namespace

AppRunResult
VirtualMachine::run(const Application& app, metrics::Registry* registry,
                    FaultInjector* faults,
                    FaultRunReport* fault_report) const
{
    if (fault_report != nullptr)
        *fault_report = FaultRunReport{};
    FaultRunReport* report = faults != nullptr ? fault_report : nullptr;

    AppRunResult out;
    out.app_name = app.name;
    CpuBaseline priced;
    const CpuBaseline& cpu_prices = cpuBaselineOn(app, cpu_, priced);

    // (1) Translate every piece and price it on the LA.
    std::vector<SiteRecord> sites;
    sites.reserve(app.sites.size());
    for (std::size_t s = 0; s < app.sites.size(); ++s) {
        sites.push_back(translateSite(app.sites[s], cpu_prices.sites[s],
                                      la_, options_, faults));
    }

    // (2) Dispatch: fill every piece's counts, analytically or through a
    // simulated, checksummed code cache.
    if (faults == nullptr)
        dispatchAnalytic(sites, options_, app.name, registry);
    else
        dispatchSimulated(sites, options_, *faults);

    // (3) Account.  Translation-cycle attribution is exact: every int64
    // charged below is mirrored into the registry's vm.phase_cycles.*
    // counters, and audited_cycles re-sums those mirrors for the closing
    // assertion.
    std::int64_t audited_cycles = 0;
    if (faults != nullptr && registry != nullptr)
        registry->add("vm.fault.runs");

    for (const auto& record : sites) {
        const LoopSite& site = *record.site;
        SiteResult site_result;
        site_result.loop_name = site.loop.name();
        site_result.reject = record.reject;
        site_result.baseline_cycles =
            record.baseline_cpu_cycles_per_invocation * site.invocations;

        FaultSiteReport site_report;
        std::string fault_scope;
        if (faults != nullptr && registry != nullptr) {
            fault_scope = "vm.fault/" + app.name + "/" + site.loop.name();
            registry->add(std::string("vm.fault.rung.") +
                          toString(record.rung));
            registry->trace(fault_scope, "rung", toString(record.rung),
                            static_cast<std::int64_t>(record.rung));
        }

        for (const auto& tr : record.charged_once) {
            site_result.translation_cycles +=
                chargeOnce(tr, registry, audited_cycles);
        }

        if (record.pinned) {
            site_result.actual_cycles += site_result.baseline_cycles;
            if (registry != nullptr) {
                registry->add("vm.fault.pinned_sites");
                registry->add("vm.fault.dispatch.cpu", site.invocations);
            }
            if (report != nullptr) {
                // The last failed attempt: a fissioned site's pin also
                // sinks the siblings that translated, after it.
                FaultPieceReport piece_report;
                piece_report.loop = &site.loop;
                const auto failed = std::find_if(
                    record.charged_once.rbegin(), record.charged_once.rend(),
                    [](const TranslationResult& tr) { return !tr.ok; });
                if (failed != record.charged_once.rend())
                    piece_report.translation = *failed;
                piece_report.rung = DegradationRung::kCpuPinned;
                piece_report.cpu_dispatches = site.invocations;
                report->cpu_dispatches += site.invocations;
                site_report.pieces.push_back(std::move(piece_report));
            }
        }

        for (const auto& piece : record.pieces) {
            const auto& tr = piece.translation;
            VEAL_ASSERT(piece.la_first + piece.la_warm + piece.cpu_runs ==
                            site.invocations,
                        "dispatch accounting lost an invocation of ",
                        piece.loop->name());
            site_result.actual_cycles +=
                piece.la_first * piece.first_price.cycles +
                piece.la_warm * piece.warm_price.cycles +
                piece.cpu_runs * piece.cpu_cycles_per_invocation;

            std::string trace_scope;
            if (registry != nullptr) {
                trace_scope = "vm/" + app.name + "/" + piece.loop->name();
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
                // A failed translation charges the analysis the VM
                // performed before giving up, once.
                const std::int64_t failure_cycles =
                    chargeOnce(tr, registry, audited_cycles);
                site_result.translation_cycles += failure_cycles;
                if (registry != nullptr) {
                    registry->trace(trace_scope, "translate",
                                    toString(tr.reject), failure_cycles);
                }
                continue;
            }

            const double penalty = options_.penalty_override >= 0.0
                                       ? options_.penalty_override
                                       : tr.penaltyCycles();
            const auto translation_cycles = static_cast<std::int64_t>(
                penalty * static_cast<double>(piece.translations));
            site_result.translation_cycles += translation_cycles;
            site_result.translations += piece.translations;
            out.cache_hits += piece.la_warm;
            out.cache_misses += piece.la_first;
            const std::int64_t la_dispatches = piece.la_first + piece.la_warm;
            if (la_dispatches > 0) {
                site_result.accelerated = true;
                site_result.instructions_per_translation =
                    tr.meter.totalInstructions();
                site_result.ii = tr.schedule.ii;
                site_result.mii = tr.mii;
                site_result.stage_count = tr.schedule.stage_count;
            }

            if (registry != nullptr) {
                registry->add("vm.translate.ok");
                registry->add("vm.translations", piece.translations);
                registry->trace(trace_scope, "translate", "ok",
                                translation_cycles);
                if (options_.penalty_override >= 0.0) {
                    registry->add("vm.phase_cycles.override",
                                  translation_cycles);
                    audited_cycles += translation_cycles;
                } else if (tr.mode != TranslationMode::kStatic &&
                           piece.translations > 0) {
                    const std::int64_t charged = metrics::chargePhaseCycles(
                        *registry, "vm.phase_cycles", tr.meter,
                        piece.translations);
                    VEAL_ASSERT(charged == translation_cycles,
                                "phase split diverged for ",
                                piece.loop->name());
                    audited_cycles += charged;
                }
                if (la_dispatches > 0) {
                    registry->add("vm.path.la");
                    registry->add("vm.cache.hits", piece.la_warm);
                    registry->add("vm.cache.misses", piece.la_first);
                    registry->observe("vm.ii", tr.schedule.ii);
                    registry->trace(trace_scope, "path", "la",
                                    tr.schedule.ii);
                    if (options_.tlb.enabled) {
                        meterTlb(*registry, piece.first_price.tlb,
                                 piece.warm_price.tlb, piece.la_first,
                                 piece.la_warm);
                    }
                } else {
                    registry->add("vm.path.cpu");
                    registry->trace(trace_scope, "path", "cpu",
                                    piece.cpu_cycles_per_invocation);
                }
                if (piece.invalidations > 0) {
                    registry->add("vm.fault.invalidations",
                                  piece.invalidations);
                    registry->trace(fault_scope, "invalidate",
                                    piece.loop->name(), piece.invalidations);
                }
                if (piece.retranslations > 0) {
                    registry->add("vm.fault.retranslations",
                                  piece.retranslations);
                }
                if (piece.quarantined)
                    registry->add("vm.fault.quarantines");
                if (faults != nullptr && la_dispatches > 0)
                    registry->add("vm.fault.dispatch.la", la_dispatches);
                if (faults != nullptr && piece.cpu_runs > 0)
                    registry->add("vm.fault.dispatch.cpu", piece.cpu_runs);
            }
            if (report != nullptr) {
                FaultPieceReport piece_report;
                piece_report.loop = piece.loop;
                piece_report.translation = tr;
                piece_report.rung = piece.rung;
                piece_report.la_dispatches = la_dispatches;
                piece_report.cpu_dispatches = piece.cpu_runs;
                piece_report.checksum_invalidations = piece.invalidations;
                piece_report.retranslations = piece.retranslations;
                piece_report.quarantined = piece.quarantined;
                report->checksum_invalidations += piece.invalidations;
                report->retranslations += piece.retranslations;
                report->quarantines += piece.quarantined ? 1 : 0;
                report->la_dispatches += la_dispatches;
                report->cpu_dispatches += piece.cpu_runs;
                site_report.pieces.push_back(std::move(piece_report));
            }
        }
        site_result.actual_cycles += site_result.translation_cycles;

        out.translation_cycles += site_result.translation_cycles;
        out.baseline_cycles += site_result.baseline_cycles;
        out.accelerated_cycles += site_result.actual_cycles;
        out.sites.push_back(std::move(site_result));
        if (report != nullptr) {
            site_report.loop_name = site.loop.name();
            site_report.rung = record.rung;
            report->sites.push_back(std::move(site_report));
        }
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
