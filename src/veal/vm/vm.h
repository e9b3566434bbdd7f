#ifndef VEAL_VM_VM_H_
#define VEAL_VM_VM_H_

/**
 * @file
 * The co-designed virtual machine (paper §4.2).
 *
 * The VM monitors an application, dynamically translates hot modulo-
 * schedulable loops for whatever LA the system has, caches the generated
 * control in a software code cache, and falls back to the baseline CPU
 * whenever translation is impossible or unprofitable.
 */

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "veal/arch/cpu_config.h"
#include "veal/arch/la_config.h"
#include "veal/sim/tlb_model.h"
#include "veal/vm/application.h"
#include "veal/vm/code_cache.h"
#include "veal/vm/translator.h"

namespace veal {

namespace metrics {
class Registry;
}  // namespace metrics

/**
 * One loop site's translation front ends (TranslationFrontEnd), per
 * piece, for CCA on and off: the work no design point changes, built
 * once and shared by every fault-free run on an LA with the slot's tag.
 *
 * Filled on first use, not at construction: a suite builder that built
 * every front end would make every mediaFpSuite() caller pay for it
 * (DESIGN.md §8).  The fill is a pure function of the site's pieces and
 * the tag, under std::call_once, so whichever thread fills it, the
 * bytes are the same, and after it the slot is read-only but for each
 * front end's memo of priority orders, which locks itself.  Each piece
 * keeps one LoopAnalysis for both CCA settings, and translations share
 * the graphs rather than copy them.  Nothing is built for the
 * unfissioned loop of a fissioned site, which only fault runs
 * translate.
 */
class FrontEndSlot {
  public:
    /** An empty slot for front ends built with @p cca and @p latencies
        (no CCA-on front ends when @p cca is empty). */
    FrontEndSlot(std::optional<CcaSpec> cca, LatencyModel latencies);

    /**
     * The front end of @p site's piece @p piece (its fissioned pieces in
     * order, or else its loop) for @p la's CCA setting, filling every
     * piece of the slot on the first call.  nullptr -- build afresh --
     * when @p la's CCA spec or latency model differs from the tag
     * (without filling), or when @p site's piece count differs from the
     * one the slot was filled for.  Safe to call concurrently.
     */
    const TranslationFrontEnd* find(const LoopSite& site, std::size_t piece,
                                    const LaConfig& la) const;

    /** True once the slot has been filled. */
    bool filled() const { return filled_.load(std::memory_order_acquire); }

  private:
    struct Piece {
        TranslationFrontEnd off;
        std::optional<TranslationFrontEnd> on;
    };

    std::optional<CcaSpec> cca_;
    LatencyModel latencies_;
    mutable std::once_flag once_;
    mutable std::atomic<bool> filled_{false};
    mutable std::vector<Piece> pieces_;
};

/** Runtime policy knobs for the VM. */
struct VmOptions {
    TranslationMode mode = TranslationMode::kFullyDynamic;

    /** Code cache entries (paper §4.3: 16 translations, LRU). */
    int code_cache_entries = 16;

    /**
     * Fraction of invocations that must re-translate despite the cache
     * (Figure 6's miss-rate lines).  0 = each loop translates once.
     * Analytic dispatch only: a fault run's simulated cache decides its
     * own misses.
     */
    double retranslation_rate = 0.0;

    /**
     * When >= 0, overrides the metered per-translation penalty with a
     * fixed cycle count (the x-axis of Figure 6).
     */
    double penalty_override = -1.0;

    /**
     * Stream-TLB cost model (sim/tlb_model.h).  Off by default; when
     * enabled, page-walk stalls ride on the LA invocation prices, so
     * the LA-vs-CPU path choice and the code-cache fixed point see TLB
     * pressure exactly like any other cycle (the Figure-6 TLB
     * sensitivity axis).
     */
    TlbConfig tlb = TlbConfig::off();
};

/** Outcome for one loop site. */
struct SiteResult {
    std::string loop_name;
    bool accelerated = false;

    /**
     * Why translation gave up: the *first* failed piece's reason (the
     * one the VM hit first; later pieces' reasons are in the metrics
     * trace).  kNone when every piece translated.
     */
    TranslationReject reject = TranslationReject::kNone;

    /** Cycles this site costs on the baseline CPU (original binary). */
    std::int64_t baseline_cycles = 0;

    /** Cycles actually spent (LA or CPU path, plus translation). */
    std::int64_t actual_cycles = 0;

    /** Cycles spent inside the translator for this site. */
    std::int64_t translation_cycles = 0;

    /** Number of translations performed. */
    std::int64_t translations = 0;

    /** Metered instructions per translation (Figure 8's metric). */
    double instructions_per_translation = 0.0;

    /** Achieved II / MII / stage count (accelerated pieces only). */
    int ii = 0;
    int mii = 0;
    int stage_count = 0;
};

/** Dispatch-level outcome of one hardened piece (fault runs only). */
struct FaultPieceReport {
    /** The dispatched loop (owned by the caller's Application). */
    const Loop* loop = nullptr;

    /** Final translation (ok, or the last ladder failure when pinned). */
    TranslationResult translation;

    /** Rung the piece's translation settled on. */
    DegradationRung rung = DegradationRung::kNominal;

    std::int64_t la_dispatches = 0;
    std::int64_t cpu_dispatches = 0;

    /** Checksum mismatches detected on this piece's cached image. */
    std::int64_t checksum_invalidations = 0;

    /** Re-translations forced by invalidation (bounded by the plan). */
    std::int64_t retranslations = 0;

    /** Pinned to the CPU after repeated strikes / exhausted retries. */
    bool quarantined = false;
};

/** Hardened outcome of one loop site. */
struct FaultSiteReport {
    std::string loop_name;

    /** Deepest degradation rung the site needed. */
    DegradationRung rung = DegradationRung::kNominal;

    /** Pieces actually dispatched (the unfissioned loop after a
        no-fission retry; the site loop when CPU-pinned). */
    std::vector<FaultPieceReport> pieces;
};

/** Everything a hardened run recovered from (see DESIGN.md §11). */
struct FaultRunReport {
    std::vector<FaultSiteReport> sites;

    std::int64_t checksum_invalidations = 0;
    std::int64_t quarantines = 0;
    std::int64_t retranslations = 0;
    std::int64_t la_dispatches = 0;
    std::int64_t cpu_dispatches = 0;
};

/** Whole-application outcome. */
struct AppRunResult {
    std::string app_name;

    /** Cycles with no LA at all (the speedup denominator's numerator). */
    std::int64_t baseline_cycles = 0;

    /** Cycles with the VM + LA, including all translation penalties. */
    std::int64_t accelerated_cycles = 0;

    /** Total translation penalty included above. */
    std::int64_t translation_cycles = 0;

    double speedup = 1.0;

    std::int64_t cache_hits = 0;
    std::int64_t cache_misses = 0;

    std::vector<SiteResult> sites;
};

/**
 * The co-designed VM for one (LA, baseline CPU) system.
 *
 * Thread-safety: a VirtualMachine is immutable after construction and
 * run() keeps all per-run state on the stack, so distinct threads may
 * run() distinct (or even the same) instance concurrently.  The parallel
 * sweep engine (veal/explore) relies on this contract; keep run() const.
 *
 * CPU prices: run() reads the application's Application::cpu_baseline
 * when it was priced on this VM's CPU and prices the lanes itself
 * otherwise (cpuBaselineOn()); the table is only read, never filled, so
 * cells sharing one application share it without a lock.  The one
 * thing a run may fill is a site's FrontEndSlot, once, under
 * std::call_once.
 */
class VirtualMachine {
  public:
    VirtualMachine(LaConfig la, CpuConfig baseline, VmOptions options);

    /**
     * Run @p app to completion and report timing.  One run in three
     * phases over one site/piece record:
     *
     *  1. Translate.  With no injector, each piece (each fissioned
     *     piece, or else the site loop) gets one translateLoop(), on
     *     the site's FrontEndSlot when this LA matches its tag; a
     *     failed piece runs on the CPU and the first reject is the site
     *     verdict.  With @p faults, each piece climbs the degradation
     *     ladder (relaxed II -> no CCA), then the site gets one
     *     no-fission retry, then a CPU pin (DESIGN.md §11).
     *  2. Dispatch.  Both models fill the same per-piece counts:
     *     translations charged, LA invocations at the miss and at the
     *     hit price, and CPU invocations.  With no injector they come
     *     from Figure 6's analytic model: code_cache_entries and
     *     retranslation_rate set the miss count (the fits/thrash fixed
     *     point of DESIGN.md §10), and the cheaper of LA and CPU takes
     *     each piece.  With @p faults they
     *     come from a simulated round-robin dispatch through a real
     *     CodeCache of code_cache_entries, which checksums every cached
     *     control image, re-translates invalidated pieces and
     *     quarantines ones that keep corrupting; ok pieces always take
     *     the LA, and retranslation_rate does not apply.
     *  3. Account.  One loop turns the counts into the result, the
     *     registry and the fault report.  penalty_override replaces the
     *     metered penalty of every translation that is kept, and tlb
     *     prices and meters ("vm.tlb.*") LA invocations, in both modes.
     *
     * @p registry, when non-null, receives counters "vm.*", the "vm.ii"
     * histogram and per-piece trace events (DESIGN.md §10), and may
     * already hold counts from earlier runs (deltas accumulate).  The
     * per-phase "vm.phase_cycles.*" counters a run adds sum *exactly*
     * to the returned translation_cycles -- the attribution is audited
     * with an assertion, not approximated.  An armed @p faults changes
     * only the translation policy, the dispatch model and the
     * "vm.fault.*" telemetry; architectural results stay bit-identical
     * to the interpreter under *any* fault plan, only timing degrades.
     * @p fault_report, when non-null, is reset and -- in a fault run --
     * receives the per-site recovery story.
     */
    AppRunResult run(const Application& app,
                     metrics::Registry* registry = nullptr,
                     FaultInjector* faults = nullptr,
                     FaultRunReport* fault_report = nullptr) const;

  private:
    LaConfig la_;
    CpuConfig cpu_;
    VmOptions options_;
};

/**
 * Price every CPU lane of @p app on @p cpu in one simulateCpuBatch()
 * call: each site's unfissioned loop and each fissioned piece, per
 * invocation at the site's iterations.  The one place an application's
 * CPU lanes are listed.
 */
CpuBaseline priceCpuBaseline(const Application& app, const CpuConfig& cpu);

/**
 * @p app's CPU lane prices on @p cpu: app.cpu_baseline when it was
 * priced on a configuration equal to @p cpu (its shape -- site count,
 * pieces per site -- is asserted to match @p app), otherwise a fresh
 * priceCpuBaseline() stored in @p storage.
 */
const CpuBaseline& cpuBaselineOn(const Application& app,
                                 const CpuConfig& cpu,
                                 CpuBaseline& storage);

/**
 * Cycles for the whole application on @p cpu alone (no LA): used both as
 * the speedup baseline and for the 2-/4-issue comparison bars.  Equals
 * VirtualMachine::run's baseline_cycles on the same CPU.
 */
std::int64_t cpuOnlyCycles(const Application& app, const CpuConfig& cpu);

}  // namespace veal

#endif  // VEAL_VM_VM_H_
