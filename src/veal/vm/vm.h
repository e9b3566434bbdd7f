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

#include <cstdint>
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

/** Runtime policy knobs for the VM. */
struct VmOptions {
    TranslationMode mode = TranslationMode::kFullyDynamic;

    /** Code cache entries (paper §4.3: 16 translations, LRU). */
    int code_cache_entries = 16;

    /**
     * Fraction of invocations that must re-translate despite the cache
     * (Figure 6's miss-rate lines).  0 = each loop translates once.
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
 */
class VirtualMachine {
  public:
    VirtualMachine(LaConfig la, CpuConfig baseline, VmOptions options);

    /** Run @p app to completion and report timing. */
    AppRunResult run(const Application& app) const;

    /**
     * As run(), additionally reporting into @p registry (counters
     * "vm.*", the "vm.ii" histogram, and per-loop trace events; see
     * DESIGN.md §10).  The per-phase "vm.phase_cycles.*" counters this
     * run adds sum *exactly* to the returned translation_cycles -- the
     * attribution is audited with an assertion, not approximated.
     * @p registry may be nullptr (equivalent to the plain overload) and
     * may already hold counts from earlier runs (deltas accumulate).
     */
    AppRunResult run(const Application& app,
                     metrics::Registry* registry) const;

    /**
     * Hardened run: as run(app, registry) but with @p faults injecting
     * deterministic failures into the translation pipeline, which the VM
     * survives by climbing the degradation ladder (relaxed II -> no CCA
     * -> no fission -> pinned CPU), validating control-image checksums
     * before every cached dispatch, and quarantining sites whose images
     * keep corrupting (DESIGN.md §11).  Architectural results are
     * bit-identical to the interpreter under *any* fault plan; only
     * timing degrades.  @p faults == nullptr delegates to the nominal
     * overload.  Fault-taxonomy counters land under "vm.fault.*"; the
     * per-run story is written to @p fault_report when non-null.
     *
     * The cache is *simulated* here (round-robin dispatch through a real
     * CodeCache) rather than modelled, LA-ok pieces always take the LA
     * path, and VmOptions::retranslation_rate / penalty_override do not
     * apply -- this overload answers "does the VM survive faults", not
     * Figure 6's analytic sweep.  VmOptions::tlb does apply: LA
     * dispatches are priced and metered ("vm.tlb.*") exactly as in the
     * nominal overload.
     */
    AppRunResult run(const Application& app, metrics::Registry* registry,
                     FaultInjector* faults,
                     FaultRunReport* fault_report = nullptr) const;

    const LaConfig& laConfig() const { return la_; }
    const CpuConfig& cpuConfig() const { return cpu_; }
    const VmOptions& options() const { return options_; }

  private:
    LaConfig la_;
    CpuConfig cpu_;
    VmOptions options_;
};

/**
 * Cycles for the whole application on @p cpu alone (no LA): used both as
 * the speedup baseline and for the 2-/4-issue comparison bars.
 */
std::int64_t cpuOnlyCycles(const Application& app, const CpuConfig& cpu);

}  // namespace veal

#endif  // VEAL_VM_VM_H_
