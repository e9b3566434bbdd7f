#ifndef VEAL_VM_TRANSLATOR_H_
#define VEAL_VM_TRANSLATOR_H_

/**
 * @file
 * The loop-accelerator translation pipeline (paper §4.1) under the four
 * static/dynamic splits evaluated in §4.3:
 *
 *  - kStatic: the whole pipeline ran offline; zero runtime penalty (the
 *    "No Translation Overhead" bars of Figure 10).
 *  - kFullyDynamic: everything at runtime with the swing priority.
 *  - kFullyDynamicHeight: everything at runtime with the cheap
 *    height-based priority.
 *  - kHybridStaticCcaPriority: CCA subgraphs (Figure 9(b) procedural
 *    abstraction) and scheduling priority (Figure 9(c) data-section
 *    numbers) are read from static annotations; MII, scheduling, and
 *    register assignment stay dynamic.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "veal/arch/la_config.h"
#include "veal/cca/cca_mapper.h"
#include "veal/fault/fault_injector.h"
#include "veal/ir/loop.h"
#include "veal/ir/loop_analysis.h"
#include "veal/sched/priority.h"
#include "veal/sched/register_alloc.h"
#include "veal/sched/sched_graph.h"
#include "veal/sched/schedule.h"
#include "veal/sched/scheduler.h"
#include "veal/support/cost_meter.h"

namespace veal {

/** Static/dynamic split of the translation pipeline. */
enum class TranslationMode : int {
    kStatic,
    kFullyDynamic,
    kFullyDynamicHeight,
    kHybridStaticCcaPriority,
};

/** Mode name, e.g. "fully-dynamic". */
const char* toString(TranslationMode mode);

/** The mode whose toString() is @p name; nullopt for any other name. */
std::optional<TranslationMode> translationModeByName(const std::string& name);

/**
 * What the static compiler embedded in the binary, in a
 * backward-compatible encoding (paper Figure 9).
 */
struct StaticAnnotations {
    /**
     * CCA subgraphs as procedural abstraction (Figure 9(b)).  Encoded as
     * plain branch-and-link functions, so a machine without a CCA simply
     * executes the ops individually.
     */
    std::optional<CcaMapping> cca_mapping;

    /**
     * Per-op scheduling rank (Figure 9(c)): one number per operation in a
     * data section preceding the loop.  Lower = schedule earlier.
     */
    std::optional<std::vector<int>> op_priority;
};

/** Why translation gave up (the loop then runs on the baseline CPU). */
enum class TranslationReject : int {
    kNone,
    kAnalysis,          ///< Calls / speculation / non-affine patterns.
    kTooManyLoadStreams,
    kTooManyStoreStreams,
    kNoFuForOpcode,     ///< Required FU class absent (e.g. FP on int-only LA).
    kScheduleFailed,    ///< No II <= max_ii admits a schedule.
    kTooFewRegisters,
    kCcaMapping,        ///< Injected CCA-mapping fault aborted the mapper.
    kBudgetExhausted,   ///< Translation-budget watchdog fired.
};

/** Reject name, e.g. "too-many-load-streams". */
const char* toString(TranslationReject reject);

/** Everything the VM learns from translating one loop. */
struct TranslationResult {
    bool ok = false;
    TranslationReject reject = TranslationReject::kNone;
    std::string reject_detail;

    LoopAnalysis analysis;
    CcaMapping mapping;
    /**
     * The scheduling problem; null when translation stopped before
     * reaching it.  Immutable, so a translation points at its front
     * end's graph instead of copying it.
     */
    std::shared_ptr<const SchedGraph> graph;
    Schedule schedule;
    RegisterAssignment registers;
    int mii = 0;

    /** Per-phase work; instructions() gives the Figure 8 breakdown. */
    CostMeter meter;

    /** II-search effort across every scheduling attempt for this loop. */
    SchedulerStats sched_stats;
    /** Larger-II retries forced by register-assignment failures. */
    int register_retries = 0;
    /** Swing order wedged; the height-order fallback was attempted. */
    bool height_fallback = false;

    /**
     * Dynamic translation penalty in baseline-CPU cycles.  Zero for
     * kStatic; otherwise the metered instruction count (the VM translator
     * is modelled at 1 IPC on the host, as in the paper's OProfile
     * methodology).
     */
    double penaltyCycles() const;

    TranslationMode mode = TranslationMode::kFullyDynamic;
};

/**
 * The design-invariant half of one loop's translation: the phases that
 * depend only on the loop, the CCA spec and the latency model, never on
 * FU counts, registers, streams, max II or mode (paper §4.3 moves the
 * same work offline).  Built by buildTranslationFrontEnd() and immutable
 * after, but for a memo of priority orders, which depend on the II too
 * and so are computed on first request; every translateLoop() replays
 * one phase by phase (TranslationOptions::front_end).
 */
struct TranslationFrontEnd {
    /** Built with CCA subgraphs, or without. */
    bool cca = false;

    /**
     * analyzeLoop() of the loop.  Shared between the CCA-on and CCA-off
     * front ends of one loop, which differ only below.
     */
    std::shared_ptr<const LoopAnalysis> analysis;

    /**
     * mapToCca() with CCA on, emptyCcaMapping() without; empty when the
     * analysis failed.
     */
    CcaMapping mapping;

    /** The SchedGraph over `mapping`; null when the analysis failed. */
    std::shared_ptr<const SchedGraph> graph;

    /** recMii() of `graph` (0 when the analysis failed). */
    int rec_mii = 0;

    /**
     * CostMeter units each phase charged while building: kLoopAnalysis
     * (analysis), kCcaMapping (mapping, CCA on only) and
     * kMiiComputation (RecMII).  translateLoop() charges each at the
     * point its phase would have run, so a translation on a front end
     * meters -- and meets its budget checks -- exactly as a fresh one.
     */
    std::uint64_t analysis_units = 0;
    std::uint64_t mapping_units = 0;
    std::uint64_t rec_mii_units = 0;

    /**
     * computeSwingOrder() (@p kind kSwing) or computeHeightOrder()
     * (kHeight) of `graph` at @p ii, charging @p meter the kPriority
     * units that computation charged.  The first request for (@p kind,
     * @p ii) computes the order under the memo's lock; every later one
     * reads it, so design points that share an MII share the order.
     * Safe to call concurrently.  @pre `graph` is not null.
     */
    const NodeOrder& priorityOrder(PriorityKind kind, int ii,
                                   CostMeter* meter = nullptr) const;

  private:
    /** A memoized order and the kPriority units computing it charged. */
    struct MemoizedOrder {
        NodeOrder order;
        std::uint64_t units = 0;
    };

    /**
     * priorityOrder()'s entries by (kind, II).  An entry is immutable once
     * inserted and never erased, so a returned reference stays valid.
     * The II is an MII of `graph`, at most the larger of its RecMII and
     * its total slot demand, so the memo is bounded without eviction.
     * Held by pointer so the front end stays movable.
     */
    struct PriorityMemo {
        std::mutex mutex;
        std::map<std::pair<PriorityKind, int>, MemoizedOrder> orders;
    };
    std::unique_ptr<PriorityMemo> priorities_ =
        std::make_unique<PriorityMemo>();
};

/**
 * Build @p loop's front end for @p latencies, with CCA subgraphs for
 * @p cca when it holds a spec and without when it is empty.  With
 * @p sibling, a front end of the same loop, its analysis (and analysis
 * units) are shared instead of rebuilt.  Unmetered and unfaulted: the
 * units it records are charged by the translations that use it.
 */
TranslationFrontEnd buildTranslationFrontEnd(
    const Loop& loop, const std::optional<CcaSpec>& cca,
    const LatencyModel& latencies,
    const TranslationFrontEnd* sibling = nullptr);

/**
 * Per-call knobs for translateLoop(): fault injection plus the
 * degradation-ladder relaxations the hardened VM retries with.
 */
struct TranslationOptions {
    /** Static annotations (see the 4-arg translateLoop overload). */
    const StaticAnnotations* annotations = nullptr;

    /**
     * The loop's front end, built for this config's CCA spec and latency
     * model with CCA on exactly when config.hasCca() && !disable_cca.
     * nullptr makes the translation build its own.  Results are
     * bit-identical either way; the translation shares its graph.
     */
    const TranslationFrontEnd* front_end = nullptr;

    /**
     * Fault injector the translation probes: the CCA-mapping,
     * scheduler-placement and register-allocation sites where those
     * kernels would run, and the budget watchdog between phases.
     * nullptr = nominal translation, bit-identical to the plain
     * overload.
     */
    FaultInjector* faults = nullptr;

    /**
     * Added to the MII before scheduling starts (the "relaxed II" rung:
     * a less congested reservation table sidesteps placement wedges and
     * shortens operand lifetimes).
     */
    int ii_slack = 0;

    /**
     * Skip CCA subgraph identification entirely (the "no CCA" rung);
     * abstracted subgraphs execute as individual ops.
     */
    bool disable_cca = false;

    /**
     * Budget-watchdog relief: each degradation rung doubles the armed
     * translation budget (FaultInjector::budgetExceeded).
     */
    int budget_relief = 0;
};

/**
 * Run the translation pipeline for @p loop targeting @p config.
 *
 * Thread-safety: a pure function of its arguments -- every product
 * (schedule, registers, CostMeter) lives inside the returned
 * TranslationResult, its graph is immutable (the attached front end's,
 * when one is), and nothing global is written.  The one shared write,
 * an attached front end's priority memo, is locked and fills each entry
 * once with a pure function of the graph, the kind and the II.
 * Concurrent sweep threads therefore never share a mutable translation.
 * (A FaultInjector passed via TranslationOptions is mutable run state
 * owned by the caller and must stay thread-confined.)
 *
 * @param annotations read by kHybridStaticCcaPriority only.  When a
 *        hybrid caller passes none, the translator derives them, as
 *        precompileAnnotations(@p loop, @p config) would, from the
 *        front end it schedules on (with CCA disabled on a CCA
 *        machine, from a CCA-on front end sharing that one's
 *        analysis).  Deriving is unmetered (the static compiler's work
 *        happened offline).  The mapping is always the front end's; an
 *        annotation CCA mapping only makes the CCA phase charge a
 *        decode pass instead of the greedy mapper.
 */
TranslationResult translateLoop(const Loop& loop, const LaConfig& config,
                                TranslationMode mode,
                                const StaticAnnotations* annotations =
                                    nullptr);

/** As above, with fault injection and ladder relaxations. */
TranslationResult translateLoop(const Loop& loop, const LaConfig& config,
                                TranslationMode mode,
                                const TranslationOptions& options);

/**
 * The hardened VM's recovery ladder (DESIGN.md §11), in escalation
 * order.  Loop-level rungs (kNominal .. kNoCca) relax one translation;
 * kNoFission re-translates the unfissioned site loop; kCpuPinned gives
 * up and runs the site on the baseline CPU forever.
 */
enum class DegradationRung : int {
    kNominal = 0,
    kRelaxedIi,
    kNoCca,
    kNoFission,
    kCpuPinned,
};

/** Rung name, e.g. "relaxed-ii". */
const char* toString(DegradationRung rung);

/**
 * True for the rejects the ladder can recover from: schedule failure,
 * register shortfall, CCA mapping and budget exhaustion.  Any other
 * reject (bad analysis, stream overflow, a missing FU class) means the
 * loop genuinely does not fit the LA, and every rung fails it alike.
 */
bool ladderCanRecover(TranslationReject reject);

/** What climbing the loop-level ladder produced. */
struct LadderOutcome {
    /** The final attempt (ok, or the last failure when pinned). */
    TranslationResult translation;

    /** Rung that produced `translation`; kCpuPinned when nothing ok. */
    DegradationRung rung = DegradationRung::kNominal;

    /**
     * Every failed attempt before the final one, in rung order -- the
     * VM charges their metered cycles (work performed before giving
     * up), exactly like nominal failed translations.
     */
    std::vector<TranslationResult> failed_attempts;
};

/**
 * Climb the loop-level degradation rungs for one loop: nominal ->
 * relaxed II -> no CCA, stopping at the first rung whose translation
 * succeeds.  Returns rung kCpuPinned (translation not ok) when every
 * rung fails; the caller decides whether a no-fission retry applies.
 * With @p faults == nullptr the nominal rung is bit-identical to
 * translateLoop() and later rungs only engage on genuine failures.  The
 * climb builds one front end, which every rung with the machine's CCA
 * setting shares, orders included; a CCA machine's no-CCA rung gets a
 * CCA-off front end sharing its analysis, built only when a climb
 * reaches that rung.  The probe sequence is that of plain translations,
 * since every translation probes its fault sites itself.  Hybrid
 * annotations the caller did not pass are derived once per climb, as
 * translateLoop() would.
 */
LadderOutcome climbTranslationLadder(const Loop& loop,
                                     const LaConfig& config,
                                     TranslationMode mode,
                                     const StaticAnnotations* annotations,
                                     FaultInjector* faults);

/**
 * The static compiler stage that produces Figure 9's annotations for a
 * binary: CCA subgraphs and swing scheduling ranks, derived from a
 * front end built for @p config (CCA on when config.hasCca()).  Returns
 * empty annotations for loops that fail analysis.
 */
StaticAnnotations precompileAnnotations(const Loop& loop,
                                        const LaConfig& config);

}  // namespace veal

#endif  // VEAL_VM_TRANSLATOR_H_
