#ifndef VEAL_FUZZ_ORACLE_H_
#define VEAL_FUZZ_ORACLE_H_

/**
 * @file
 * The differential oracle at the heart of the fuzzing subsystem.
 *
 * One oracle run takes a loop, an accelerator configuration, and a seed,
 * pushes the loop through the full translation pipeline, and -- when the
 * translator accepts -- executes the translation on the functional LA
 * model against the reference interpreter on identical random inputs.
 * Memory images and scalar live-outs must match byte for byte.
 *
 * Outcomes:
 *  - kPass: translated, validated, and both engines agreed.
 *  - kTranslatorReject: the translator cleanly bounced the loop back to
 *    the CPU (expected for loops beyond the configuration's means).
 *  - kValidatorReject: the translator *accepted* but produced a schedule
 *    that violates a modulo-scheduling invariant.  Always a VEAL bug.
 *  - kDivergence: both engines ran but disagreed.  Always a VEAL bug.
 *  - kCrashGuard: an internal panic (VEAL_ASSERT / panic()) fired inside
 *    the pipeline or the executor, caught by ScopedPanicGuard.  Always a
 *    VEAL bug.
 *  - kFaultRecovered: a fault plan was armed, faults fired, and the
 *    degradation ladder absorbed them -- either a deeper rung translated
 *    (and the result still matched the interpreter) or the loop cleanly
 *    pinned to the CPU.  Not a failure: it is the hardening working.
 */

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "veal/fault/fault_plan.h"
#include "veal/sim/interpreter.h"
#include "veal/vm/translator.h"

namespace veal {

/** Classification of one differential run. */
enum class OracleOutcome : int {
    kPass,
    kTranslatorReject,
    kValidatorReject,
    kDivergence,
    kCrashGuard,
    kFaultRecovered,
};

/** Outcome name, e.g. "divergence". */
const char* toString(OracleOutcome outcome);

/** True for the outcome classes that indicate a VEAL bug. */
bool isFailure(OracleOutcome outcome);

/** Knobs for one oracle run. */
struct OracleOptions {
    TranslationMode mode = TranslationMode::kFullyDynamic;

    /** Iterations both engines execute. */
    std::int64_t iterations = 12;

    /**
     * When set, translation runs through the hardened degradation
     * ladder with this plan armed.  A run that survives fired faults
     * (deeper rung, absorbed retry, or clean CPU pin) classifies as
     * kFaultRecovered; divergences and crashes stay failures.
     */
    std::optional<FaultPlan> fault_plan;

    /**
     * Test hook: mutate the translation between the translator and the
     * validator/executor, to prove the oracle catches an injected
     * scheduler bug.  Never set during real fuzzing.
     */
    std::function<void(TranslationResult&)> perturb;
};

/** What one oracle run concluded. */
struct OracleReport {
    OracleOutcome outcome = OracleOutcome::kPass;

    /** Reject reason, violation text, panic message, or first diff. */
    std::string detail;

    /** Achieved initiation interval when translation succeeded. */
    int ii = 0;

    /** Ladder rung that produced the result (fault-plan runs only). */
    DegradationRung rung = DegradationRung::kNominal;

    /** Total fault fires across all sites (fault-plan runs only). */
    std::int64_t faults_fired = 0;
};

/**
 * Deterministic random execution input for @p loop: live-ins, initial
 * carried state, and a generous window of every loaded array.  Both
 * engines read absent memory as zero, so the window only has to make the
 * run interesting, not cover every address.
 */
ExecutionInput makeFuzzInput(const Loop& loop, std::uint64_t seed,
                             std::int64_t iterations);

/**
 * First difference between the interpreter's and the accelerator's
 * results -- the first live-out or memory cell that differs, by name --
 * or nullopt when they agree exactly.  MemoryImage and the live-out
 * map are ordered, so the text is deterministic.
 */
std::optional<std::string> firstDifference(
    const ExecutionResult& reference, const ExecutionResult& accelerated);

/**
 * Run the full differential pipeline for (@p loop, @p config, @p seed):
 * runOracleBatch() over that one case.
 *
 * Thread-safety: pure function of its arguments (the panic guard is
 * thread-local), so fuzz workers may run oracles concurrently.
 */
OracleReport runOracle(const Loop& loop, const LaConfig& config,
                       std::uint64_t seed,
                       const OracleOptions& options = {});

/** One lane of runOracleBatch (all pointees owned by the caller). */
struct OracleCase {
    const Loop* loop = nullptr;
    const LaConfig* config = nullptr;
    std::uint64_t seed = 0;
    OracleOptions options;
};

class BatchSimulator;

/**
 * Run many differential pipelines, feeding every reference
 * interpretation the batch engine can take (see interpretable()) to one
 * data-parallel interpretBatch() call; lanes it cannot take fall back to
 * interpretLoop() one at a time, so their panics still classify per
 * case.  Reports are index-aligned with @p cases, and each equals the
 * case's runOracle() alone, for any batch width or grouping.
 *
 * @p simulator optionally reuses one worker's arenas across blocks;
 * pass nullptr for a transient one.
 */
std::vector<OracleReport> runOracleBatch(
    const std::vector<OracleCase>& cases,
    BatchSimulator* simulator = nullptr);

}  // namespace veal

#endif  // VEAL_FUZZ_ORACLE_H_
