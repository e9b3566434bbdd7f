#include "veal/fuzz/oracle.h"

#include <sstream>
#include <utility>

#include "veal/fault/fault_injector.h"
#include "veal/sim/batch.h"
#include "veal/sim/la_executor.h"
#include "veal/support/logging.h"
#include "veal/support/rng.h"

namespace veal {

const char*
toString(OracleOutcome outcome)
{
    switch (outcome) {
      case OracleOutcome::kPass: return "pass";
      case OracleOutcome::kTranslatorReject: return "translator-reject";
      case OracleOutcome::kValidatorReject: return "validator-reject";
      case OracleOutcome::kDivergence: return "divergence";
      case OracleOutcome::kCrashGuard: return "crash-guard";
      case OracleOutcome::kFaultRecovered: return "fault-recovered";
    }
    return "unknown";
}

bool
isFailure(OracleOutcome outcome)
{
    return outcome == OracleOutcome::kValidatorReject ||
           outcome == OracleOutcome::kDivergence ||
           outcome == OracleOutcome::kCrashGuard;
}

ExecutionInput
makeFuzzInput(const Loop& loop, std::uint64_t seed,
              std::int64_t iterations)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 0xf022u);
    ExecutionInput input;
    input.iterations = iterations;
    for (const auto& op : loop.operations()) {
        if (op.opcode == Opcode::kLiveIn)
            input.live_ins[op.id] = rng.nextInRange(-64, 64);
        if (op.is_induction || !op.inputs.empty()) {
            // Carried state read at negative iterations starts defined.
            input.initial[op.id] = rng.nextInRange(-16, 16);
        }
        if (op.opcode == Opcode::kLoad) {
            for (std::int64_t index = -64; index < 512; ++index) {
                input.memory[op.symbol][index] =
                    rng.nextInRange(-100, 100);
            }
        }
    }
    return input;
}

std::optional<std::string>
firstDifference(const ExecutionResult& reference,
                const ExecutionResult& accelerated)
{
    for (const auto& [op, value] : reference.live_outs) {
        const auto it = accelerated.live_outs.find(op);
        if (it == accelerated.live_outs.end()) {
            return "live-out v" + std::to_string(op) +
                   " missing on the accelerator";
        }
        if (it->second != value) {
            std::ostringstream os;
            os << "live-out v" << op << ": interpreter " << value
               << " vs accelerator " << it->second;
            return os.str();
        }
    }
    if (accelerated.live_outs.size() != reference.live_outs.size())
        return std::string("extra live-outs on the accelerator");

    for (const auto& [array, contents] : reference.memory) {
        const auto other = accelerated.memory.find(array);
        if (other == accelerated.memory.end())
            return "array '" + array + "' missing on the accelerator";
        for (const auto& [address, value] : contents) {
            const auto cell = other->second.find(address);
            if (cell == other->second.end()) {
                return array + "[" + std::to_string(address) +
                       "] missing on the accelerator";
            }
            if (cell->second != value) {
                std::ostringstream os;
                os << array << "[" << address << "]: interpreter "
                   << value << " vs accelerator " << cell->second;
                return os.str();
            }
        }
        if (other->second.size() != contents.size())
            return "extra stores into '" + array + "'";
    }
    if (accelerated.memory.size() != reference.memory.size())
        return std::string("accelerator touched extra arrays");
    return std::nullopt;
}

OracleReport
runOracle(const Loop& loop, const LaConfig& config, std::uint64_t seed,
          const OracleOptions& options)
{
    return runOracleBatch({{&loop, &config, seed, options}}).front();
}

std::vector<OracleReport>
runOracleBatch(const std::vector<OracleCase>& cases,
               BatchSimulator* simulator)
{
    std::vector<OracleReport> reports(cases.size());
    ScopedPanicGuard guard;

    // A case that survived translation and validation, waiting on the
    // reference interpretation and the accelerator run.
    struct Pending {
        std::size_t index = 0;
        TranslationResult translation;
        ExecutionInput input;
        ExecutionResult reference;
        bool injected = false;  ///< A fault plan was armed.
        bool batched = false;   ///< reference filled by interpretBatch.
    };
    std::vector<Pending> pending;
    pending.reserve(cases.size());

    // --- Per-case front half: translate, classify rejects, validate.
    for (std::size_t index = 0; index < cases.size(); ++index) {
        const OracleCase& one = cases[index];
        const Loop& loop = *one.loop;
        const LaConfig& config = *one.config;
        const OracleOptions& options = one.options;
        OracleReport& report = reports[index];

        std::optional<FaultInjector> injector;
        if (options.fault_plan.has_value())
            injector.emplace(*options.fault_plan);

        TranslationResult translation;
        try {
            if (injector.has_value()) {
                LadderOutcome outcome = climbTranslationLadder(
                    loop, config, options.mode, nullptr, &*injector);
                translation = std::move(outcome.translation);
                report.rung = outcome.rung;
                report.faults_fired = injector->totalFired();
            } else {
                translation = translateLoop(loop, config, options.mode);
            }
        } catch (const PanicError& panic) {
            report.outcome = OracleOutcome::kCrashGuard;
            report.detail =
                std::string("translator panic: ") + panic.what();
            continue;
        }

        if (!translation.ok) {
            if (injector.has_value() && report.faults_fired > 0) {
                report.outcome = OracleOutcome::kFaultRecovered;
                std::ostringstream os;
                os << "pinned to CPU after " << report.faults_fired
                   << " fault fires: " << toString(translation.reject);
                report.detail = os.str();
                continue;
            }
            report.outcome = OracleOutcome::kTranslatorReject;
            report.detail = toString(translation.reject);
            if (!translation.reject_detail.empty())
                report.detail += ": " + translation.reject_detail;
            continue;
        }
        report.ii = translation.schedule.ii;

        Pending ready;
        try {
            if (options.perturb)
                options.perturb(translation);
            if (translation.graph != nullptr) {
                const auto violation =
                    validateSchedule(*translation.graph, config,
                                     translation.schedule, loop,
                                     translation.analysis);
                if (violation.has_value()) {
                    std::ostringstream os;
                    os << *violation;
                    report.outcome = OracleOutcome::kValidatorReject;
                    report.detail = os.str();
                    continue;
                }
            }
            ready.input =
                makeFuzzInput(loop, one.seed, options.iterations);
        } catch (const PanicError& panic) {
            report.outcome = OracleOutcome::kCrashGuard;
            report.detail =
                std::string("execution panic: ") + panic.what();
            continue;
        }
        ready.index = index;
        ready.translation = std::move(translation);
        ready.injected = injector.has_value();
        pending.push_back(std::move(ready));
    }

    // --- Reference interpretations, one data-parallel call for every
    // lane the batch engine can take (bit-identical to the scalar
    // interpreter, and screened so it cannot panic).
    BatchSimulator transient;
    BatchSimulator& engine =
        simulator != nullptr ? *simulator : transient;
    std::vector<InterpretRequest> lanes;
    std::vector<std::size_t> lane_owner;
    for (std::size_t p = 0; p < pending.size(); ++p) {
        if (interpretable(*cases[pending[p].index].loop)) {
            lanes.push_back(
                {cases[pending[p].index].loop, &pending[p].input});
            lane_owner.push_back(p);
        }
    }
    auto interpreted = engine.interpretBatch(lanes);
    for (std::size_t k = 0; k < lane_owner.size(); ++k) {
        pending[lane_owner[k]].reference = std::move(interpreted[k]);
        pending[lane_owner[k]].batched = true;
    }

    // --- Per-case back half: accelerator run and the differential.
    for (Pending& one : pending) {
        const OracleCase& lane = cases[one.index];
        OracleReport& report = reports[one.index];
        ExecutionResult accelerated;
        try {
            if (!one.batched)
                one.reference = interpretLoop(*lane.loop, one.input);
            accelerated = executeOnAccelerator(*lane.loop,
                                               one.translation,
                                               one.input);
        } catch (const PanicError& panic) {
            report.outcome = OracleOutcome::kCrashGuard;
            report.detail =
                std::string("execution panic: ") + panic.what();
            continue;
        }

        if (auto diff = firstDifference(one.reference, accelerated)) {
            report.outcome = OracleOutcome::kDivergence;
            report.detail = *diff;
            continue;
        }
        if (one.injected &&
            (report.faults_fired > 0 ||
             report.rung != DegradationRung::kNominal)) {
            report.outcome = OracleOutcome::kFaultRecovered;
            std::ostringstream os;
            os << "recovered at rung " << toString(report.rung)
               << " after " << report.faults_fired << " fault fires";
            report.detail = os.str();
            continue;
        }
        report.outcome = OracleOutcome::kPass;
    }
    return reports;
}

}  // namespace veal
