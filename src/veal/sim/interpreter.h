#ifndef VEAL_SIM_INTERPRETER_H_
#define VEAL_SIM_INTERPRETER_H_

/**
 * @file
 * Reference functional semantics for the loop IR.
 *
 * The interpreter executes a loop exactly as the baseline processor
 * would: iterations in order, ops in dependence order, memory through a
 * sparse per-array image.  It is the golden model the functional LA
 * executor (veal/sim/la_executor.h) is checked against: a valid modulo
 * schedule must compute byte-identical memory and scalar results.
 *
 * The semantics have one live implementation, the batch engine
 * (BatchSimulator::interpretBatch in veal/sim/batch.h); interpretLoop()
 * is its one-lane form, and reference::interpretLoop the frozen oracle
 * both are tested against.
 *
 * Values are 64-bit integers; floating-point opcodes operate on doubles
 * carried in the same 64 bits via bit casts, so both engines are exactly
 * deterministic.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>

#include "veal/ir/loop.h"
#include "veal/support/assert.h"

namespace veal {

/** Sparse memory: element index -> value, per named array. */
using MemoryImage =
    std::map<std::string, std::map<std::int64_t, std::int64_t>>;

/** Everything a loop execution needs. */
struct ExecutionInput {
    MemoryImage memory;

    /** Value of each kLiveIn op (missing entries read as 0). */
    std::map<OpId, std::int64_t> live_ins;

    /**
     * Initial values of loop-carried state: the value op @p id "produced"
     * before the first iteration (iteration -1, -2, ...).  Missing
     * entries read as 0.  Induction variables start at their entry here
     * too (value at iteration -1; the first body iteration sees
     * initial + step).
     */
    std::map<OpId, std::int64_t> initial;

    std::int64_t iterations = 1;
};

/** What a loop execution produced. */
struct ExecutionResult {
    MemoryImage memory;

    /** Final value of every op marked live-out. */
    std::map<OpId, std::int64_t> live_outs;
};

/**
 * Execute @p loop: asserts that it verifies, then runs it as one
 * interpretBatch() lane.
 * @pre the loop contains no kCall ops (the batch compile panics on one,
 * so a caller's panic guard still classifies the case).
 */
ExecutionResult interpretLoop(const Loop& loop, const ExecutionInput& input);

/** Shared scalar semantics of a single operation (used by both engines). */
std::int64_t evaluateOp(Opcode opcode, const std::vector<std::int64_t>&
                        inputs, std::int64_t immediate);

namespace detail {

inline double
opBitsAsDouble(std::int64_t bits)
{
    return std::bit_cast<double>(bits);
}

inline std::int64_t
opDoubleAsBits(double value)
{
    return std::bit_cast<std::int64_t>(value);
}

/**
 * Integer ALU ops wrap in two's complement, like the modeled datapath.
 * Routing add/sub/mul through uint64 keeps the wraparound well-defined
 * (signed overflow is UB and the fuzz/fault campaigns do overflow).
 */
inline std::uint64_t
opToUnsigned(std::int64_t value)
{
    return static_cast<std::uint64_t>(value);
}

inline std::int64_t
opToSigned(std::uint64_t value)
{
    return static_cast<std::int64_t>(value);
}

}  // namespace detail

/**
 * Same semantics over a raw operand span -- the allocation-free entry
 * point the batch engine steps through, inline because it sits on the
 * per-(op, iteration) hot path.  The vector overload delegates here,
 * so there is exactly one copy of the op semantics.
 */
inline std::int64_t
evaluateOp(Opcode opcode, const std::int64_t* in, std::size_t count,
           std::int64_t immediate)
{
    using detail::opBitsAsDouble;
    using detail::opDoubleAsBits;
    using detail::opToSigned;
    using detail::opToUnsigned;
    auto arg = [&](std::size_t index) {
        return index < count ? in[index] : 0;
    };
    auto shiftAmount = [](std::int64_t raw) { return raw & 63; };
    switch (opcode) {
      case Opcode::kConst: return immediate;
      case Opcode::kLiveIn: return arg(0);  // Bound by the caller.
      case Opcode::kAdd:
        return opToSigned(opToUnsigned(arg(0)) + opToUnsigned(arg(1)));
      case Opcode::kSub:
        return opToSigned(opToUnsigned(arg(0)) - opToUnsigned(arg(1)));
      case Opcode::kMul:
        return opToSigned(opToUnsigned(arg(0)) * opToUnsigned(arg(1)));
      case Opcode::kDiv:
        if (arg(1) == 0)
            return 0;
        if (arg(1) == -1)  // INT64_MIN / -1 overflows; wrap like neg.
            return opToSigned(0u - opToUnsigned(arg(0)));
        return arg(0) / arg(1);
      case Opcode::kShl:
        return static_cast<std::int64_t>(
            static_cast<std::uint64_t>(arg(0)) << shiftAmount(arg(1)));
      case Opcode::kShr:
        return static_cast<std::int64_t>(
            static_cast<std::uint64_t>(arg(0)) >> shiftAmount(arg(1)));
      case Opcode::kAnd: return arg(0) & arg(1);
      case Opcode::kOr: return arg(0) | arg(1);
      case Opcode::kXor: return arg(0) ^ arg(1);
      case Opcode::kNot: return ~arg(0);
      case Opcode::kCmp: return arg(0) < arg(1) ? 1 : 0;
      case Opcode::kSelect: return arg(0) != 0 ? arg(1) : arg(2);
      case Opcode::kMin: return arg(0) < arg(1) ? arg(0) : arg(1);
      case Opcode::kMax: return arg(0) > arg(1) ? arg(0) : arg(1);
      case Opcode::kAbs:
        return arg(0) < 0 ? opToSigned(0u - opToUnsigned(arg(0)))
                          : arg(0);
      case Opcode::kFAdd: return opDoubleAsBits(opBitsAsDouble(arg(0)) +
                                                opBitsAsDouble(arg(1)));
      case Opcode::kFSub: return opDoubleAsBits(opBitsAsDouble(arg(0)) -
                                                opBitsAsDouble(arg(1)));
      case Opcode::kFMul: return opDoubleAsBits(opBitsAsDouble(arg(0)) *
                                                opBitsAsDouble(arg(1)));
      case Opcode::kFDiv:
        return opDoubleAsBits(
            opBitsAsDouble(arg(1)) == 0.0
                ? 0.0
                : opBitsAsDouble(arg(0)) / opBitsAsDouble(arg(1)));
      case Opcode::kFSqrt:
        return opDoubleAsBits(opBitsAsDouble(arg(0)) < 0.0
                                  ? 0.0
                                  : std::sqrt(opBitsAsDouble(arg(0))));
      case Opcode::kFCmp:
        return opBitsAsDouble(arg(0)) < opBitsAsDouble(arg(1)) ? 1 : 0;
      case Opcode::kFAbs:
        return opDoubleAsBits(std::fabs(opBitsAsDouble(arg(0))));
      case Opcode::kItoF:
        return opDoubleAsBits(static_cast<double>(arg(0)));
      case Opcode::kFtoI: {
        // Out-of-range conversion is UB; the modeled unit saturates
        // NaN/inf/overflow to 0 like the non-finite case.
        const double value = opBitsAsDouble(arg(0));
        if (!std::isfinite(value) || value < -9223372036854775808.0 ||
            value >= 9223372036854775808.0)
            return 0;
        return static_cast<std::int64_t>(value);
      }
      case Opcode::kLoad:
      case Opcode::kStore:
      case Opcode::kBranch:
      case Opcode::kCall:
      case Opcode::kCca:
      case Opcode::kNumOpcodes:
        break;
    }
    panic("evaluateOp: opcode ", toString(opcode),
          " has no scalar semantics");
}

}  // namespace veal

#endif  // VEAL_SIM_INTERPRETER_H_
