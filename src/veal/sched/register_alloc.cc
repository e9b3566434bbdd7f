#include "veal/sched/register_alloc.h"

#include "veal/support/assert.h"

namespace veal {

RegisterAssignment
assignRegisters(const Loop& loop,
                [[maybe_unused]] const LoopAnalysis& analysis,
                const SchedGraph& graph, const Schedule& schedule,
                const LaConfig& config, CostMeter* meter)
{
    RegisterAssignment result;
    const int num_units = graph.numUnits();
    result.reg_of_unit.assign(static_cast<std::size_t>(num_units), -1);
    result.reg_of_source_op.assign(static_cast<std::size_t>(loop.size()),
                                   -1);

    int next_int = 0;
    int next_fp = 0;
    auto charge = [&](std::uint64_t units) {
        if (meter != nullptr)
            meter->charge(TranslationPhase::kRegisterAssignment, units);
    };

    // Constants and scalar live-ins consumed by scheduled units occupy
    // memory-mapped registers written before the loop is invoked.
    for (const auto& op : loop.operations()) {
        if (!op.isValueSource())
            continue;
        charge(1);
        bool needed = false;
        bool fp_consumer = false;
        for (const auto& use_op : loop.operations()) {
            for (std::size_t slot = 0; slot < use_op.inputs.size();
                 ++slot) {
                if (use_op.inputs[slot].producer != op.id)
                    continue;
                charge(1);
                if (graph.unitOf(use_op.id) == -1)
                    continue;  // Folded into AG / control configuration.
                if (use_op.opcode == Opcode::kLoad)
                    continue;  // Address operand: AG configuration.
                if (use_op.opcode == Opcode::kStore && slot == 0)
                    continue;  // Store address operand: AG configuration.
                needed = true;
                fp_consumer |= opcodeInfo(use_op.opcode).is_float;
            }
        }
        if (needed) {
            // A scalar consumed by FP units lives in the FP file.
            result.reg_of_source_op[static_cast<std::size_t>(op.id)] =
                fp_consumer ? next_fp++ : next_int++;
        }
    }

    // Unit results: a register is needed unless every consumer reads the
    // value straight off the interconnect (issues exactly when the value
    // appears, same iteration) or through a memory FIFO (store inputs),
    // and the value is not a scalar live-out.
    for (const auto& unit : graph.units()) {
        charge(1);
        if (unit.kind == UnitKind::kMemory) {
            // Loads deliver through FIFOs; stores produce nothing.
            continue;
        }
        const auto u = static_cast<std::size_t>(unit.id);
        bool needed = unit.is_live_out;
        for (const int e : graph.succEdges()[u]) {
            const auto& edge = graph.edges()[static_cast<std::size_t>(e)];
            charge(1);
            const auto& consumer =
                graph.units()[static_cast<std::size_t>(edge.to)];
            if (consumer.kind == UnitKind::kMemory &&
                loop.op(consumer.ops[0]).opcode == Opcode::kStore) {
                continue;  // Written into the output FIFO.
            }
            const bool bypassed =
                edge.distance == 0 &&
                schedule.time[static_cast<std::size_t>(edge.to)] ==
                    schedule.time[u] + unit.latency;
            if (!bypassed) {
                needed = true;
                break;
            }
        }
        if (!needed)
            continue;
        if (unit.fu == FuClass::kFp)
            result.reg_of_unit[u] = next_fp++;
        else
            result.reg_of_unit[u] = next_int++;
    }

    result.int_regs_used = next_int;
    result.fp_regs_used = next_fp;
    if (next_int > config.num_int_registers) {
        result.fail_reason = "needs " + std::to_string(next_int) +
                             " integer registers, LA has " +
                             std::to_string(config.num_int_registers);
        return result;
    }
    if (next_fp > config.num_fp_registers) {
        result.fail_reason = "needs " + std::to_string(next_fp) +
                             " fp registers, LA has " +
                             std::to_string(config.num_fp_registers);
        return result;
    }
    result.ok = true;
    return result;
}

}  // namespace veal
