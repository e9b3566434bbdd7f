#include "veal/sim/la_executor.h"

#include <algorithm>
#include <vector>

#include "veal/support/assert.h"

namespace veal {

namespace {

/** Per-op value history across iterations. */
class ValueStore {
  public:
    explicit ValueStore(int num_ops) : values_(
        static_cast<std::size_t>(num_ops)) {}

    void
    record(OpId op, std::int64_t iteration, std::int64_t value)
    {
        auto& history = values_[static_cast<std::size_t>(op)];
        VEAL_ASSERT(static_cast<std::int64_t>(history.size()) == iteration,
                    "op ", op, " executed out of iteration order");
        history.push_back(value);
    }

    std::int64_t
    read(OpId op, std::int64_t iteration) const
    {
        const auto& history = values_[static_cast<std::size_t>(op)];
        VEAL_ASSERT(iteration >= 0 &&
                        iteration <
                            static_cast<std::int64_t>(history.size()),
                    "op ", op, " read before it executed (iteration ",
                    iteration, ")");
        return history[static_cast<std::size_t>(iteration)];
    }

    bool
    has(OpId op, std::int64_t iteration) const
    {
        return iteration >= 0 &&
               iteration < static_cast<std::int64_t>(
                               values_[static_cast<std::size_t>(op)]
                                   .size());
    }

  private:
    std::vector<std::vector<std::int64_t>> values_;
};

}  // namespace

ExecutionResult
executeOnAccelerator(const Loop& loop, const TranslationResult& translation,
                     const ExecutionInput& input)
{
    VEAL_ASSERT(translation.ok, "executing a rejected translation of ",
                loop.name());
    VEAL_ASSERT(translation.graph != nullptr);
    const SchedGraph& graph = *translation.graph;
    const Schedule& schedule = translation.schedule;
    const LoopAnalysis& analysis = translation.analysis;
    const int ii = schedule.ii;

    ExecutionResult result;
    result.memory = input.memory;
    ValueStore values(loop.size());

    auto initial_of = [&](OpId op) {
        const auto it = input.initial.find(op);
        return it != input.initial.end() ? it->second : 0;
    };
    auto live_in_of = [&](OpId op) {
        const auto it = input.live_ins.find(op);
        return it != input.live_ins.end() ? it->second : 0;
    };
    auto induction_value = [&](const Operation& op,
                               std::int64_t iteration) {
        const Operation& step_op = loop.op(op.inputs[1].producer);
        VEAL_ASSERT(step_op.opcode == Opcode::kConst);
        return initial_of(op.id) + step_op.immediate * (iteration + 1);
    };

    /** Value of a symbolic stream base term (live-in or induction start). */
    auto symbol_value = [&](OpId op) -> std::int64_t {
        const Operation& operation = loop.op(op);
        if (operation.opcode == Opcode::kLiveIn)
            return live_in_of(op);
        if (operation.is_induction) {
            // The affine form's symbol is the value at iteration 0.
            return induction_value(operation, 0);
        }
        panic("unsupported symbolic stream base in ", loop.name());
    };

    /** Element index touched by a memory op at @p iteration. */
    auto stream_address = [&](const Operation& op,
                              std::int64_t iteration) -> std::int64_t {
        const int index =
            analysis.stream_of_op[static_cast<std::size_t>(op.id)];
        VEAL_ASSERT(index >= 0, "memory op without a stream");
        const StreamDescriptor& stream =
            op.opcode == Opcode::kStore
                ? analysis.store_streams[static_cast<std::size_t>(index)]
                : analysis.load_streams[static_cast<std::size_t>(index)];
        std::int64_t address = stream.offset + stream.stride * iteration;
        for (const auto& [symbol, coeff] : stream.base_terms)
            address += coeff * symbol_value(symbol);
        return address;
    };

    /** Read the value of @p operand as seen by @p consumer_issue_cycle. */
    auto read_operand = [&](const Operand& operand, std::int64_t iteration,
                            std::int64_t consumer_issue_cycle,
                            const std::vector<OpId>* group)
        -> std::int64_t {
        const std::int64_t source_iteration =
            iteration - operand.distance;
        const Operation& producer = loop.op(operand.producer);
        if (producer.opcode == Opcode::kConst)
            return producer.immediate;
        if (producer.opcode == Opcode::kLiveIn)
            return live_in_of(producer.id);
        if (source_iteration < 0)
            return initial_of(producer.id);
        if (producer.is_induction)
            return induction_value(producer, source_iteration);

        // Internal CCA-group operand: same atomic issue, already computed.
        if (group != nullptr && operand.distance == 0 &&
            std::find(group->begin(), group->end(), operand.producer) !=
                group->end()) {
            return values.read(producer.id, source_iteration);
        }

        const int producer_unit = graph.unitOf(producer.id);
        VEAL_ASSERT(producer_unit >= 0, "compute input from op ",
                    producer.id, " (", toString(producer.opcode),
                    ") which is not scheduled");
        // Semantic schedule check: the producer's result for that
        // iteration must have completed by our issue cycle.
        const auto& unit =
            graph.units()[static_cast<std::size_t>(producer_unit)];
        const std::int64_t ready =
            schedule.time[static_cast<std::size_t>(producer_unit)] +
            source_iteration * ii + unit.latency;
        VEAL_ASSERT(ready <= consumer_issue_cycle,
                    "schedule reads op ", producer.id, " of iteration ",
                    source_iteration, " at cycle ", consumer_issue_cycle,
                    " but it completes at ", ready);
        return values.read(producer.id, source_iteration);
    };

    // Units in issue-time order within an iteration: with per-iteration
    // processing this is a valid execution order (see header).
    std::vector<int> unit_order(static_cast<std::size_t>(
        graph.numUnits()));
    for (int u = 0; u < graph.numUnits(); ++u)
        unit_order[static_cast<std::size_t>(u)] = u;
    std::sort(unit_order.begin(), unit_order.end(), [&](int a, int b) {
        if (schedule.time[static_cast<std::size_t>(a)] !=
            schedule.time[static_cast<std::size_t>(b)]) {
            return schedule.time[static_cast<std::size_t>(a)] <
                   schedule.time[static_cast<std::size_t>(b)];
        }
        // Loads before stores within a cycle: correct WAR semantics.
        const bool a_store =
            loop.op(graph.units()[static_cast<std::size_t>(a)].ops[0])
                .opcode == Opcode::kStore;
        const bool b_store =
            loop.op(graph.units()[static_cast<std::size_t>(b)].ops[0])
                .opcode == Opcode::kStore;
        if (a_store != b_store)
            return b_store;
        return a < b;
    });

    for (std::int64_t iteration = 0; iteration < input.iterations;
         ++iteration) {
        for (const int u : unit_order) {
            const auto& unit = graph.units()[static_cast<std::size_t>(u)];
            const std::int64_t issue_cycle =
                schedule.time[static_cast<std::size_t>(u)] +
                iteration * ii;
            switch (unit.kind) {
              case UnitKind::kMemory: {
                const Operation& op = loop.op(unit.ops[0]);
                const std::int64_t address =
                    stream_address(op, iteration);
                if (op.opcode == Opcode::kLoad) {
                    const auto& array = result.memory[op.symbol];
                    const auto it = array.find(address);
                    values.record(op.id, iteration,
                                  it != array.end() ? it->second : 0);
                } else {
                    result.memory[op.symbol][address] = read_operand(
                        op.inputs[1], iteration, issue_cycle, nullptr);
                    values.record(op.id, iteration, 0);
                }
                break;
              }
              case UnitKind::kOp: {
                const Operation& op = loop.op(unit.ops[0]);
                std::vector<std::int64_t> inputs;
                inputs.reserve(op.inputs.size());
                for (const auto& operand : op.inputs) {
                    inputs.push_back(read_operand(operand, iteration,
                                                  issue_cycle, nullptr));
                }
                values.record(op.id, iteration,
                              evaluateOp(op.opcode, inputs,
                                         op.immediate));
                break;
              }
              case UnitKind::kCcaGroup: {
                // Atomic subgraph: evaluate members in dependence order
                // (member ids are sorted; iterate to a fixed point over
                // the tiny set).
                std::vector<OpId> pending = unit.ops;
                while (!pending.empty()) {
                    bool progress = false;
                    for (auto it = pending.begin();
                         it != pending.end();) {
                        const Operation& op = loop.op(*it);
                        bool ready = true;
                        for (const auto& operand : op.inputs) {
                            const bool internal =
                                operand.distance == 0 &&
                                std::find(unit.ops.begin(),
                                          unit.ops.end(),
                                          operand.producer) !=
                                    unit.ops.end();
                            if (internal &&
                                !values.has(operand.producer, iteration))
                                ready = false;
                        }
                        if (!ready) {
                            ++it;
                            continue;
                        }
                        std::vector<std::int64_t> inputs;
                        for (const auto& operand : op.inputs) {
                            inputs.push_back(
                                read_operand(operand, iteration,
                                             issue_cycle, &unit.ops));
                        }
                        values.record(op.id, iteration,
                                      evaluateOp(op.opcode, inputs,
                                                 op.immediate));
                        it = pending.erase(it);
                        progress = true;
                    }
                    VEAL_ASSERT(progress,
                                "CCA group has an internal cycle in ",
                                loop.name());
                }
                break;
              }
            }
        }
    }

    for (const auto& op : loop.operations()) {
        if (!op.is_live_out)
            continue;
        if (op.is_induction) {
            result.live_outs[op.id] =
                induction_value(op, input.iterations - 1);
        } else {
            result.live_outs[op.id] =
                values.read(op.id, input.iterations - 1);
        }
    }
    return result;
}

}  // namespace veal
