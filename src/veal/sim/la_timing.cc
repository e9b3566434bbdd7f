#include "veal/sim/la_timing.h"

#include "veal/support/assert.h"

namespace veal {

LaInvocationCost
laInvocationCost(const LaCostScalars& scalars, const LaConfig& config,
                 std::int64_t iterations, bool first_invocation)
{
    VEAL_ASSERT(iterations >= 1);
    LaInvocationCost cost;

    // --- Setup: bus handshake, then memory-mapped configuration writes
    // (one control word per scheduled FU unit, two per stream context).
    // Scalar live-ins/constants are written into the register file
    // before every invocation (their values may change between
    // invocations).
    cost.setup_cycles = config.bus_latency;
    if (first_invocation)
        cost.setup_cycles += scalars.fu_units + 2 * scalars.streams;
    cost.setup_cycles += 2 * scalars.live_in_regs;

    // --- Software-pipelined execution.
    cost.pipeline_cycles = (iterations - 1) * scalars.ii + scalars.length;

    // --- Drain: scalar results cross back over the bus.
    cost.drain_cycles = config.bus_latency + 2 * scalars.live_outs;
    return cost;
}

LaCostScalars
laCostScalars(const Schedule& schedule, const SchedGraph& graph,
              const LoopAnalysis& analysis,
              const RegisterAssignment& registers)
{
    LaCostScalars scalars;
    scalars.fu_units = graph.numFuUnits();
    scalars.streams = static_cast<std::int64_t>(
        analysis.load_streams.size() + analysis.store_streams.size());
    for (const int reg : registers.reg_of_source_op)
        scalars.live_in_regs += reg >= 0 ? 1 : 0;
    for (const auto& unit : graph.units())
        scalars.live_outs += unit.is_live_out ? 1 : 0;
    scalars.ii = schedule.ii;
    scalars.length = schedule.length;
    return scalars;
}

LaInvocationCost
acceleratorLoopCost(const Schedule& schedule, const SchedGraph& graph,
                    const LoopAnalysis& analysis,
                    const RegisterAssignment& registers,
                    const LaConfig& config, std::int64_t iterations,
                    bool first_invocation)
{
    return laInvocationCost(
        laCostScalars(schedule, graph, analysis, registers), config,
        iterations, first_invocation);
}

}  // namespace veal
