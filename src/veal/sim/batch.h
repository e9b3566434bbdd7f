#ifndef VEAL_SIM_BATCH_H_
#define VEAL_SIM_BATCH_H_

/**
 * @file
 * Batched data-parallel simulation engine.
 *
 * Campaign drivers (fuzz, faultsim, sweeps) spend their cycles in three
 * per-invocation kernels: the in-order CPU timing model (cpu_sim), the
 * functional interpreter (interpreter), and the LA invocation cost model
 * (la_timing).  Their scalar originals (frozen in veal/sim/reference.h)
 * advance one loop invocation at a time and pay per-call allocation:
 * the interpreter in particular copies the whole sparse MemoryImage and
 * grows one history vector per operation.
 *
 * BatchSimulator restructures them for data-parallel rollouts:
 *
 *  - Structure-of-arrays state: every lane's operations, operands, value
 *    rings, and memory windows live in flat arrays shared across the
 *    batch, compiled once per call from the Loop graphs.
 *  - Arena allocation: the SoA buffers are members, so a simulator that
 *    is reused across batches (one per campaign worker) amortises its
 *    allocations to nearly zero.
 *  - Lane-sequential inner step over shared compiled state: one call
 *    rolls each lane's whole invocation back-to-back through the flat
 *    arrays, so a single worker drives 64+ independent invocations per
 *    call with every lane's working set staying cache-resident while it
 *    runs.  Lanes never interact, so the visit order is a scheduling
 *    choice with no semantic weight.
 *
 * Contract (enforced by tests/sim_batch_equivalence_test.cc and the CI
 * simulation gate): everything modeled is **bit-identical** to the
 * frozen originals in veal/sim/reference.h -- cycle counts and
 * cycles-per-iteration of every lane, architectural memory images and
 * live-outs, and per-phase LA charges -- for any batch width, any lane
 * order within a batch, and any worker count.  Lanes never share
 * mutable state, so grouping is a scheduling choice, not a semantic
 * one.
 *
 * One live implementation per kernel: simulateLoopOnCpu() and
 * interpretLoop() are one-lane calls into this engine, and the frozen
 * originals in veal/sim/reference.h are the oracles.
 *
 * Panics: interpretBatch() requires per lane that the loop verifies and
 * contains no kCall ops, and a violation aborts the whole call.
 * Callers that need per-lane isolation (the fuzz oracle, the fault
 * campaign) screen lanes with interpretable() first and route the rest
 * through interpretLoop() one at a time.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "veal/arch/cpu_config.h"
#include "veal/arch/la_config.h"
#include "veal/ir/loop.h"
#include "veal/ir/loop_analysis.h"
#include "veal/sched/register_alloc.h"
#include "veal/sched/schedule.h"
#include "veal/sim/cpu_sim.h"
#include "veal/sim/interpreter.h"
#include "veal/sim/la_timing.h"

namespace veal {

/** One CPU-timing lane: simulate @p iterations of @p loop. */
struct CpuSimRequest {
    const Loop* loop = nullptr;
    std::int64_t iterations = 1;
};

/**
 * A MemoryImage flattened to two arrays: per-array cell runs, arrays
 * ascending by name and cells ascending by address (the map iteration
 * order).  A caller that holds its inputs in this form (only
 * `veal-bench --mode simulation` does; the fuzz and fault campaigns
 * pass maps) compiles a lane over contiguous memory instead of chasing
 * thousands of map nodes per case.
 */
struct FlatMemoryImage {
    struct Array {
        const std::string* name = nullptr;  ///< Owned by the caller.
        std::size_t cells_begin = 0;        ///< Into cells.
        std::size_t cells_end = 0;
    };
    std::vector<Array> arrays;
    std::vector<std::pair<std::int64_t, std::int64_t>> cells;
};

/** Flatten @p memory (the names must outlive the flat image). */
FlatMemoryImage flattenMemoryImage(const MemoryImage& memory);

/**
 * One functional-execution lane.  @p flat_memory, when set, replaces
 * input->memory as the initial image (the other ExecutionInput fields
 * are still read from @p input); callers that already hold the image
 * flat skip the per-lane map walk entirely.
 */
struct InterpretRequest {
    const Loop* loop = nullptr;
    const ExecutionInput* input = nullptr;
    const FlatMemoryImage* flat_memory = nullptr;
};

/** One LA cost-model lane (all pointees owned by the caller). */
struct LaCostRequest {
    const Schedule* schedule = nullptr;
    const SchedGraph* graph = nullptr;
    const LoopAnalysis* analysis = nullptr;
    const RegisterAssignment* registers = nullptr;
    std::int64_t iterations = 1;
    bool first_invocation = true;
};

/**
 * True when interpretBatch() can take @p loop as a lane: it verifies
 * and has no kCall ops.  Exactly the loops interpretLoop() runs without
 * panicking.
 */
bool interpretable(const Loop& loop);

/**
 * Arena-backed results of one interpretBatchFlat() call.
 *
 * This is the batch engine's native output shape: every architectural
 * quantity of every lane, in the exact sequence the scalar
 * ExecutionResult maps would iterate it -- per lane, regions ascending
 * by array name with (address, value) cells ascending by address, then
 * live-outs ascending by op.  Live-outs are flat pairs; a region's
 * cells stay where the engine computed them (dense window + sparse
 * overflow) and are walked in ascending-address order through
 * forEachCell(), so finishing a batch never copies the images at all.
 * `veal-bench --mode simulation`, which only reads the results in
 * order to digest them, takes this view directly; interpretBatch(),
 * which the fuzz and fault campaigns call, builds ExecutionResult maps
 * from the same view.  The view aliases the simulator's arenas: it is
 * valid until the next interpretBatch/interpretBatchFlat call on the
 * same simulator.
 */
struct BatchExecView {
    /** One (lane, array) image; walk it with forEachCell(). */
    struct Region {
        const std::string* name = nullptr;
        /** Dense window: values[i] holds address window_lo + i, live
            only where present[i] != 0.  Empty when window_size == 0. */
        const std::int64_t* values = nullptr;
        const std::uint8_t* present = nullptr;
        std::int64_t window_lo = 0;
        std::int64_t window_size = 0;
        /** Cells outside the window, already address-sorted. */
        const std::map<std::int64_t, std::int64_t>* overflow = nullptr;
    };
    /** One lane's spans, index-aligned with the request vector. */
    struct Lane {
        std::size_t region_begin = 0;    ///< Into regions.
        std::size_t region_end = 0;
        std::size_t live_out_begin = 0;  ///< Into live_outs.
        std::size_t live_out_end = 0;
    };
    std::vector<Lane> lanes;
    std::vector<Region> regions;  ///< Ascending by name within a lane.
    /** (op, value), ascending by op within a lane. */
    std::vector<std::pair<OpId, std::int64_t>> live_outs;
};

/**
 * Visit every (address, value) cell of @p region in ascending address
 * order -- exactly the sequence the scalar result map would iterate.
 * Overflow addresses sit outside the window by construction, so the
 * merge is two splits around the dense run.
 */
template <typename Fn>
void
forEachRegionCell(const BatchExecView::Region& region, Fn&& fn)
{
    const auto above = region.overflow->lower_bound(region.window_lo);
    for (auto it = region.overflow->begin(); it != above; ++it)
        fn(it->first, it->second);
    for (std::int64_t i = 0; i < region.window_size; ++i) {
        if (region.present[static_cast<std::size_t>(i)])
            fn(region.window_lo + i,
               region.values[static_cast<std::size_t>(i)]);
    }
    for (auto it = above; it != region.overflow->end(); ++it)
        fn(it->first, it->second);
}

/**
 * The batch engine.  Not thread-safe: one instance per worker.  Reuse
 * an instance across batches to amortise the arena allocations.
 */
class BatchSimulator {
  public:
    BatchSimulator() = default;
    BatchSimulator(const BatchSimulator&) = delete;
    BatchSimulator& operator=(const BatchSimulator&) = delete;

    /**
     * Timing of every lane on @p config, index-aligned with @p lanes.
     * Bit-identical to reference::simulateLoopOnCpu per lane.  When
     * @p profiles is set it also receives every lane's CpuProfile,
     * index-aligned: every lane then steps the full kCpuSimIterations
     * window, whatever its trip count, so its profile prices every trip
     * count (its timing still reads only its own first
     * min(iterations, kCpuSimIterations) iterations).
     */
    std::vector<CpuLoopTiming> simulateCpuBatch(
        const CpuConfig& config, const std::vector<CpuSimRequest>& lanes,
        std::vector<CpuProfile>* profiles = nullptr);

    /**
     * Architectural results of every lane, index-aligned with @p lanes.
     * Bit-identical to reference::interpretLoop per lane.
     * @pre interpretable(*lane.loop) for every lane -- the compile step
     * panics on kCall, but other malformed-loop shapes are the caller's
     * to screen (the per-lane verify() walk is exactly the kind of
     * per-invocation overhead this engine exists to shed).
     */
    std::vector<ExecutionResult> interpretBatch(
        const std::vector<InterpretRequest>& lanes);

    /**
     * Same execution as interpretBatch(), returned as the flat
     * BatchExecView instead of per-lane ExecutionResult maps.  The view
     * aliases this simulator's arenas and is valid until the next
     * interpret call.  @pre as interpretBatch().
     */
    const BatchExecView& interpretBatchFlat(
        const std::vector<InterpretRequest>& lanes);

    /**
     * Per-phase LA charges of every lane, index-aligned with @p lanes.
     * Bit-identical to reference::acceleratorLoopCost per lane.
     */
    std::vector<LaInvocationCost> acceleratorCostBatch(
        const LaConfig& config, const std::vector<LaCostRequest>& lanes);

  private:
    // ---- CPU-timing SoA arenas.  One CpuOp per non-value-source op of
    // every lane; operand pairs in cpu_inputs_; finish rings and
    // per-iteration rows (issue cycle, running completion total) carved
    // out of flat arenas per lane.

    /** Compiled form of one non-value-source op (mirrors SimOp). */
    struct CpuOp {
        int row_base = 0;  ///< OpId * window, into the finish ring.
        int latency = 0;
        bool is_branch = false;
        std::uint32_t input_begin = 0;
        std::uint32_t input_end = 0;
    };

    /** Per-lane compiled shape + stepping state. */
    struct CpuLane {
        std::uint32_t ops_begin = 0;
        std::uint32_t ops_end = 0;
        std::size_t finish_base = 0;     ///< Into cpu_finish_.
        /** Into cpu_iteration_end_ and cpu_window_total_. */
        std::size_t iter_end_base = 0;
        int n = 0;                       ///< loop.size().
        /** Finish-ring slots per op: max carried distance + 1, rounded
            up to a power of two so accesses mask instead of dividing. */
        int window = 0;
        int sim_iters = 0;
        std::int64_t iterations = 0;
        // Stepping state.
        int issued_this_cycle = 0;
        std::int64_t issue_cycle = 0;
        std::int64_t end_of_iteration = 0;
    };

    // ---- Interpreter SoA arenas.  One ExecInstr per op in topological
    // order; operands pre-resolved (const/live-in values folded, initial
    // values looked up once); value history in a per-lane ring of depth
    // max distance + 1; memory in dense windows with map overflow.

    /** A pre-resolved operand read. */
    struct ExecOperand {
        std::int64_t fixed_value = 0;    ///< kConst/kLiveIn short-circuit.
        std::int64_t initial_value = 0;  ///< Read at negative iterations.
        int row_base = 0;                ///< producer * ring_depth.
        int distance = 0;
        bool fixed = false;
    };

    /** Compiled form of one non-value-source op in topological order.
        kConst/kLiveIn ops compile to nothing: every read of them is
        folded into the operands, so their ring rows are never read. */
    struct ExecInstr {
        enum Kind : std::uint8_t { kLoad, kStore, kBranch, kGeneric };
        Kind kind = kGeneric;
        Opcode opcode = Opcode::kConst;
        int row_base = 0;                ///< OpId * ring_depth.
        int region = 0;                  ///< Memory region (load/store).
        std::int64_t immediate = 0;
        std::uint32_t operand_begin = 0;
        std::uint32_t operand_end = 0;
    };

    /** One (lane, array symbol) memory region. */
    struct ExecRegion {
        const std::string* name = nullptr;
        std::int64_t window_lo = 0;
        std::int64_t window_size = 0;
        std::size_t values_base = 0;     ///< Into exec_mem_values_.
        std::size_t overflow = 0;        ///< Into exec_overflow_.
        bool touched = false;
    };

    /** A pre-resolved live-out read at iteration (iterations - 1). */
    struct ExecLiveOut {
        OpId op = 0;
        ExecOperand read;
    };

    /** Per-lane compiled shape + stepping state. */
    struct ExecLane {
        std::uint32_t instr_begin = 0;
        std::uint32_t instr_end = 0;
        std::uint32_t region_begin = 0;
        std::uint32_t region_end = 0;
        std::uint32_t live_out_begin = 0;
        std::uint32_t live_out_end = 0;
        std::size_t ring_base = 0;       ///< Into exec_ring_.
        /** Ring rows per op: max distance + 1, rounded up to a power of
            two so every access masks instead of dividing. */
        int ring_depth = 0;
        std::int64_t iterations = 0;
        std::int64_t iter = 0;           ///< Next iteration to run.
    };

    /** Compile @p lanes into the SoA arenas and run every iteration. */
    void runExecLanes(const std::vector<InterpretRequest>& lanes);

    /** reference-identical topological order, out of reusable arenas. */
    const std::vector<OpId>& topoOrder(const Loop& loop);

    std::vector<CpuLane> cpu_lanes_;
    std::vector<CpuOp> cpu_ops_;
    std::vector<std::pair<int, int>> cpu_inputs_;
    std::vector<std::int64_t> cpu_finish_;
    std::vector<std::int64_t> cpu_iteration_end_;
    std::vector<std::int64_t> cpu_window_total_;

    std::vector<ExecLane> exec_lanes_;
    std::vector<ExecInstr> exec_instrs_;
    std::vector<ExecOperand> exec_operands_;
    std::vector<ExecRegion> exec_regions_;
    std::vector<ExecLiveOut> exec_live_outs_;
    /** Grow-only write-before-read arenas: retained storage is reused
        across calls without clearing.  Every ring slot is written
        before it is read (topo order within an iteration, full
        iterations across distances), and window values are only read
        where the per-call present byte is set. */
    std::vector<std::int64_t> exec_ring_;
    std::vector<std::int64_t> exec_mem_values_;
    std::vector<std::uint8_t> exec_mem_present_;
    std::vector<std::map<std::int64_t, std::int64_t>> exec_overflow_;
    std::vector<std::int64_t> exec_scratch_;
    std::vector<std::uint32_t> exec_region_order_;
    BatchExecView exec_view_;

    std::vector<int> topo_in_degree_;
    std::vector<std::uint32_t> topo_succ_offset_;
    std::vector<OpId> topo_succ_;
    std::vector<OpId> topo_ready_;
    std::vector<OpId> topo_order_;
};

/** One-shot convenience: a transient BatchSimulator over @p lanes. */
std::vector<CpuLoopTiming> simulateCpuBatch(
    const CpuConfig& config, const std::vector<CpuSimRequest>& lanes);

/** One-shot convenience: a transient BatchSimulator over @p lanes. */
std::vector<ExecutionResult> interpretBatch(
    const std::vector<InterpretRequest>& lanes);

}  // namespace veal

#endif  // VEAL_SIM_BATCH_H_
