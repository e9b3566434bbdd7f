#include "veal/sim/batch.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "veal/support/assert.h"
#include "veal/support/logging.h"

namespace veal {

namespace {

/** Dense-window headroom around the initial memory image of an array.
    Accesses beyond the pad stay correct through the overflow map; the
    pad only buys dense handling for near-miss strides, so it stays
    small enough that zero-filling and scanning the window is cheap. */
constexpr std::int64_t kWindowPad = 64;

/** Largest dense window one array may claim; sparser images fall back
    to the overflow map entirely. */
constexpr std::int64_t kMaxWindowCells = std::int64_t{1} << 20;

/** Smallest power of two >= @p n, for mask-indexed rings.  A ring
    sized up to a power of two holds the same values at the same
    logical slots (slot i lives at i & (pow2 - 1), still unique for any
    window of `n` consecutive iterations), so widening is invisible to
    the modeled results while turning the per-access modulo into an
    AND. */
int
ringPow2(int n)
{
    int pow2 = 1;
    while (pow2 < n)
        pow2 <<= 1;
    return pow2;
}

/** Identical to the frozen model's per-op latency choice. */
int
cpuOpLatency(const Operation& op, const CpuConfig& config)
{
    if (op.opcode == Opcode::kLoad)
        return config.load_latency;
    if (op.opcode == Opcode::kCall)
        return 20;
    return config.latencies.latency(op.opcode);
}

}  // namespace

FlatMemoryImage
flattenMemoryImage(const MemoryImage& memory)
{
    FlatMemoryImage flat;
    for (const auto& [name, cells] : memory) {
        FlatMemoryImage::Array array;
        array.name = &name;
        array.cells_begin = flat.cells.size();
        flat.cells.insert(flat.cells.end(), cells.begin(), cells.end());
        array.cells_end = flat.cells.size();
        flat.arrays.push_back(array);
    }
    return flat;
}

bool
interpretable(const Loop& loop)
{
    if (loop.verify().has_value())
        return false;
    for (const auto& op : loop.operations()) {
        if (op.opcode == Opcode::kCall)
            return false;
    }
    return true;
}

// ---------------------------------------------------------------------------
// CPU timing

std::vector<CpuLoopTiming>
BatchSimulator::simulateCpuBatch(const CpuConfig& config,
                                 const std::vector<CpuSimRequest>& lanes,
                                 std::vector<CpuProfile>* profiles)
{
    cpu_lanes_.clear();
    cpu_ops_.clear();
    cpu_inputs_.clear();
    cpu_finish_.clear();
    cpu_iteration_end_.clear();
    cpu_window_total_.clear();

    // --- Compile: one SoA op table + finish ring per lane.
    for (const auto& request : lanes) {
        const Loop& loop = *request.loop;
        VEAL_ASSERT(request.iterations >= 1,
                    "loop must run at least one iteration");
        CpuLane lane;
        lane.iterations = request.iterations;
        lane.n = loop.size();
        // A profiled lane steps the full window, so its profile prices
        // every trip count; its timing still reads its own window.
        lane.sim_iters = profiles != nullptr
                             ? kCpuSimIterations
                             : static_cast<int>(std::min<std::int64_t>(
                                   request.iterations, kCpuSimIterations));

        int max_distance = 1;
        for (const auto& op : loop.operations()) {
            for (const auto& operand : op.inputs)
                max_distance = std::max(max_distance, operand.distance);
        }
        for (const auto& edge : loop.memoryEdges())
            max_distance = std::max(max_distance, edge.distance);
        lane.window = ringPow2(max_distance + 1);
        lane.finish_base = cpu_finish_.size();
        cpu_finish_.resize(lane.finish_base +
                               static_cast<std::size_t>(lane.window) *
                                   static_cast<std::size_t>(lane.n),
                           0);
        lane.iter_end_base = cpu_iteration_end_.size();
        cpu_iteration_end_.resize(
            lane.iter_end_base + static_cast<std::size_t>(lane.sim_iters),
            0);
        cpu_window_total_.resize(cpu_iteration_end_.size(), 0);

        lane.ops_begin = static_cast<std::uint32_t>(cpu_ops_.size());
        for (const auto& op : loop.operations()) {
            if (op.isValueSource())
                continue;
            CpuOp compiled;
            compiled.row_base = op.id * lane.window;
            compiled.latency = cpuOpLatency(op, config);
            compiled.is_branch = op.opcode == Opcode::kBranch;
            compiled.input_begin =
                static_cast<std::uint32_t>(cpu_inputs_.size());
            for (const auto& input : op.inputs) {
                if (!loop.op(input.producer).isValueSource())
                    cpu_inputs_.emplace_back(
                        input.producer * lane.window, input.distance);
            }
            compiled.input_end =
                static_cast<std::uint32_t>(cpu_inputs_.size());
            cpu_ops_.push_back(compiled);
        }
        lane.ops_end = static_cast<std::uint32_t>(cpu_ops_.size());
        cpu_lanes_.push_back(lane);
    }

    // --- Step: run every lane's simulated window back-to-back.  Lanes
    // are independent, so ordering is a scheduling choice; finishing
    // one lane before the next keeps its finish ring and op table
    // cache-resident, and the numbers are exactly what the
    // one-lane-at-a-time model computes.
    for (auto& lane : cpu_lanes_) {
        const int ring_mask = lane.window - 1;
        std::int64_t* finish = cpu_finish_.data() + lane.finish_base;
        for (int iter = 0; iter < lane.sim_iters; ++iter) {
            const auto ring = static_cast<std::size_t>(iter & ring_mask);
            for (std::uint32_t o = lane.ops_begin; o < lane.ops_end;
                 ++o) {
                const CpuOp& op = cpu_ops_[o];
                std::int64_t ready = lane.issue_cycle;
                for (std::uint32_t i = op.input_begin; i < op.input_end;
                     ++i) {
                    const auto& [row_base, distance] = cpu_inputs_[i];
                    const int source_iter = iter - distance;
                    if (source_iter < 0)
                        continue;
                    ready = std::max(
                        ready,
                        finish[static_cast<std::size_t>(row_base) +
                               static_cast<std::size_t>(source_iter &
                                                        ring_mask)]);
                }

                if (ready > lane.issue_cycle) {
                    lane.issue_cycle = ready;
                    lane.issued_this_cycle = 0;
                }
                if (lane.issued_this_cycle >= config.issue_width) {
                    ++lane.issue_cycle;
                    lane.issued_this_cycle = 0;
                }
                ++lane.issued_this_cycle;

                const std::int64_t done = lane.issue_cycle + op.latency;
                finish[static_cast<std::size_t>(op.row_base) + ring] =
                    done;
                if (op.is_branch) {
                    lane.issue_cycle += 1 + config.branch_penalty;
                    lane.issued_this_cycle = 0;
                }
                lane.end_of_iteration =
                    std::max(lane.end_of_iteration, done);
            }
            const std::size_t row =
                lane.iter_end_base + static_cast<std::size_t>(iter);
            cpu_iteration_end_[row] = lane.issue_cycle;
            cpu_window_total_[row] = lane.end_of_iteration;
        }
    }

    // --- Finalize: steady-state rate and extrapolation at the lane's
    // own first min(N, kCpuSimIterations) iterations, identical per lane
    // whatever was stepped past them; the profile is the full window.
    std::vector<CpuLoopTiming> timings;
    timings.reserve(lanes.size());
    if (profiles != nullptr) {
        profiles->clear();
        profiles->reserve(lanes.size());
    }
    const auto tail_at = [](const std::int64_t* iteration_end, int last) {
        return iteration_end[last] - iteration_end[last - kCpuMeasureWindow];
    };
    for (const auto& lane : cpu_lanes_) {
        const std::int64_t* iteration_end =
            cpu_iteration_end_.data() + lane.iter_end_base;
        const std::int64_t* window_total =
            cpu_window_total_.data() + lane.iter_end_base;
        const int own = static_cast<int>(
            std::min<std::int64_t>(lane.iterations, kCpuSimIterations));
        const int last = own - 1;
        CpuLoopTiming timing;
        std::int64_t tail = 0;
        if (own >= kCpuMeasureWindow * 2) {
            tail = tail_at(iteration_end, last);
            timing.cycles_per_iteration =
                static_cast<double>(tail) / kCpuMeasureWindow;
        } else {
            timing.cycles_per_iteration =
                static_cast<double>(iteration_end[last]) / own;
        }
        timing.total_cycles = extrapolateCpuCycles(
            std::max<std::int64_t>(window_total[last], 1), tail,
            lane.iterations);
        timings.push_back(timing);
        if (profiles != nullptr) {
            profiles->emplace_back(
                window_total, tail_at(iteration_end, kCpuSimIterations - 1));
        }
    }
    return timings;
}

// ---------------------------------------------------------------------------
// Functional interpretation

const std::vector<OpId>&
BatchSimulator::topoOrder(const Loop& loop)
{
    // Kahn's algorithm over the distance-0 edges, always popping the
    // smallest ready id -- the exact order Loop::topologicalOrder()
    // produces, rebuilt out of reusable arenas (CSR successor lists
    // instead of one heap vector per op).
    const int n = loop.size();
    const auto un = static_cast<std::size_t>(n);
    topo_in_degree_.assign(un, 0);
    topo_succ_offset_.assign(un + 1, 0);

    for (const auto& op : loop.operations()) {
        for (const auto& input : op.inputs) {
            if (input.distance == 0)
                ++topo_succ_offset_[
                    static_cast<std::size_t>(input.producer) + 1];
        }
    }
    for (const auto& edge : loop.memoryEdges()) {
        if (edge.distance == 0)
            ++topo_succ_offset_[static_cast<std::size_t>(edge.from) + 1];
    }
    for (std::size_t i = 1; i <= un; ++i)
        topo_succ_offset_[i] += topo_succ_offset_[i - 1];

    topo_succ_.resize(topo_succ_offset_[un]);
    // Second pass fills each op's slice front to back; the offset table
    // is restored by the shift below.
    for (const auto& op : loop.operations()) {
        for (const auto& input : op.inputs) {
            if (input.distance == 0) {
                topo_succ_[topo_succ_offset_[static_cast<std::size_t>(
                    input.producer)]++] = op.id;
                ++topo_in_degree_[static_cast<std::size_t>(op.id)];
            }
        }
    }
    for (const auto& edge : loop.memoryEdges()) {
        if (edge.distance == 0) {
            topo_succ_[topo_succ_offset_[static_cast<std::size_t>(
                edge.from)]++] = edge.to;
            ++topo_in_degree_[static_cast<std::size_t>(edge.to)];
        }
    }
    for (std::size_t i = un; i > 0; --i)
        topo_succ_offset_[i] = topo_succ_offset_[i - 1];
    topo_succ_offset_[0] = 0;

    // Min-heap of ready ids: pop order == "smallest ready id first".
    topo_ready_.clear();
    for (OpId id = 0; id < n; ++id) {
        if (topo_in_degree_[static_cast<std::size_t>(id)] == 0)
            topo_ready_.push_back(id);
    }
    std::make_heap(topo_ready_.begin(), topo_ready_.end(),
                   std::greater<>());

    topo_order_.clear();
    while (!topo_ready_.empty()) {
        std::pop_heap(topo_ready_.begin(), topo_ready_.end(),
                      std::greater<>());
        const OpId id = topo_ready_.back();
        topo_ready_.pop_back();
        topo_order_.push_back(id);
        for (auto s = topo_succ_offset_[static_cast<std::size_t>(id)];
             s < topo_succ_offset_[static_cast<std::size_t>(id) + 1];
             ++s) {
            const OpId succ = topo_succ_[s];
            if (--topo_in_degree_[static_cast<std::size_t>(succ)] == 0) {
                topo_ready_.push_back(succ);
                std::push_heap(topo_ready_.begin(), topo_ready_.end(),
                               std::greater<>());
            }
        }
    }
    VEAL_ASSERT(static_cast<int>(topo_order_.size()) == n,
                "distance-0 cycle in loop ", loop.name());
    return topo_order_;
}

void
BatchSimulator::runExecLanes(const std::vector<InterpretRequest>& lanes)
{
    exec_lanes_.clear();
    exec_instrs_.clear();
    exec_operands_.clear();
    exec_regions_.clear();
    exec_live_outs_.clear();
    exec_overflow_.clear();
    // Ring and window arenas are grow-only (see batch.h): track how
    // much of the retained storage this call uses instead of clearing.
    std::size_t ring_used = 0;
    std::size_t mem_used = 0;

    // --- Compile every lane into the SoA arenas.
    for (const auto& request : lanes) {
        const Loop& loop = *request.loop;
        const ExecutionInput& input = *request.input;

        ExecLane lane;
        lane.iterations = input.iterations;

        int max_distance = 0;
        for (const auto& op : loop.operations()) {
            for (const auto& operand : op.inputs)
                max_distance = std::max(max_distance, operand.distance);
        }
        for (const auto& edge : loop.memoryEdges())
            max_distance = std::max(max_distance, edge.distance);
        lane.ring_depth = ringPow2(max_distance + 1);
        lane.ring_base = ring_used;
        ring_used += static_cast<std::size_t>(loop.size()) *
                     static_cast<std::size_t>(lane.ring_depth);
        if (exec_ring_.size() < ring_used)
            exec_ring_.resize(ring_used);

        // Memory regions: one per array in the initial image (they all
        // appear in the result whether or not the loop touches them),
        // plus one per op-only symbol.  Carving the window for the run
        // [lo, hi] of initial addresses is shared; only the cell walk
        // differs between the flat and the sparse-map input shapes.
        lane.region_begin = static_cast<std::uint32_t>(
            exec_regions_.size());
        const auto carveWindow = [this, &mem_used](ExecRegion& region,
                                                   std::int64_t lo,
                                                   std::int64_t hi)
            -> bool {
            const std::int64_t span = hi - lo + 1 + 2 * kWindowPad;
            if (span > kMaxWindowCells)
                return false;  // Too sparse: overflow map serves it all.
            region.window_lo = lo - kWindowPad;
            region.window_size = span;
            region.values_base = mem_used;
            mem_used += static_cast<std::size_t>(span);
            if (exec_mem_values_.size() < mem_used) {
                exec_mem_values_.resize(mem_used);
                exec_mem_present_.resize(mem_used);
            }
            // Only the present bytes need a per-call reset: values are
            // read solely where present is set (or through overflow).
            std::fill_n(exec_mem_present_.begin() +
                            static_cast<std::ptrdiff_t>(
                                region.values_base),
                        static_cast<std::size_t>(span), 0);
            return true;
        };
        if (request.flat_memory) {
            for (const auto& array : request.flat_memory->arrays) {
                ExecRegion region;
                region.name = array.name;
                region.touched = true;
                region.overflow = exec_overflow_.size();
                exec_overflow_.emplace_back();
                const std::size_t count =
                    array.cells_end - array.cells_begin;
                if (count != 0) {
                    const auto* cells = request.flat_memory->cells.data() +
                                        array.cells_begin;
                    if (carveWindow(region, cells[0].first,
                                    cells[count - 1].first)) {
                        std::int64_t* values =
                            exec_mem_values_.data() + region.values_base;
                        std::uint8_t* present =
                            exec_mem_present_.data() + region.values_base;
                        const std::int64_t window_lo = region.window_lo;
                        for (std::size_t c = 0; c < count; ++c) {
                            const auto at = static_cast<std::size_t>(
                                cells[c].first - window_lo);
                            values[at] = cells[c].second;
                            present[at] = 1;
                        }
                    } else {
                        auto& overflow = exec_overflow_.back();
                        for (std::size_t c = 0; c < count; ++c)
                            overflow.emplace_hint(overflow.end(),
                                                  cells[c].first,
                                                  cells[c].second);
                    }
                }
                exec_regions_.push_back(region);
            }
        } else {
            for (const auto& [name, cells] : input.memory) {
                ExecRegion region;
                region.name = &name;
                region.touched = true;
                region.overflow = exec_overflow_.size();
                exec_overflow_.emplace_back();
                if (!cells.empty()) {
                    if (carveWindow(region, cells.begin()->first,
                                    cells.rbegin()->first)) {
                        std::int64_t* values =
                            exec_mem_values_.data() + region.values_base;
                        std::uint8_t* present =
                            exec_mem_present_.data() + region.values_base;
                        const std::int64_t window_lo = region.window_lo;
                        for (const auto& [address, value] : cells) {
                            const auto at = static_cast<std::size_t>(
                                address - window_lo);
                            values[at] = value;
                            present[at] = 1;
                        }
                    } else {
                        exec_overflow_.back() = cells;
                    }
                }
                exec_regions_.push_back(region);
            }
        }
        const auto regionFor = [&](const std::string& symbol) -> int {
            for (std::uint32_t r = lane.region_begin;
                 r < exec_regions_.size(); ++r) {
                if (*exec_regions_[r].name == symbol)
                    return static_cast<int>(r);
            }
            ExecRegion region;
            // The op's own symbol string outlives the batch (the Loop
            // does), so the region can reference it directly.  A memory
            // op's array joins the result exactly when the op executes
            // at least once.
            region.name = &symbol;
            region.touched = input.iterations >= 1;
            region.overflow = exec_overflow_.size();
            exec_overflow_.emplace_back();
            exec_regions_.push_back(region);
            return static_cast<int>(exec_regions_.size() - 1);
        };

        // Pre-resolve one operand read: const/live-in short-circuit at
        // any iteration; everything else reads the ring, falling back
        // to the initial-state value at negative iterations.
        const auto resolve = [&](const Operand& operand) {
            ExecOperand read;
            const Operation& producer = loop.op(operand.producer);
            if (producer.opcode == Opcode::kConst) {
                read.fixed = true;
                read.fixed_value = producer.immediate;
            } else if (producer.opcode == Opcode::kLiveIn) {
                read.fixed = true;
                const auto it = input.live_ins.find(operand.producer);
                read.fixed_value =
                    it != input.live_ins.end() ? it->second : 0;
            } else {
                read.row_base = operand.producer * lane.ring_depth;
                read.distance = operand.distance;
                const auto it = input.initial.find(operand.producer);
                read.initial_value =
                    it != input.initial.end() ? it->second : 0;
            }
            return read;
        };

        lane.instr_begin = static_cast<std::uint32_t>(
            exec_instrs_.size());
        for (const OpId id : topoOrder(loop)) {
            const Operation& op = loop.op(id);
            // Const/live-in values are folded into every operand that
            // reads them (and into live-outs), so their ring rows are
            // never read: compiling them away skips the dead stores the
            // scalar interpreter performs each iteration.
            if (op.isValueSource())
                continue;
            ExecInstr instr;
            instr.row_base = id * lane.ring_depth;
            instr.opcode = op.opcode;
            instr.immediate = op.immediate;
            switch (op.opcode) {
              case Opcode::kLoad:
                instr.kind = ExecInstr::kLoad;
                instr.region = regionFor(op.symbol);
                break;
              case Opcode::kStore:
                instr.kind = ExecInstr::kStore;
                instr.region = regionFor(op.symbol);
                break;
              case Opcode::kBranch:
                instr.kind = ExecInstr::kBranch;
                break;
              case Opcode::kCall:
                panic("interpretLoop: cannot execute call in ",
                      loop.name());
              default:
                instr.kind = ExecInstr::kGeneric;
                break;
            }
            instr.operand_begin =
                static_cast<std::uint32_t>(exec_operands_.size());
            if (instr.kind != ExecInstr::kBranch) {
                for (const auto& operand : op.inputs)
                    exec_operands_.push_back(resolve(operand));
            }
            instr.operand_end =
                static_cast<std::uint32_t>(exec_operands_.size());
            if (exec_scratch_.size() < op.inputs.size())
                exec_scratch_.resize(op.inputs.size());
            exec_instrs_.push_back(instr);
        }
        lane.instr_end = static_cast<std::uint32_t>(exec_instrs_.size());
        lane.region_end = static_cast<std::uint32_t>(
            exec_regions_.size());

        lane.live_out_begin = static_cast<std::uint32_t>(
            exec_live_outs_.size());
        for (const auto& op : loop.operations()) {
            if (!op.is_live_out)
                continue;
            ExecLiveOut live_out;
            live_out.op = op.id;
            live_out.read = resolve(Operand(op.id, 0));
            exec_live_outs_.push_back(live_out);
        }
        lane.live_out_end = static_cast<std::uint32_t>(
            exec_live_outs_.size());
        exec_lanes_.push_back(lane);
    }

    // One ring/operand read, shared by the step loop and the live-out
    // finalize.
    const auto readAt = [this](const ExecLane& lane,
                               const ExecOperand& read,
                               std::int64_t iteration) -> std::int64_t {
        if (read.fixed)
            return read.fixed_value;
        const std::int64_t source = iteration - read.distance;
        if (source < 0)
            return read.initial_value;
        return exec_ring_[lane.ring_base +
                          static_cast<std::size_t>(read.row_base) +
                          static_cast<std::size_t>(
                              source & (lane.ring_depth - 1))];
    };

    // --- Step: each pass advances every active lane one iteration.
    // The instr/operand/region tables are frozen now, so the inner loop
    // works through raw pointers; only the ring, windows, and overflow
    // maps mutate.
    const ExecInstr* const instrs = exec_instrs_.data();
    const ExecOperand* const operands = exec_operands_.data();
    ExecRegion* const regions = exec_regions_.data();
    std::int64_t* const mem_values = exec_mem_values_.data();
    std::uint8_t* const mem_present = exec_mem_present_.data();
    for (auto& lane : exec_lanes_) {
        // Each lane runs its whole rollout back-to-back: lanes are
        // independent, so iteration order across lanes is a scheduling
        // choice (see the header contract), and finishing one lane
        // before the next keeps its ring, window, and instr tables
        // cache-resident instead of streaming every lane's state
        // through the cache once per iteration.
        std::int64_t* const ring = exec_ring_.data() + lane.ring_base;
        const std::int64_t ring_mask = lane.ring_depth - 1;
        for (std::int64_t iteration = 0; iteration < lane.iterations;
             ++iteration) {
            const auto read = [&](const ExecOperand& rd) -> std::int64_t {
                if (rd.fixed)
                    return rd.fixed_value;
                const std::int64_t source = iteration - rd.distance;
                if (source < 0)
                    return rd.initial_value;
                return ring[static_cast<std::size_t>(rd.row_base) +
                            static_cast<std::size_t>(source & ring_mask)];
            };
            for (std::uint32_t i = lane.instr_begin; i < lane.instr_end;
                 ++i) {
                const ExecInstr& instr = instrs[i];
                std::int64_t value = 0;
                switch (instr.kind) {
                  case ExecInstr::kLoad: {
                    const std::int64_t address =
                        read(operands[instr.operand_begin]);
                    const ExecRegion& region = regions[
                        static_cast<std::size_t>(instr.region)];
                    const std::int64_t offset =
                        address - region.window_lo;
                    if (offset >= 0 && offset < region.window_size) {
                        const auto at = region.values_base +
                                        static_cast<std::size_t>(offset);
                        value = mem_present[at] ? mem_values[at] : 0;
                    } else {
                        const auto& overflow =
                            exec_overflow_[region.overflow];
                        const auto it = overflow.find(address);
                        value = it != overflow.end() ? it->second : 0;
                    }
                    break;
                  }
                  case ExecInstr::kStore: {
                    const std::int64_t address =
                        read(operands[instr.operand_begin]);
                    const std::int64_t stored =
                        read(operands[instr.operand_begin + 1]);
                    const ExecRegion& region = regions[
                        static_cast<std::size_t>(instr.region)];
                    const std::int64_t offset =
                        address - region.window_lo;
                    if (offset >= 0 && offset < region.window_size) {
                        const auto at = region.values_base +
                                        static_cast<std::size_t>(offset);
                        mem_values[at] = stored;
                        mem_present[at] = 1;
                    } else {
                        exec_overflow_[region.overflow][address] =
                            stored;
                    }
                    break;
                  }
                  case ExecInstr::kBranch:
                    break;
                  case ExecInstr::kGeneric: {
                    std::int64_t* scratch = exec_scratch_.data();
                    std::size_t count = 0;
                    for (std::uint32_t o = instr.operand_begin;
                         o < instr.operand_end; ++o) {
                        scratch[count++] = read(operands[o]);
                    }
                    value = evaluateOp(instr.opcode, scratch, count,
                                       instr.immediate);
                    break;
                  }
                }
                ring[static_cast<std::size_t>(instr.row_base) +
                     static_cast<std::size_t>(iteration & ring_mask)] =
                    value;
            }
        }
        lane.iter = lane.iterations;
    }

    // --- Finalize into the view: live-out values, and per-lane region
    // descriptors in exactly the name order the scalar interpreter's
    // result map iterates.  The images themselves stay in the window
    // and overflow arenas; consumers walk them via forEachRegionCell.
    exec_view_.lanes.clear();
    exec_view_.regions.clear();
    exec_view_.live_outs.clear();
    for (const auto& lane : exec_lanes_) {
        BatchExecView::Lane view_lane;
        view_lane.region_begin = exec_view_.regions.size();

        // Result maps are keyed by array name: emit touched regions in
        // ascending-name order (op-only symbols may sort anywhere
        // relative to the initial-image arrays).
        exec_region_order_.clear();
        for (std::uint32_t r = lane.region_begin; r < lane.region_end;
             ++r) {
            if (exec_regions_[r].touched)
                exec_region_order_.push_back(r);
        }
        std::sort(exec_region_order_.begin(), exec_region_order_.end(),
                  [this](std::uint32_t a, std::uint32_t b) {
                      return *exec_regions_[a].name <
                             *exec_regions_[b].name;
                  });

        for (const std::uint32_t r : exec_region_order_) {
            const ExecRegion& region = exec_regions_[r];
            BatchExecView::Region view_region;
            view_region.name = region.name;
            view_region.values =
                exec_mem_values_.data() + region.values_base;
            view_region.present =
                exec_mem_present_.data() + region.values_base;
            view_region.window_lo = region.window_lo;
            view_region.window_size = region.window_size;
            view_region.overflow = &exec_overflow_[region.overflow];
            exec_view_.regions.push_back(view_region);
        }
        view_lane.region_end = exec_view_.regions.size();

        view_lane.live_out_begin = exec_view_.live_outs.size();
        for (std::uint32_t lo = lane.live_out_begin;
             lo < lane.live_out_end; ++lo) {
            const ExecLiveOut& live_out = exec_live_outs_[lo];
            exec_view_.live_outs.emplace_back(
                live_out.op,
                readAt(lane, live_out.read, lane.iterations - 1));
        }
        view_lane.live_out_end = exec_view_.live_outs.size();
        exec_view_.lanes.push_back(view_lane);
    }
}

const BatchExecView&
BatchSimulator::interpretBatchFlat(
    const std::vector<InterpretRequest>& lanes)
{
    runExecLanes(lanes);
    return exec_view_;
}

std::vector<ExecutionResult>
BatchSimulator::interpretBatch(const std::vector<InterpretRequest>& lanes)
{
    runExecLanes(lanes);

    // Materialize the view as the scalar result maps.  Every walk is
    // ascending, so every insert is an end-hinted O(1) one.
    std::vector<ExecutionResult> results;
    results.reserve(lanes.size());
    for (const auto& lane : exec_view_.lanes) {
        ExecutionResult result;
        for (std::size_t r = lane.region_begin; r < lane.region_end;
             ++r) {
            const BatchExecView::Region& region = exec_view_.regions[r];
            auto& cells =
                result.memory
                    .emplace_hint(result.memory.end(), *region.name,
                                  std::map<std::int64_t, std::int64_t>())
                    ->second;
            forEachRegionCell(region,
                              [&cells](std::int64_t address,
                                       std::int64_t value) {
                                  cells.emplace_hint(cells.end(), address,
                                                     value);
                              });
        }
        for (std::size_t lo = lane.live_out_begin;
             lo < lane.live_out_end; ++lo) {
            result.live_outs.emplace_hint(
                result.live_outs.end(), exec_view_.live_outs[lo].first,
                exec_view_.live_outs[lo].second);
        }
        results.push_back(std::move(result));
    }
    return results;
}

// ---------------------------------------------------------------------------
// LA cost model

std::vector<LaInvocationCost>
BatchSimulator::acceleratorCostBatch(
    const LaConfig& config, const std::vector<LaCostRequest>& lanes)
{
    // The cost model is pure arithmetic over the compiled artifacts, so
    // batching it is a fan-out; it rides along so campaign code has one
    // entry point per simulation kernel.
    std::vector<LaInvocationCost> costs;
    costs.reserve(lanes.size());
    for (const auto& request : lanes) {
        costs.push_back(acceleratorLoopCost(
            *request.schedule, *request.graph, *request.analysis,
            *request.registers, config, request.iterations,
            request.first_invocation));
    }
    return costs;
}

std::vector<CpuLoopTiming>
simulateCpuBatch(const CpuConfig& config,
                 const std::vector<CpuSimRequest>& lanes)
{
    BatchSimulator simulator;
    return simulator.simulateCpuBatch(config, lanes);
}

std::vector<ExecutionResult>
interpretBatch(const std::vector<InterpretRequest>& lanes)
{
    BatchSimulator simulator;
    return simulator.interpretBatch(lanes);
}

}  // namespace veal
