#include "veal/ir/transforms.h"

#include <algorithm>
#include <set>

#include "veal/ir/loop_analysis.h"
#include "veal/ir/opcode.h"
#include "veal/ir/scc.h"
#include "veal/support/assert.h"
#include "veal/support/logging.h"

namespace veal {

OpId
appendOp(Loop& loop, Opcode opcode, std::vector<Operand> inputs,
         std::int64_t immediate)
{
    Operation op;
    op.opcode = opcode;
    op.inputs = std::move(inputs);
    op.immediate = immediate;
    return loop.addOperation(std::move(op));
}

Loop
inlineCalls(const Loop& loop, const CalleeLibrary& library)
{
    const int n = loop.size();
    Loop out(loop.name());
    out.setTripCount(loop.tripCount());

    std::vector<OpId> remap(static_cast<std::size_t>(n), kNoOp);
    std::vector<bool> is_inlined(static_cast<std::size_t>(n), false);

    // Pass 1: create slots for every op that survives, inputs left empty.
    for (const auto& op : loop.operations()) {
        if (op.opcode == Opcode::kCall && library.contains(op.symbol)) {
            is_inlined[static_cast<std::size_t>(op.id)] = true;
            continue;
        }
        Operation copy = op;
        copy.id = kNoOp;
        copy.inputs.clear();
        remap[static_cast<std::size_t>(op.id)] = out.addOperation(copy);
    }

    // Pass 2: expand inlined calls in id order so chains of calls resolve.
    for (const auto& op : loop.operations()) {
        if (!is_inlined[static_cast<std::size_t>(op.id)])
            continue;
        std::vector<Operand> args;
        args.reserve(op.inputs.size());
        for (const auto& input : op.inputs) {
            const OpId producer =
                remap[static_cast<std::size_t>(input.producer)];
            VEAL_ASSERT(producer != kNoOp,
                        "call argument depends on a later call in loop ",
                        loop.name());
            args.emplace_back(producer, input.distance);
        }
        const auto& emitter = library.at(op.symbol);
        remap[static_cast<std::size_t>(op.id)] = emitter(out, args);
    }

    // Pass 3: wire up the inputs of the surviving (non-call) ops.
    for (const auto& op : loop.operations()) {
        if (is_inlined[static_cast<std::size_t>(op.id)])
            continue;
        const OpId new_id = remap[static_cast<std::size_t>(op.id)];
        auto& new_op = out.mutableOp(new_id);
        for (const auto& input : op.inputs) {
            const OpId producer =
                remap[static_cast<std::size_t>(input.producer)];
            VEAL_ASSERT(producer != kNoOp);
            new_op.inputs.emplace_back(producer, input.distance);
        }
    }

    for (const auto& edge : loop.memoryEdges()) {
        out.addMemoryEdge(remap[static_cast<std::size_t>(edge.from)],
                          remap[static_cast<std::size_t>(edge.to)],
                          edge.distance);
    }

    // Recompute the feature class: inlining may have removed the only call.
    bool call_remains = false;
    for (const auto& op : out.operations())
        call_remains |= op.opcode == Opcode::kCall;
    if (call_remains) {
        out.setFeature(LoopFeature::kHasSubroutineCall);
    } else if (loop.feature() == LoopFeature::kHasSubroutineCall) {
        out.setFeature(LoopFeature::kModuloSchedulable);
    } else {
        out.setFeature(loop.feature());
    }

    if (auto error = out.verify())
        panic("inlineCalls produced a malformed loop: ", *error);
    return out;
}

namespace {

/**
 * State for materialising one fission partition: an output loop plus the
 * remapping/cloning machinery that resolves operands against it.
 */
class PartitionBuilder {
  public:
    PartitionBuilder(const Loop& source, const LoopAnalysis& analysis,
                     const std::vector<int>& partition_of, int index,
                     std::string name)
        : source_(source), analysis_(analysis),
          partition_of_(partition_of), index_(index), out_(std::move(name)),
          remap_(static_cast<std::size_t>(source.size()), kNoOp)
    {
        out_.setTripCount(source.tripCount());
    }

    /** True when @p id is cloned on demand instead of communicated. */
    bool
    isCloneable(OpId id) const
    {
        const Operation& op = source_.op(id);
        if (op.isValueSource())
            return true;
        const auto role = analysis_.roles[static_cast<std::size_t>(id)];
        if (role == OpRole::kControl || role == OpRole::kAddress)
            return true;
        // Loads re-materialise from their original stream in any consumer
        // partition; this reuses an existing stream instead of a comm one.
        return op.opcode == Opcode::kLoad;
    }

    /** Create empty slots for this partition's owned ops (pass 1). */
    void
    reserveOwned()
    {
        for (const auto& op : source_.operations()) {
            if (partition_of_[static_cast<std::size_t>(op.id)] != index_)
                continue;
            if (isCloneable(op.id))
                continue;  // Materialised on demand.
            Operation copy = op;
            copy.id = kNoOp;
            copy.inputs.clear();
            remap_[static_cast<std::size_t>(op.id)] =
                out_.addOperation(copy);
        }
    }

    /** Wire inputs of owned ops, inserting clones / comm loads (pass 2). */
    bool
    wireOwned()
    {
        for (const auto& op : source_.operations()) {
            const OpId new_id = remap_[static_cast<std::size_t>(op.id)];
            if (new_id == kNoOp ||
                partition_of_[static_cast<std::size_t>(op.id)] != index_) {
                continue;
            }
            for (const auto& input : op.inputs) {
                const auto resolved = resolve(input);
                if (!resolved.has_value())
                    return false;
                out_.mutableOp(new_id).inputs.push_back(*resolved);
            }
        }
        return true;
    }

    /** Append a comm store publishing @p id's value for later partitions. */
    void
    addCommStore(OpId id)
    {
        const OpId value = remap_[static_cast<std::size_t>(id)];
        VEAL_ASSERT(value != kNoOp, "comm store for unmaterialised op ", id);
        const OpId store =
            appendOp(out_, Opcode::kStore,
                     {Operand{commIv(), 0}, Operand{value, 0}}, 0);
        out_.mutableOp(store).symbol = commArray(id);
    }

    /** Clone the loop-back control into this partition. */
    bool
    cloneControl()
    {
        for (const auto& op : source_.operations()) {
            if (op.opcode != Opcode::kBranch)
                continue;
            return cloneOp(op.id) != kNoOp;
        }
        return true;  // Loop had no branch; nothing to clone.
    }

    /** Copy memory edges whose endpoints both live in this partition. */
    void
    copyMemoryEdges()
    {
        for (const auto& edge : source_.memoryEdges()) {
            const OpId from = remap_[static_cast<std::size_t>(edge.from)];
            const OpId to = remap_[static_cast<std::size_t>(edge.to)];
            if (from != kNoOp && to != kNoOp)
                out_.addMemoryEdge(from, to, edge.distance);
        }
    }

    /** Number of comm streams (loads + stores) this partition added. */
    int commStreams() const { return comm_streams_; }

    Loop take() { return std::move(out_); }

  private:
    static std::string
    commArray(OpId producer)
    {
        return "fiss_comm_v" + std::to_string(producer);
    }

    /** Lazily create the unit-stride induction used for comm indexing. */
    OpId
    commIv()
    {
        if (comm_iv_ != kNoOp)
            return comm_iv_;
        const OpId step = appendOp(out_, Opcode::kConst, {}, 1);
        Operation op;
        op.opcode = Opcode::kAdd;
        op.is_induction = true;
        comm_iv_ = out_.addOperation(std::move(op));
        out_.mutableOp(comm_iv_).inputs = {Operand{comm_iv_, 1},
                                           Operand{step, 0}};
        return comm_iv_;
    }

    /** Resolve a source operand into this partition's id space. */
    std::optional<Operand>
    resolve(const Operand& operand)
    {
        const OpId mapped =
            remap_[static_cast<std::size_t>(operand.producer)];
        if (mapped != kNoOp)
            return Operand{mapped, operand.distance};
        if (isCloneable(operand.producer)) {
            const OpId clone = cloneOp(operand.producer);
            if (clone == kNoOp)
                return std::nullopt;
            return Operand{clone, operand.distance};
        }
        const int producer_partition =
            partition_of_[static_cast<std::size_t>(operand.producer)];
        if (producer_partition >= index_) {
            // Carried value from a later partition: fission impossible.
            return std::nullopt;
        }
        return commLoad(operand.producer, operand.distance);
    }

    /** Clone a control/address/source/load op (memoised per source id). */
    OpId
    cloneOp(OpId id)
    {
        const OpId existing = remap_[static_cast<std::size_t>(id)];
        if (existing != kNoOp)
            return existing;
        const Operation& op = source_.op(id);
        VEAL_ASSERT(isCloneable(id), "cloning non-cloneable op ", id);

        Operation copy = op;
        copy.id = kNoOp;
        copy.inputs.clear();
        const OpId new_id = out_.addOperation(copy);
        remap_[static_cast<std::size_t>(id)] = new_id;
        for (const auto& input : op.inputs) {
            if (input.producer == id) {
                // Induction self edge.
                out_.mutableOp(new_id).inputs.emplace_back(new_id,
                                                           input.distance);
                continue;
            }
            const auto resolved = resolve(input);
            if (!resolved.has_value())
                return kNoOp;
            out_.mutableOp(new_id).inputs.push_back(*resolved);
        }
        return new_id;
    }

    /** Read a value produced by an earlier partition via its comm array. */
    std::optional<Operand>
    commLoad(OpId producer, int distance)
    {
        const auto key = std::make_pair(producer, distance);
        if (const auto it = comm_loads_.find(key); it != comm_loads_.end())
            return Operand{it->second, 0};
        Operand address{commIv(), 0};
        if (distance != 0) {
            const OpId delta = appendOp(out_, Opcode::kConst, {}, -distance);
            address = Operand{
                appendOp(out_, Opcode::kAdd,
                         {Operand{commIv(), 0}, Operand{delta, 0}}),
                0};
        }
        const OpId load = appendOp(out_, Opcode::kLoad, {address}, 0);
        out_.mutableOp(load).symbol = commArray(producer);
        comm_loads_[key] = load;
        ++comm_streams_;
        return Operand{load, 0};
    }

    const Loop& source_;
    const LoopAnalysis& analysis_;
    const std::vector<int>& partition_of_;
    const int index_;
    Loop out_;
    std::vector<OpId> remap_;
    std::map<std::pair<OpId, int>, OpId> comm_loads_;
    OpId comm_iv_ = kNoOp;
    int comm_streams_ = 0;
};

/** Try one fission with the given store budget; nullopt on any failure. */
std::optional<FissionResult>
tryFission(const Loop& loop, const LoopAnalysis& analysis,
           const FissionBudget& budget, int store_budget)
{
    const int max_load_streams = budget.max_load_streams;
    const int max_store_streams = budget.max_store_streams;
    const int n = loop.size();

    // Build the full dependence graph (all distances) and its SCCs.
    std::vector<std::pair<int, int>> edges;
    for (const auto& edge : loop.allEdges())
        edges.emplace_back(edge.from, edge.to);
    const auto components = stronglyConnectedComponents(n, edges);

    // Pack in a topological order of the condensation that follows
    // program order (min op id) among ready components: this keeps each
    // value chain (load -> convert -> multiply -> accumulate) contiguous,
    // so partition boundaries cut few values.
    std::vector<int> scc_of(static_cast<std::size_t>(n), -1);
    for (std::size_t c = 0; c < components.size(); ++c) {
        for (const int member : components[c])
            scc_of[static_cast<std::size_t>(member)] = static_cast<int>(c);
    }
    const int num_sccs = static_cast<int>(components.size());
    std::vector<std::set<int>> scc_succs(
        static_cast<std::size_t>(num_sccs));
    std::vector<int> scc_in_degree(static_cast<std::size_t>(num_sccs), 0);
    for (const auto& [from, to] : edges) {
        const int a = scc_of[static_cast<std::size_t>(from)];
        const int b = scc_of[static_cast<std::size_t>(to)];
        if (a != b && scc_succs[static_cast<std::size_t>(a)].insert(b)
                          .second) {
            ++scc_in_degree[static_cast<std::size_t>(b)];
        }
    }
    // Min-heap keyed by the component's smallest op id.
    auto min_id = [&](int c) {
        return components[static_cast<std::size_t>(c)].front();
    };
    std::set<std::pair<int, int>> ready;  // (min op id, scc index)
    for (int c = 0; c < num_sccs; ++c) {
        if (scc_in_degree[static_cast<std::size_t>(c)] == 0)
            ready.insert({min_id(c), c});
    }
    std::vector<std::vector<int>> sccs;
    sccs.reserve(components.size());
    while (!ready.empty()) {
        const auto [key, c] = *ready.begin();
        ready.erase(ready.begin());
        sccs.push_back(components[static_cast<std::size_t>(c)]);
        for (const int succ : scc_succs[static_cast<std::size_t>(c)]) {
            if (--scc_in_degree[static_cast<std::size_t>(succ)] == 0)
                ready.insert({min_id(succ), succ});
        }
    }
    VEAL_ASSERT(sccs.size() == components.size(),
                "condensation is not a DAG");

    auto is_owned_op = [&](OpId id) {
        const Operation& op = loop.op(id);
        if (op.isValueSource() || op.isControl())
            return false;
        const auto role = analysis.roles[static_cast<std::size_t>(id)];
        if (role == OpRole::kControl || role == OpRole::kAddress)
            return false;
        return true;  // compute, loads, stores
    };

    // Greedy packing of owned SCCs into partitions.
    std::vector<int> partition_of(static_cast<std::size_t>(n), -1);
    int current = 0;
    bool current_has_ops = false;
    std::set<std::string> cur_load_bases;
    std::set<std::string> cur_store_bases;
    std::set<OpId> cur_comm_in;
    int cur_int_ops = 0;
    int cur_fp_ops = 0;

    auto scc_op_counts = [&](const std::vector<int>& scc, int* int_ops,
                             int* fp_ops) {
        *int_ops = 0;
        *fp_ops = 0;
        for (const int id : scc) {
            if (analysis.roles[static_cast<std::size_t>(id)] !=
                OpRole::kCompute) {
                continue;
            }
            const auto& info = opcodeInfo(loop.op(id).opcode);
            *int_ops += info.is_integer ? 1 : 0;
            *fp_ops += info.is_float ? 1 : 0;
        }
    };

    auto stream_key = [&](const StreamDescriptor& s) {
        return s.base + "@" + std::to_string(s.offset) + "@" +
               std::to_string(s.stride);
    };

    auto usage_if_added = [&](const std::vector<int>& scc, auto& loads,
                              auto& stores, auto& comm_in) {
        loads = cur_load_bases;
        stores = cur_store_bases;
        comm_in = cur_comm_in;
        for (const int id : scc) {
            const Operation& op = loop.op(id);
            if (op.opcode == Opcode::kLoad) {
                loads.insert(stream_key(
                    analysis.load_streams[static_cast<std::size_t>(
                        analysis.stream_of_op[static_cast<std::size_t>(
                            id)])]));
            } else if (op.opcode == Opcode::kStore) {
                stores.insert(stream_key(
                    analysis.store_streams[static_cast<std::size_t>(
                        analysis.stream_of_op[static_cast<std::size_t>(
                            id)])]));
            }
            for (const auto& input : op.inputs) {
                const OpId p = input.producer;
                const auto role =
                    analysis.roles[static_cast<std::size_t>(p)];
                const Operation& producer = loop.op(p);
                if (producer.isValueSource() ||
                    role == OpRole::kControl || role == OpRole::kAddress) {
                    continue;  // cloned, not communicated
                }
                if (producer.opcode == Opcode::kLoad) {
                    // Re-materialised from the original stream.
                    if (partition_of[static_cast<std::size_t>(p)] != -1 &&
                        partition_of[static_cast<std::size_t>(p)] !=
                            current) {
                        loads.insert(stream_key(
                            analysis.load_streams[static_cast<std::size_t>(
                                analysis.stream_of_op
                                    [static_cast<std::size_t>(p)])]));
                    }
                    continue;
                }
                if (partition_of[static_cast<std::size_t>(p)] != -1 &&
                    partition_of[static_cast<std::size_t>(p)] != current) {
                    comm_in.insert(p);
                }
            }
        }
    };

    for (const auto& scc : sccs) {
        std::vector<int> owned;
        for (const int id : scc) {
            if (is_owned_op(id))
                owned.push_back(id);
        }
        if (owned.empty())
            continue;

        std::set<std::string> loads, stores;
        std::set<OpId> comm_in;
        usage_if_added(owned, loads, stores, comm_in);
        int scc_int = 0;
        int scc_fp = 0;
        scc_op_counts(owned, &scc_int, &scc_fp);
        bool fits =
            static_cast<int>(loads.size() + comm_in.size()) <=
                max_load_streams &&
            static_cast<int>(stores.size()) <= store_budget &&
            cur_int_ops + scc_int <= budget.max_int_ops &&
            cur_fp_ops + scc_fp <= budget.max_fp_ops;
        if (!fits && current_has_ops) {
            // Close the current partition and retry in a fresh one.
            ++current;
            cur_load_bases.clear();
            cur_store_bases.clear();
            cur_comm_in.clear();
            cur_int_ops = 0;
            cur_fp_ops = 0;
            usage_if_added(owned, loads, stores, comm_in);
            fits = static_cast<int>(loads.size() + comm_in.size()) <=
                       max_load_streams &&
                   static_cast<int>(stores.size()) <= store_budget &&
                   scc_int <= budget.max_int_ops &&
                   scc_fp <= budget.max_fp_ops;
        }
        if (!fits)
            return std::nullopt;  // A single SCC exceeds the budget.
        cur_load_bases = std::move(loads);
        cur_store_bases = std::move(stores);
        cur_comm_in = std::move(comm_in);
        cur_int_ops += scc_int;
        cur_fp_ops += scc_fp;
        current_has_ops = true;
        for (const int id : owned)
            partition_of[static_cast<std::size_t>(id)] = current;
    }

    const int num_partitions = current + 1;
    if (num_partitions < 2)
        return std::nullopt;  // Nothing was actually split.

    // Which owned compute ops are consumed by later partitions?
    std::vector<std::set<OpId>> comm_out(
        static_cast<std::size_t>(num_partitions));
    for (const auto& op : loop.operations()) {
        const int consumer_partition =
            partition_of[static_cast<std::size_t>(op.id)];
        for (const auto& input : op.inputs) {
            const OpId p = input.producer;
            const int producer_partition =
                partition_of[static_cast<std::size_t>(p)];
            if (producer_partition == -1 || producer_partition ==
                consumer_partition) {
                continue;
            }
            if (loop.op(p).opcode == Opcode::kLoad)
                continue;  // Re-materialised, not communicated.
            if (consumer_partition == -1 ||
                producer_partition > consumer_partition) {
                return std::nullopt;  // Backward cross-partition flow.
            }
            comm_out[static_cast<std::size_t>(producer_partition)]
                .insert(p);
        }
    }

    // Materialise each partition.
    FissionResult result;
    for (int p = 0; p < num_partitions; ++p) {
        PartitionBuilder builder(
            loop, analysis, partition_of, p,
            loop.name() + ".fiss" + std::to_string(p));
        builder.reserveOwned();
        if (!builder.wireOwned() || !builder.cloneControl())
            return std::nullopt;
        for (const OpId id : comm_out[static_cast<std::size_t>(p)])
            builder.addCommStore(id);
        builder.copyMemoryEdges();
        result.comm_streams += builder.commStreams() +
            static_cast<int>(comm_out[static_cast<std::size_t>(p)].size());
        Loop piece = builder.take();
        if (piece.verify().has_value())
            return std::nullopt;
        result.loops.push_back(std::move(piece));
    }

    // Final validation: every piece must fit the *real* budgets.
    for (const auto& piece : result.loops) {
        const auto piece_analysis = analyzeLoop(piece);
        int piece_int = 0;
        int piece_fp = 0;
        if (piece_analysis.ok()) {
            for (const auto& op : piece.operations()) {
                if (piece_analysis.roles[static_cast<std::size_t>(
                        op.id)] != OpRole::kCompute) {
                    continue;
                }
                const auto& info = opcodeInfo(op.opcode);
                piece_int += info.is_integer ? 1 : 0;
                piece_fp += info.is_float ? 1 : 0;
            }
        }
        if (!piece_analysis.ok() ||
            static_cast<int>(piece_analysis.load_streams.size()) >
                max_load_streams ||
            static_cast<int>(piece_analysis.store_streams.size()) >
                max_store_streams ||
            piece_int > budget.max_int_ops ||
            piece_fp > budget.max_fp_ops) {
            return std::nullopt;
        }
    }
    return result;
}

}  // namespace

std::optional<FissionResult>
fissionLoop(const Loop& loop, int max_load_streams, int max_store_streams)
{
    FissionBudget budget;
    budget.max_load_streams = max_load_streams;
    budget.max_store_streams = max_store_streams;
    return fissionLoop(loop, budget);
}

std::optional<FissionResult>
fissionLoop(const Loop& loop, const FissionBudget& budget)
{
    if (budget.max_load_streams < 1 || budget.max_store_streams < 1)
        return std::nullopt;
    const auto analysis = analyzeLoop(loop);
    if (!analysis.ok())
        return std::nullopt;
    int total_int = 0;
    int total_fp = 0;
    for (const auto& op : loop.operations()) {
        if (analysis.roles[static_cast<std::size_t>(op.id)] !=
            OpRole::kCompute) {
            continue;
        }
        const auto& info = opcodeInfo(op.opcode);
        total_int += info.is_integer ? 1 : 0;
        total_fp += info.is_float ? 1 : 0;
    }
    if (static_cast<int>(analysis.load_streams.size()) <=
            budget.max_load_streams &&
        static_cast<int>(analysis.store_streams.size()) <=
            budget.max_store_streams &&
        total_int <= budget.max_int_ops && total_fp <= budget.max_fp_ops) {
        return std::nullopt;  // Already fits; fission would only add traffic.
    }

    // Comm stores eat into the store budget only once the partition's
    // consumers are known, so retry with progressively tighter budgets.
    for (int store_budget = budget.max_store_streams; store_budget >= 1;
         --store_budget) {
        if (auto result = tryFission(loop, analysis, budget,
                                     store_budget)) {
            return result;
        }
    }
    return std::nullopt;
}

}  // namespace veal
