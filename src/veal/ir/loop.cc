#include "veal/ir/loop.h"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <utility>

#include "veal/support/assert.h"

namespace veal {

const char*
toString(LoopFeature feature)
{
    switch (feature) {
      case LoopFeature::kModuloSchedulable: return "modulo-schedulable";
      case LoopFeature::kNeedsSpeculation: return "needs-speculation";
      case LoopFeature::kHasSubroutineCall: return "subroutine-call";
    }
    return "unknown";
}

Loop::Loop(std::string name) : name_(std::move(name)) {}

OpId
Loop::addOperation(Operation op)
{
    const OpId id = static_cast<OpId>(ops_.size());
    VEAL_ASSERT(op.id == kNoOp || op.id == id,
                "operation id ", op.id, " does not match slot ", id);
    op.id = id;
    ops_.push_back(std::move(op));
    return id;
}

const Operation&
Loop::op(OpId id) const
{
    VEAL_ASSERT(id >= 0 && id < size(), "bad op id ", id);
    return ops_[static_cast<std::size_t>(id)];
}

Operation&
Loop::mutableOp(OpId id)
{
    VEAL_ASSERT(id >= 0 && id < size(), "bad op id ", id);
    return ops_[static_cast<std::size_t>(id)];
}

void
Loop::addMemoryEdge(OpId from, OpId to, int distance)
{
    memory_edges_.push_back(DepEdge{from, to, distance, /*is_memory=*/true});
}

std::vector<DepEdge>
Loop::allEdges() const
{
    std::vector<DepEdge> edges;
    for (const auto& operation : ops_) {
        for (const auto& input : operation.inputs) {
            edges.push_back(DepEdge{input.producer, operation.id,
                                    input.distance, /*is_memory=*/false});
        }
    }
    edges.insert(edges.end(), memory_edges_.begin(), memory_edges_.end());
    return edges;
}

std::vector<std::vector<Operand>>
Loop::useLists() const
{
    std::vector<std::vector<Operand>> uses(ops_.size());
    for (const auto& operation : ops_) {
        for (const auto& input : operation.inputs) {
            uses[static_cast<std::size_t>(input.producer)].push_back(
                Operand{operation.id, input.distance});
        }
    }
    return uses;
}

std::vector<OpId>
Loop::topologicalOrder() const
{
    const int n = size();
    std::vector<int> in_degree(static_cast<std::size_t>(n), 0);
    std::vector<std::vector<OpId>> succs(static_cast<std::size_t>(n));
    for (const auto& edge : allEdges()) {
        if (edge.distance != 0)
            continue;
        succs[static_cast<std::size_t>(edge.from)].push_back(edge.to);
        ++in_degree[static_cast<std::size_t>(edge.to)];
    }

    std::vector<OpId> ready;
    for (OpId id = 0; id < n; ++id) {
        if (in_degree[static_cast<std::size_t>(id)] == 0)
            ready.push_back(id);
    }

    std::vector<OpId> order;
    order.reserve(static_cast<std::size_t>(n));
    // Pop the smallest ready id to keep the order deterministic.
    while (!ready.empty()) {
        const auto it = std::min_element(ready.begin(), ready.end());
        const OpId id = *it;
        ready.erase(it);
        order.push_back(id);
        for (const OpId succ : succs[static_cast<std::size_t>(id)]) {
            if (--in_degree[static_cast<std::size_t>(succ)] == 0)
                ready.push_back(succ);
        }
    }
    VEAL_ASSERT(static_cast<int>(order.size()) == n,
                "distance-0 cycle in loop ", name_,
                "; run verify() before scheduling");
    return order;
}

std::optional<std::string>
Loop::verify() const
{
    const int n = size();
    int branch_count = 0;
    for (const auto& operation : ops_) {
        for (const auto& input : operation.inputs) {
            if (input.producer < 0 || input.producer >= n) {
                return "op " + std::to_string(operation.id) +
                       " reads undefined producer " +
                       std::to_string(input.producer);
            }
            if (input.distance < 0) {
                return "op " + std::to_string(operation.id) +
                       " has negative dependence distance";
            }
            if (input.producer == operation.id && input.distance == 0) {
                return "op " + std::to_string(operation.id) +
                       " has a zero-distance self edge";
            }
        }
        if (operation.isValueSource() && !operation.inputs.empty()) {
            return "value source op " + std::to_string(operation.id) +
                   " has inputs";
        }
        if (operation.opcode == Opcode::kLoad &&
            operation.inputs.size() != 1) {
            return "load op " + std::to_string(operation.id) +
                   " must have exactly one (address) input";
        }
        if (operation.opcode == Opcode::kStore &&
            operation.inputs.size() != 2) {
            return "store op " + std::to_string(operation.id) +
                   " must have exactly (address, value) inputs";
        }
        if (operation.opcode == Opcode::kBranch)
            ++branch_count;
    }
    if (branch_count > 1)
        return "loop has " + std::to_string(branch_count) + " branches";

    for (const auto& edge : memory_edges_) {
        if (edge.from < 0 || edge.from >= n || edge.to < 0 || edge.to >= n)
            return "memory edge references undefined op";
        if (!op(edge.from).isMemory() || !op(edge.to).isMemory())
            return "memory edge endpoints must be memory operations";
        if (edge.distance < 0)
            return "memory edge has negative distance";
        if (edge.from == edge.to && edge.distance == 0)
            return "memory edge is a zero-distance self edge";
    }

    // Detect distance-0 cycles with an explicit DFS (three-colour) over
    // CSR successor lists filled in allEdges() order -- data edges by
    // consumer, then memory edges -- so the walk, and the first cycle
    // it reports, is the one a walk over allEdges() would take.
    const auto un = static_cast<std::size_t>(n);
    std::vector<std::uint32_t> first(un + 1, 0);  // Into succs, per op.
    for (const auto& operation : ops_) {
        for (const auto& input : operation.inputs) {
            if (input.distance == 0)
                ++first[static_cast<std::size_t>(input.producer) + 1];
        }
    }
    for (const auto& edge : memory_edges_) {
        if (edge.distance == 0)
            ++first[static_cast<std::size_t>(edge.from) + 1];
    }
    for (std::size_t i = 1; i <= un; ++i)
        first[i] += first[i - 1];
    // Fill each op's run front to back, then shift the advanced starts
    // back into place.
    std::vector<OpId> succs(first[un]);
    for (const auto& operation : ops_) {
        for (const auto& input : operation.inputs) {
            if (input.distance == 0)
                succs[first[static_cast<std::size_t>(input.producer)]++] =
                    operation.id;
        }
    }
    for (const auto& edge : memory_edges_) {
        if (edge.distance == 0)
            succs[first[static_cast<std::size_t>(edge.from)]++] = edge.to;
    }
    for (std::size_t i = un; i > 0; --i)
        first[i] = first[i - 1];
    first[0] = 0;

    enum Colour : std::uint8_t { kWhite, kGrey, kBlack };
    std::vector<std::uint8_t> colour(un, kWhite);
    // Iterative DFS: stack of (node, next successor into succs).  Each op
    // is pushed at most once, so the reserve holds every walk.
    std::vector<std::pair<OpId, std::uint32_t>> stack;
    stack.reserve(un);
    for (OpId root = 0; root < n; ++root) {
        if (colour[static_cast<std::size_t>(root)] != kWhite)
            continue;
        stack.emplace_back(root, first[static_cast<std::size_t>(root)]);
        colour[static_cast<std::size_t>(root)] = kGrey;
        while (!stack.empty()) {
            auto& [node, next] = stack.back();
            if (next < first[static_cast<std::size_t>(node) + 1]) {
                const OpId succ = succs[next++];
                auto& c = colour[static_cast<std::size_t>(succ)];
                if (c == kGrey) {
                    return "distance-0 dependence cycle through op " +
                           std::to_string(succ);
                }
                if (c == kWhite) {
                    c = kGrey;
                    stack.emplace_back(
                        succ, first[static_cast<std::size_t>(succ)]);
                }
            } else {
                colour[static_cast<std::size_t>(node)] = kBlack;
                stack.pop_back();
            }
        }
    }
    return std::nullopt;
}

std::string
Loop::toDot() const
{
    std::ostringstream os;
    os << "digraph \"" << name_ << "\" {\n";
    for (const auto& operation : ops_) {
        os << "  n" << operation.id << " [label=\"" << operation.id << ": "
           << toString(operation.opcode);
        if (operation.opcode == Opcode::kConst)
            os << " " << operation.immediate;
        if (!operation.symbol.empty())
            os << " [" << operation.symbol << "]";
        os << "\"];\n";
    }
    for (const auto& edge : allEdges()) {
        os << "  n" << edge.from << " -> n" << edge.to;
        if (edge.distance != 0 || edge.is_memory) {
            os << " [label=\"" << edge.distance << "\""
               << (edge.is_memory ? ", style=dashed" : "")
               << (edge.distance != 0 ? ", constraint=false" : "") << "]";
        }
        os << ";\n";
    }
    os << "}\n";
    return os.str();
}

}  // namespace veal
