#include "veal/sim/interpreter.h"

#include <utility>
#include <vector>

#include "veal/sim/batch.h"
#include "veal/support/assert.h"

namespace veal {

std::int64_t
evaluateOp(Opcode opcode, const std::vector<std::int64_t>& in,
           std::int64_t immediate)
{
    return evaluateOp(opcode, in.data(), in.size(), immediate);
}

ExecutionResult
interpretLoop(const Loop& loop, const ExecutionInput& input)
{
    VEAL_ASSERT(!loop.verify().has_value(), "malformed loop ",
                loop.name());
    return std::move(interpretBatch({{&loop, &input}}).front());
}

}  // namespace veal
