#include "veal/service/trace.h"

#include <algorithm>
#include <optional>
#include <sstream>

#include "veal/ir/random_loop.h"
#include "veal/support/parse.h"
#include "veal/support/rng.h"

namespace veal {

namespace {

constexpr const char* kTraceHeader = "veal-trace-v1";

std::string
lineError(int line_number, const std::string& message)
{
    return "line " + std::to_string(line_number) + ": " + message;
}

}  // namespace

std::int64_t
ServiceTrace::totalRequests() const
{
    std::int64_t total = 0;
    for (const auto& tick : ticks)
        total += static_cast<std::int64_t>(tick.size());
    return total;
}

int
ServiceTrace::tenantCount() const
{
    int highest = -1;
    for (const auto& tick : ticks) {
        for (const auto& request : tick)
            highest = std::max(highest, request.tenant);
    }
    return highest + 1;
}

std::string
formatTrace(const ServiceTrace& trace)
{
    std::ostringstream os;
    os << kTraceHeader << "\n";
    for (std::size_t t = 0; t < trace.ticks.size(); ++t) {
        os << "tick\n";
        for (const auto& request : trace.ticks[t]) {
            os << "submit tenant=" << request.tenant
               << " seed=" << request.loop_seed
               << " mode=" << toString(request.mode)
               << " iterations=" << request.iterations << "\n";
        }
    }
    return os.str();
}

std::variant<ServiceTrace, std::string>
parseTrace(const std::string& text)
{
    ServiceTrace trace;
    std::istringstream in(text);
    std::string line;
    int line_number = 0;
    bool saw_header = false;
    bool saw_tick = false;

    while (std::getline(in, line)) {
        ++line_number;
        // Trim trailing carriage return (tolerate CRLF traces).
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty() || line[0] == '#')
            continue;
        if (!saw_header) {
            if (line != kTraceHeader) {
                return lineError(line_number,
                                 "expected header '" +
                                     std::string(kTraceHeader) +
                                     "', got '" + line + "'");
            }
            saw_header = true;
            continue;
        }
        std::istringstream tokens(line);
        std::string word;
        tokens >> word;
        if (word == "tick") {
            std::string extra;
            if (tokens >> extra)
                return lineError(line_number,
                                 "'tick' takes no arguments");
            trace.ticks.emplace_back();
            saw_tick = true;
            continue;
        }
        if (word != "submit") {
            return lineError(line_number,
                             "unknown directive '" + word + "'");
        }
        if (!saw_tick) {
            // Submissions before the first `tick` belong to tick 0.
            trace.ticks.emplace_back();
            saw_tick = true;
        }
        TraceRequest request;
        bool saw_tenant = false;
        bool saw_seed = false;
        std::string pair;
        while (tokens >> pair) {
            const auto eq = pair.find('=');
            if (eq == std::string::npos) {
                return lineError(line_number, "expected key=value, got '" +
                                                  pair + "'");
            }
            const std::string key = pair.substr(0, eq);
            const std::string value = pair.substr(eq + 1);
            if (key == "tenant") {
                const auto parsed = parseU64Strict(value);
                if (!parsed.has_value() || *parsed > 1000000ull) {
                    return lineError(line_number,
                                     "bad tenant '" + value + "'");
                }
                request.tenant = static_cast<int>(*parsed);
                saw_tenant = true;
            } else if (key == "seed") {
                const auto parsed = parseU64Strict(value);
                if (!parsed.has_value())
                    return lineError(line_number,
                                     "bad seed '" + value + "'");
                request.loop_seed = *parsed;
                saw_seed = true;
            } else if (key == "mode") {
                const auto mode = translationModeByName(value);
                if (!mode.has_value())
                    return lineError(line_number,
                                     "unknown mode '" + value + "'");
                request.mode = *mode;
            } else if (key == "iterations") {
                const auto parsed = parseU64Strict(value);
                if (!parsed.has_value() || *parsed < 1 ||
                    *parsed > 1000000ull) {
                    return lineError(line_number,
                                     "bad iterations '" + value + "'");
                }
                request.iterations = static_cast<std::int64_t>(*parsed);
            } else {
                return lineError(line_number,
                                 "unknown key '" + key + "'");
            }
        }
        if (!saw_tenant || !saw_seed) {
            return lineError(line_number,
                             "submit needs tenant= and seed=");
        }
        trace.ticks.back().push_back(request);
    }
    if (!saw_header)
        return std::string("empty input (missing ") + kTraceHeader +
               " header)";
    return trace;
}

Loop
makeTraceLoop(std::uint64_t loop_seed)
{
    // Two independent streams off one published seed: the same split
    // shape as the fuzzer's (params, loop) derivation, with trace-local
    // salts so a trace seed never aliases a fuzz case.
    Rng params(loop_seed ^ 0x7e5ca11ab1e0ull);
    Rng body(loop_seed ^ 0x5eb0d15eedull);
    return makeStressLoop(params.next(), body.next(), "trace");
}

std::string
traceRequestKey(const TraceRequest& request)
{
    return "seed-" + std::to_string(request.loop_seed) + "/" +
           toString(request.mode);
}

ServiceTrace
generateTrace(const TraceGenOptions& options)
{
    ServiceTrace trace;
    if (options.requests <= 0 || options.tenants <= 0 ||
        options.loop_pool <= 0 || options.tick_size <= 0)
        return trace;

    // The pool's loop seeds are themselves drawn from the generator
    // seed, so two generator seeds disagree on loop *identities*, not
    // just on the request order.  Full 64-bit draws round-trip the
    // formatter/parser since the parser checks overflow instead of
    // capping tokens at 19 digits.
    Rng pool_rng(options.seed ^ 0x9001ull);
    std::vector<std::uint64_t> pool;
    pool.reserve(static_cast<std::size_t>(options.loop_pool));
    for (int i = 0; i < options.loop_pool; ++i)
        pool.push_back(pool_rng.next());

    constexpr TranslationMode kModes[] = {
        TranslationMode::kFullyDynamic,
        TranslationMode::kFullyDynamicHeight,
        TranslationMode::kHybridStaticCcaPriority,
        TranslationMode::kStatic,
    };

    Rng rng(options.seed);
    for (int i = 0; i < options.requests; ++i) {
        if (i % options.tick_size == 0)
            trace.ticks.emplace_back();
        TraceRequest request;
        request.tenant = static_cast<int>(
            rng.nextBelow(static_cast<std::uint64_t>(options.tenants)));
        request.loop_seed = pool[static_cast<std::size_t>(
            rng.nextBelow(static_cast<std::uint64_t>(options.loop_pool)))];
        request.mode = kModes[rng.nextBelow(4)];
        request.iterations = options.iterations;
        trace.ticks.back().push_back(request);
    }
    return trace;
}

}  // namespace veal
