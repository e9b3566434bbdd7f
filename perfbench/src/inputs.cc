#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "veal/support/rng.h"

namespace perfbench {

using veal::Rng;
using veal::ServiceTrace;
using veal::TraceRequest;
using veal::TranslationMode;

const TranslationMode kModes[4] = {
    TranslationMode::kStatic,
    TranslationMode::kFullyDynamic,
    TranslationMode::kFullyDynamicHeight,
    TranslationMode::kHybridStaticCcaPriority,
};

namespace {

/** Independent streams per purpose, so sizes can change separately. */
constexpr std::uint64_t kPoolSalt = 0x706f6f6cull;
constexpr std::uint64_t kDrawSalt = 0x64726177ull;
constexpr std::uint64_t kGridSalt = 0x67726964ull;

std::vector<std::uint64_t>
loopPool(std::uint64_t seed, int size)
{
    Rng rng(seed ^ kPoolSalt);
    std::vector<std::uint64_t> pool;
    pool.reserve(static_cast<std::size_t>(size));
    for (int i = 0; i < size; ++i)
        pool.push_back(rng.next());
    return pool;
}

/** Append @p request to @p trace, opening a new tick every kTickSize. */
void
push(ServiceTrace& trace, const TraceRequest& request)
{
    if (trace.ticks.empty() ||
        static_cast<int>(trace.ticks.back().size()) == kTickSize)
        trace.ticks.emplace_back();
    trace.ticks.back().push_back(request);
}

/** One request of every (loop, mode) key, in pool order. */
ServiceTrace
everyKey(const std::vector<std::uint64_t>& pool, Rng& rng)
{
    ServiceTrace trace;
    for (const std::uint64_t loop_seed : pool) {
        for (const TranslationMode mode : kModes) {
            TraceRequest request;
            request.tenant = static_cast<int>(rng.nextBelow(kTenants));
            request.loop_seed = loop_seed;
            request.mode = mode;
            request.iterations = drawIterations(rng.next());
            push(trace, request);
        }
    }
    return trace;
}

/** @p ticks full ticks of uniform draws over @p pool x kModes. */
ServiceTrace
uniformDraws(const std::vector<std::uint64_t>& pool, int ticks, Rng& rng)
{
    ServiceTrace trace;
    for (int i = 0; i < ticks * kTickSize; ++i) {
        TraceRequest request;
        request.tenant = static_cast<int>(rng.nextBelow(kTenants));
        request.loop_seed = pool[rng.nextBelow(pool.size())];
        request.mode = kModes[rng.nextBelow(4)];
        request.iterations = drawIterations(rng.next());
        push(trace, request);
    }
    return trace;
}

}  // namespace

std::int64_t
drawIterations(std::uint64_t raw)
{
    const double u = static_cast<double>(raw >> 11) * 0x1.0p-53;
    const double lo = std::log(static_cast<double>(kMinIterations));
    const double hi = std::log(static_cast<double>(kMaxIterations));
    const auto value =
        static_cast<std::int64_t>(std::llround(std::exp(lo + u * (hi - lo))));
    return std::clamp(value, kMinIterations, kMaxIterations);
}

// warm-reuse: every key is translated in an untimed warm-up, so the
// timed replay isolates the per-request serial cost of a warm service
// (CPU and LA pricing, reduction, warm-tier serves, registry adds).
ServiceInputs
warmReuseInputs(std::uint64_t seed)
{
    const auto pool = loopPool(seed, kWarmReuseLoops);
    Rng rng(seed ^ kDrawSalt);
    ServiceInputs inputs;
    inputs.prepare = everyKey(pool, rng);
    inputs.timed = uniformDraws(pool, kWarmReuseTicks, rng);
    return inputs;
}

// cold-churn: Zipf draws over a seed pool as large as the request
// count, so most requests are first sights.  Translation dominates,
// the parallel shard phase matters, the warm tier grows, and the
// persistent store saves, evicts and compacts continuously.
ServiceInputs
coldChurnInputs(std::uint64_t seed)
{
    const int requests = kColdChurnTicks * kTickSize;
    const auto pool = loopPool(seed, requests);
    std::vector<double> cdf(pool.size());
    double total = 0.0;
    for (std::size_t rank = 0; rank < pool.size(); ++rank) {
        total += 1.0 / std::pow(static_cast<double>(rank + 1),
                                kColdChurnZipfS);
        cdf[rank] = total;
    }
    Rng rng(seed ^ kDrawSalt);
    ServiceInputs inputs;
    for (int i = 0; i < requests; ++i) {
        const double target = rng.nextDouble() * total;
        const auto rank = static_cast<std::size_t>(
            std::upper_bound(cdf.begin(), cdf.end(), target) - cdf.begin());
        TraceRequest request;
        request.tenant = static_cast<int>(rng.nextBelow(kTenants));
        request.loop_seed = pool[std::min(rank, pool.size() - 1)];
        request.mode = kModes[rng.nextBelow(4)];
        request.iterations = drawIterations(rng.next());
        push(inputs.timed, request);
    }
    return inputs;
}

// warm-restart: a separate fixture process stores every key; each
// timed epoch opens a fresh service on a copy of that store, so it
// measures store open and recovery, store loads and summary-backed
// pricing with zero translation.
ServiceInputs
warmRestartInputs(std::uint64_t seed)
{
    const auto pool = loopPool(seed, kWarmRestartLoops);
    Rng rng(seed ^ kDrawSalt);
    ServiceInputs inputs;
    inputs.prepare = everyKey(pool, rng);
    inputs.timed = uniformDraws(pool, kWarmRestartTicks, rng);
    return inputs;
}

ServiceInputs
serviceInputs(const std::string& workload, std::uint64_t seed)
{
    if (workload == "warm-reuse")
        return warmReuseInputs(seed);
    if (workload == "cold-churn")
        return coldChurnInputs(seed);
    return warmRestartInputs(seed);
}

// dse-grid: the paper's own experiment -- sampled LA design points x
// the 16-app media/FP suite, each cell a whole-application
// VirtualMachine::run.  The only workload that reaches the VM run loop,
// explore, and the hand-modelled suite kernels.
std::vector<DesignPoint>
dseGridInputs(std::uint64_t seed)
{
    // Balanced marginals: every level of every knob appears equally often
    // (within one) and the levels are paired at random, so two seeds draw
    // grids of the same composition and differ only in the pairings.
    Rng rng(seed ^ kGridSalt);
    const auto levels = [&rng](std::vector<int> options) {
        std::vector<int> column;
        for (int i = 0; i < kDsePoints; ++i)
            column.push_back(options[static_cast<std::size_t>(i) % options.size()]);
        for (std::size_t i = column.size() - 1; i > 0; --i)
            std::swap(column[i], column[rng.nextBelow(i + 1)]);
        return column;
    };
    const auto int_units = levels({1, 2, 3, 4});
    const auto fp_units = levels({1, 2, 3, 4});
    const auto cca = levels({0, 1});
    const auto registers = levels({8, 16, 32});
    const auto load_streams = levels({4, 8, 16});
    const auto store_streams = levels({2, 4, 8});
    const auto max_ii = levels({8, 16, 32});
    const auto mode = levels({0, 1, 2, 3});
    std::vector<DesignPoint> points;
    for (std::size_t i = 0; i < static_cast<std::size_t>(kDsePoints); ++i) {
        DesignPoint point;
        point.la = veal::LaConfig::proposed();
        point.la.name = "dse-" + std::to_string(i);
        point.la.num_int_units = int_units[i];
        point.la.num_fp_units = fp_units[i];
        if (cca[i] == 0)
            point.la.num_cca_units = 0;
        point.la.num_int_registers = registers[i];
        point.la.num_fp_registers = registers[i];
        point.la.num_load_streams = load_streams[i];
        point.la.num_store_streams = store_streams[i];
        point.la.max_ii = max_ii[i];
        point.mode = kModes[mode[i]];
        points.push_back(std::move(point));
    }
    return points;
}

std::string
describe(const DesignPoint& point)
{
    std::ostringstream os;
    os << "int=" << point.la.num_int_units << " fp=" << point.la.num_fp_units
       << " cca=" << (point.la.hasCca() ? "on" : "off")
       << " regs=" << point.la.num_int_registers
       << " ls=" << point.la.num_load_streams
       << " ss=" << point.la.num_store_streams
       << " maxii=" << point.la.max_ii
       << " mode=" << veal::toString(point.mode);
    return os.str();
}

std::vector<TraceRequest>
distinctKeys(const ServiceTrace& trace)
{
    std::set<std::string> seen;
    std::vector<TraceRequest> keys;
    for (const auto& tick : trace.ticks) {
        for (const auto& request : tick) {
            if (seen.insert(veal::traceRequestKey(request)).second)
                keys.push_back(request);
        }
    }
    return keys;
}

}  // namespace perfbench
