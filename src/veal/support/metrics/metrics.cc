#include "veal/support/metrics/metrics.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "veal/support/assert.h"

namespace veal::metrics {

namespace {

/**
 * Shortest decimal form that round-trips through strtod.  Snapshots must
 * be byte-stable *and* lossless, so precision climbs until the reparse is
 * bit-identical (17 significant digits always suffice for binary64).
 */
std::string
formatReal(double value)
{
    VEAL_ASSERT(std::isfinite(value),
                "metrics snapshots only hold finite numbers");
    char buffer[64];
    for (int precision = 15; precision <= 17; ++precision) {
        std::snprintf(buffer, sizeof buffer, "%.*g", precision, value);
        if (std::strtod(buffer, nullptr) == value)
            break;
    }
    return buffer;
}

void
appendJsonString(std::string& out, const std::string& text)
{
    out += '"';
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof buffer, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buffer;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

}  // namespace

void
Histogram::observe(double value)
{
    VEAL_ASSERT(std::isfinite(value), "histograms only bin finite values");
    std::size_t bucket = upper_bounds.size();  // Overflow by default.
    for (std::size_t i = 0; i < upper_bounds.size(); ++i) {
        if (value <= upper_bounds[i]) {
            bucket = i;
            break;
        }
    }
    ++counts[bucket];
    ++total;
}

void
Histogram::merge(const Histogram& other)
{
    VEAL_ASSERT(upper_bounds == other.upper_bounds,
                "histogram merge needs identical bucket bounds");
    for (std::size_t i = 0; i < counts.size(); ++i)
        counts[i] += other.counts[i];
    total += other.total;
}

void
Registry::add(const std::string& name, std::int64_t delta)
{
    counters_[name] += delta;
}

std::int64_t
Registry::counter(const std::string& name) const
{
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

void
Registry::observe(const std::string& name, double value)
{
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        Histogram histogram;
        histogram.upper_bounds = defaultBounds();
        histogram.counts.assign(histogram.upper_bounds.size() + 1, 0);
        it = histograms_.emplace(name, std::move(histogram)).first;
    }
    it->second.observe(value);
}

const Histogram*
Registry::histogram(const std::string& name) const
{
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
}

const std::vector<double>&
Registry::defaultBounds()
{
    static const std::vector<double> bounds{1,  2,  4,   8,   16,
                                            32, 64, 128, 256, 512};
    return bounds;
}

void
Registry::trace(std::string scope, std::string event, std::string detail,
                std::int64_t value)
{
    appendTrace(TraceEvent{std::move(scope), std::move(event),
                           std::move(detail), value});
}

void
Registry::appendTrace(TraceEvent event)
{
    if (static_cast<int>(trace_.size()) >= trace_limit_) {
        ++trace_dropped_;
        return;
    }
    trace_.push_back(std::move(event));
}

void
Registry::setTraceLimit(int limit)
{
    VEAL_ASSERT(limit >= 0, "trace limit cannot be negative");
    trace_limit_ = limit;
}

void
Registry::merge(const Registry& other)
{
    for (const auto& [name, value] : other.counters_)
        counters_[name] += value;
    for (const auto& [name, histogram] : other.histograms_) {
        const auto [it, inserted] = histograms_.try_emplace(name, histogram);
        if (!inserted)
            it->second.merge(histogram);
    }
    for (const auto& event : other.trace_)
        appendTrace(event);
    trace_dropped_ += other.trace_dropped_;
}

std::string
Registry::toJson() const
{
    std::string out;
    out += "{\n";
    out += "  \"schema\": \"";
    out += kSchemaVersion;
    out += "\",\n";

    out += "  \"counters\": {";
    const char* separator = "";
    for (const auto& [name, value] : counters_) {
        out += separator;
        out += "\n    ";
        appendJsonString(out, name);
        out += ": " + std::to_string(value);
        separator = ",";
    }
    out += counters_.empty() ? "},\n" : "\n  },\n";

    // The registry holds no gauges; the veal-metrics-v1 format keeps
    // the key.
    out += "  \"gauges\": {},\n";

    out += "  \"histograms\": {";
    separator = "";
    for (const auto& [name, histogram] : histograms_) {
        out += separator;
        out += "\n    ";
        appendJsonString(out, name);
        out += ": {\"bounds\": [";
        const char* inner = "";
        for (const double bound : histogram.upper_bounds) {
            out += inner;
            out += formatReal(bound);
            inner = ", ";
        }
        out += "], \"counts\": [";
        inner = "";
        for (const std::int64_t count : histogram.counts) {
            out += inner;
            out += std::to_string(count);
            inner = ", ";
        }
        out += "], \"total\": " + std::to_string(histogram.total) + "}";
        separator = ",";
    }
    out += histograms_.empty() ? "},\n" : "\n  },\n";

    out += "  \"trace_dropped\": " + std::to_string(trace_dropped_) +
           ",\n";

    out += "  \"trace\": [";
    separator = "";
    for (const auto& event : trace_) {
        out += separator;
        out += "\n    {\"scope\": ";
        appendJsonString(out, event.scope);
        out += ", \"event\": ";
        appendJsonString(out, event.event);
        out += ", \"detail\": ";
        appendJsonString(out, event.detail);
        out += ", \"value\": " + std::to_string(event.value) + "}";
        separator = ",";
    }
    out += trace_.empty() ? "]\n" : "\n  ]\n";
    out += "}\n";
    return out;
}

bool
writeSnapshot(const Registry& registry, const std::string& path)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    out << registry.toJson();
    return static_cast<bool>(out.flush());
}

void
recordCostMeter(Registry& registry, const std::string& prefix,
                const CostMeter& meter)
{
    for (int i = 0; i < kNumTranslationPhases; ++i) {
        const auto phase = static_cast<TranslationPhase>(i);
        registry.add(prefix + ".units." + toString(phase),
                     static_cast<std::int64_t>(meter.units(phase)));
    }
}

std::int64_t
chargePhaseCycles(Registry& registry, const std::string& prefix,
                  const CostMeter& meter, std::int64_t multiplier)
{
    // Replays CostMeter::totalInstructions()'s left-to-right summation so
    // the cumulative truncations telescope: the per-phase integers sum to
    // static_cast<int64>(totalInstructions() * multiplier) *exactly*,
    // which is the figure the VM charges (and the telemetry test audits).
    const auto scale = static_cast<double>(multiplier);
    double cumulative = 0.0;
    std::int64_t charged_so_far = 0;
    for (int i = 0; i < kNumTranslationPhases; ++i) {
        const auto phase = static_cast<TranslationPhase>(i);
        cumulative += meter.instructions(phase);
        const auto cumulative_cycles =
            static_cast<std::int64_t>(cumulative * scale);
        registry.add(prefix + "." + toString(phase),
                     cumulative_cycles - charged_so_far);
        charged_so_far = cumulative_cycles;
    }
    return charged_so_far;
}

MeteredScope::MeteredScope(Registry& registry, std::string prefix,
                           const CostMeter& meter)
    : registry_(registry), prefix_(std::move(prefix)), meter_(meter)
{
    for (int i = 0; i < kNumTranslationPhases; ++i)
        start_units_[i] = meter_.units(static_cast<TranslationPhase>(i));
}

MeteredScope::~MeteredScope()
{
    for (int i = 0; i < kNumTranslationPhases; ++i) {
        const auto phase = static_cast<TranslationPhase>(i);
        const std::uint64_t delta = meter_.units(phase) - start_units_[i];
        if (delta != 0) {
            registry_.add(prefix_ + ".units." + toString(phase),
                          static_cast<std::int64_t>(delta));
        }
    }
}

ScopedWallTimer::ScopedWallTimer(std::string label)
    : label_(std::move(label)), start_(std::chrono::steady_clock::now())
{}

ScopedWallTimer::~ScopedWallTimer()
{
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    std::fprintf(stderr, "timing: %s %.3fs\n", label_.c_str(), seconds);
}

}  // namespace veal::metrics
