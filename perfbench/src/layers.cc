#include "layers.h"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

const std::vector<MetricSpec>&
perLayerSpecs()
{
    static const std::vector<MetricSpec> specs = {
        {"vm.translator.ladder_us", "us"},
        {"vm.translator.translations", "count"},
        {"vm.translator.retries", "count"},
        {"vm.translator.ok_ratio", "ratio"},
        {"vm.translator.units.loop-analysis", "count"},
        {"vm.translator.units.cca-mapping", "count"},
        {"vm.translator.units.mii", "count"},
        {"vm.translator.units.priority", "count"},
        {"vm.translator.units.scheduling", "count"},
        {"vm.translator.units.register-assignment", "count"},
        {"sim.cpu_price_ns", "ns"},
        {"sim.cpu_lanes", "count"},
        {"sim.la_price_ns", "ns"},
        {"sim.la_lanes", "count"},
        {"vm.persist.summary_cost_ns", "ns"},
        {"vm.persist.open_ms", "ms"},
        {"vm.persist.load_us", "us"},
        {"vm.persist.save_us", "us"},
        {"vm.persist.hit_ratio", "ratio"},
        {"vm.persist.evictions", "count"},
        {"vm.persist.compactions", "count"},
        {"vm.persist.log_bytes", "bytes"},
        {"vm.warm_tier.entries", "count"},
        {"vm.warm_tier.publish_us", "us"},
        {"vm.code_cache.hit_ratio", "ratio"},
        {"support.metrics.add_ns", "ns"},
        {"support.metrics.counters", "count"},
        {"service.submit_us", "us"},
        {"service.drain_tick_ms", "ms"},
        {"service.cold", "count"},
        {"service.warm", "count"},
        {"service.coalesced", "count"},
        {"service.persisted", "count"},
        {"service.la_win_ratio", "ratio"},
        {"trace.make_loop_us", "us"},
        {"vm.app_run_us_p50", "us"},
        {"vm.app_run_us_p95", "us"},
        {"trace.overhead_pct", "%"},
    };
    return specs;
}

void
setMetric(std::vector<Metric>& metrics, const std::string& name,
          double value)
{
    for (Metric& metric : metrics) {
        if (metric.name == name) {
            metric.value = value;
            return;
        }
    }
    metrics.push_back(Metric{name, value, ""});
}

std::string
passNote(const std::string& metric, double per_call, const std::string& unit,
         std::size_t measured, std::int64_t program_calls)
{
    char value[64];
    std::snprintf(value, sizeof value, "%.4g", per_call);
    std::ostringstream os;
    os << metric << ": " << value << " " << unit << "/call over "
       << measured << " standalone calls; the program made "
       << program_calls;
    return os.str();
}

}  // namespace perfbench

namespace perfbench {

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
    return 0.0;
}

std::uint64_t
fnv1a(const std::string& text)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const unsigned char byte : text) {
        hash ^= byte;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::string
hex64(std::uint64_t value)
{
    char text[17];
    std::snprintf(text, sizeof text, "%016llx",
                  static_cast<unsigned long long>(value));
    return text;
}

}  // namespace perfbench
