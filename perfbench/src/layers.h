#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

/**
 * @file
 * Helpers for the traced run's standalone layer passes: each pass calls
 * one layer's public functions on the exact inputs the workload fed the
 * program and reports time per call.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace perfbench {

/** Name and unit of one reported metric. */
struct MetricSpec {
    const char* name;
    const char* unit;
};

/**
 * The per-layer metrics (tracing on), in output order.  BENCHMARK.json
 * lists the same names; run.py checks that every run's output matches.
 */
const std::vector<MetricSpec>& perLayerSpecs();

/**
 * Time @p call(i) for i in [0, n), one measurement per call, inside a
 * span named @p pass.  Returns the per-call durations in ns.
 */
template <typename Call>
std::vector<double>
timeEach(SpanRecorder& spans, const char* pass, std::size_t n, Call&& call)
{
    ScopedSpan span(spans, pass, 0);
    std::vector<double> ns;
    ns.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t start = nowNs();
        call(i);
        ns.push_back(static_cast<double>(nowNs() - start));
    }
    return ns;
}

/** Set @p name in @p metrics (appending when absent). */
void setMetric(std::vector<Metric>& metrics, const std::string& name,
               double value);

/** "pass: 12.3 us/call over 4096 calls; the program made 5120". */
std::string passNote(const std::string& metric, double per_call,
                     const std::string& unit, std::size_t measured,
                     std::int64_t program_calls);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
