#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

/**
 * @file
 * Order statistics used by every metric the benchmark reports.
 */

#include <vector>

namespace perfbench {

/**
 * Nearest-rank percentile: the smallest sample such that at least
 * @p pct percent of @p values are <= it.  0 for an empty input.
 */
double percentile(std::vector<double> values, double pct);

/** Middle value (mean of the two middle values for even sizes). */
double median(std::vector<double> values);

/**
 * First, second and third quartile with the interpolation of Python's
 * `statistics.quantiles(values, n=4)` (method "exclusive"), so spreads
 * printed here match the ones computed over run results.
 */
struct Quartiles {
    double q1 = 0.0;
    double q2 = 0.0;
    double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> values);

/**
 * Samples that lie strictly above percentile(values, pct): how well a
 * reported tail percentile is supported by data.
 */
int samplesBeyond(const std::vector<double>& values, double pct);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
