#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace perfbench {

double
percentile(std::vector<double> values, double pct)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double n = static_cast<double>(values.size());
    auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    return values[rank - 1];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    if (values.size() % 2 == 1)
        return values[mid];
    return (values[mid - 1] + values[mid]) / 2.0;
}

Quartiles
quartiles(std::vector<double> values)
{
    Quartiles out;
    if (values.empty())
        return out;
    std::sort(values.begin(), values.end());
    const long size = static_cast<long>(values.size());
    if (size == 1) {
        out.q1 = out.q2 = out.q3 = values[0];
        return out;
    }
    // statistics.quantiles(..., n=4, method="exclusive"), integer-exact.
    const long m = size + 1;
    double cut[3] = {0.0, 0.0, 0.0};
    for (long i = 1; i <= 3; ++i) {
        long j = std::clamp(i * m / 4, 1L, size - 1);
        const long delta = i * m - j * 4;
        cut[i - 1] = (values[static_cast<std::size_t>(j - 1)] *
                          static_cast<double>(4 - delta) +
                      values[static_cast<std::size_t>(j)] *
                          static_cast<double>(delta)) /
                     4.0;
    }
    out.q1 = cut[0];
    out.q2 = cut[1];
    out.q3 = cut[2];
    return out;
}

int
samplesBeyond(const std::vector<double>& values, double pct)
{
    const double cut = percentile(values, pct);
    return static_cast<int>(
        std::count_if(values.begin(), values.end(),
                      [cut](double v) { return v > cut; }));
}

}  // namespace perfbench
