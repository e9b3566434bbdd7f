/**
 * Figure 10: whole-application speedup over the 1-issue baseline for
 * every static/dynamic translation split, plus the 2-issue and 4-issue
 * CPU comparison bars.
 */

#include <array>
#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "veal/arch/cpu_config.h"
#include "veal/support/table.h"

namespace {

constexpr int kColumns = 6;

}  // namespace

int
main(int argc, char** argv)
{
    using namespace veal;
    const auto options = bench::BenchOptions::parse(argc, argv);
    const auto runner = bench::makeRunner(options, mediaFpSuite());
    const auto& suite = runner.suite();
    const LaConfig la = LaConfig::proposed();

    std::printf("VEAL reproduction: Figure 10 -- static/dynamic trade-off "
                "(speedup over the 1-issue baseline)\n\n");

    // One cell per (benchmark, column): the four translation modes and
    // the two CPU comparison bars all parallelize alike.
    const int num_cells = static_cast<int>(suite.size()) * kColumns;
    const std::vector<double> cells =
        runner.evaluateCells(num_cells, [&](int i) {
            const auto& benchmark =
                suite[static_cast<std::size_t>(i / kColumns)];
            switch (i % kColumns) {
              case 0:
                return explore::cellSpeedup(benchmark, la,
                                            TranslationMode::kStatic);
              case 1:
                return explore::cellSpeedup(
                    benchmark, la, TranslationMode::kFullyDynamic);
              case 2:
                return explore::cellSpeedup(
                    benchmark, la, TranslationMode::kFullyDynamicHeight);
              case 3:
                return explore::cellSpeedup(
                    benchmark, la,
                    TranslationMode::kHybridStaticCcaPriority);
              case 4:
                return static_cast<double>(cpuOnlyCycles(
                           benchmark.transformed, CpuConfig::arm11())) /
                       static_cast<double>(cpuOnlyCycles(
                           benchmark.transformed, CpuConfig::cortexA8()));
              default:
                return static_cast<double>(cpuOnlyCycles(
                           benchmark.transformed, CpuConfig::arm11())) /
                       static_cast<double>(cpuOnlyCycles(
                           benchmark.transformed,
                           CpuConfig::quadIssue()));
            }
        });

    TextTable table({"benchmark", "no overhead", "fully dynamic",
                     "dynamic height", "static CCA/prio", "2-issue",
                     "4-issue"});
    std::array<double, kColumns> sums{};
    for (std::size_t b = 0; b < suite.size(); ++b) {
        std::vector<std::string> row{suite[b].name};
        for (int i = 0; i < kColumns; ++i) {
            const double value =
                cells[b * kColumns + static_cast<std::size_t>(i)];
            sums[static_cast<std::size_t>(i)] += value;
            row.push_back(TextTable::formatDouble(value, 2));
        }
        table.addRow(std::move(row));
    }
    std::vector<std::string> mean{"MEAN"};
    for (double sum : sums) {
        mean.push_back(TextTable::formatDouble(
            sum / static_cast<double>(suite.size()), 2));
    }
    table.addRow(std::move(mean));
    std::printf("%s\n", table.render().c_str());
    std::printf(
        "Paper means: 2.76 (no overhead), 2.27 (fully dynamic),\n"
        "2.41 (height), 2.66 (static CCA/priority); the 2-/4-issue CPUs\n"
        "trail the accelerator badly per mm^2 of die area.\n"
        "Reproduction shape: same ordering; mpeg2dec/pegwit/mgrid lose\n"
        "most of their benefit under fully dynamic translation.\n");
    bench::finishBenchMetrics(options, runner.metrics());
    bench::reportSweepStats(runner);
    return 0;
}
