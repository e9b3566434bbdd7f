/**
 * Figure 2: percent of baseline execution time spent in modulo-schedulable
 * loops, loops needing speculation support, loops with subroutine calls,
 * and acyclic code, for the media/FP suite (left) and the integer suite
 * (right).
 */

#include <cstdio>

#include "bench/common.h"
#include "veal/arch/cpu_config.h"
#include "veal/support/table.h"
#include "veal/vm/vm.h"
#include "veal/workloads/suite.h"

namespace veal {
namespace {

void
report(const std::vector<Benchmark>& suite, const char* group,
       metrics::Registry& registry)
{
    const CpuConfig cpu = CpuConfig::arm11();
    TextTable table({"benchmark", "modulo%", "speculation%", "subroutine%",
                     "acyclic%"});
    for (const auto& benchmark : suite) {
        const auto& app = benchmark.transformed;
        CpuBaseline priced;
        const CpuBaseline& prices = cpuBaselineOn(app, cpu, priced);
        double by_feature[3] = {0.0, 0.0, 0.0};
        for (std::size_t s = 0; s < app.sites.size(); ++s) {
            const auto& site = app.sites[s];
            by_feature[static_cast<int>(site.loop.feature())] +=
                static_cast<double>(prices.sites[s].loop) *
                static_cast<double>(site.invocations);
        }
        const double acyclic = static_cast<double>(app.acyclic_cycles);
        const double total =
            by_feature[0] + by_feature[1] + by_feature[2] + acyclic;
        registry.add("coverage.sites",
                     static_cast<std::int64_t>(app.sites.size()));
        registry.observe("coverage.modulo_percent",
                         static_cast<std::int64_t>(
                             100.0 * by_feature[0] / total));
        table.addRow(
            {benchmark.name,
             TextTable::formatDouble(100.0 * by_feature[0] / total, 1),
             TextTable::formatDouble(100.0 * by_feature[1] / total, 1),
             TextTable::formatDouble(100.0 * by_feature[2] / total, 1),
             TextTable::formatDouble(100.0 * acyclic / total, 1)});
    }
    std::printf("--- Figure 2 (%s) ---\n%s\n", group,
                table.render().c_str());
}

}  // namespace
}  // namespace veal

int
main(int argc, char** argv)
{
    const auto options = veal::bench::BenchOptions::parse(argc, argv);
    veal::metrics::Registry registry;
    std::printf("VEAL reproduction: Figure 2 -- execution time by code "
                "category (measured on the 1-issue baseline)\n\n");
    veal::report(veal::mediaFpSuite(), "media / floating point",
                 registry);
    veal::report(veal::integerSuite(), "integer / control-heavy",
                 registry);
    std::printf("Paper shape: the left group is dominated by "
                "modulo-schedulable loops; the right group is not.\n");
    veal::bench::finishBenchMetrics(options, registry);
    return 0;
}
