#include "veal/vm/vm.h"

#include <vector>

#include "veal/sim/batch.h"
#include "veal/support/assert.h"

namespace veal {

CpuBaseline
priceCpuBaseline(const Application& app, const CpuConfig& cpu)
{
    std::vector<CpuSimRequest> lanes;
    for (const auto& site : app.sites) {
        lanes.push_back({&site.loop, site.iterations});
        for (const auto& piece : site.fissioned)
            lanes.push_back({&piece, site.iterations});
    }
    const auto timings = simulateCpuBatch(cpu, lanes);
    CpuBaseline baseline;
    baseline.cpu = cpu;
    auto timing = timings.begin();
    for (const auto& site : app.sites) {
        CpuBaseline::Site& prices = baseline.sites.emplace_back();
        prices.loop = (timing++)->total_cycles;
        for (std::size_t i = 0; i < site.fissioned.size(); ++i)
            prices.pieces.push_back((timing++)->total_cycles);
    }
    return baseline;
}

const CpuBaseline&
cpuBaselineOn(const Application& app, const CpuConfig& cpu,
              CpuBaseline& storage)
{
    if (!app.cpu_baseline.has_value() || app.cpu_baseline->cpu != cpu) {
        storage = priceCpuBaseline(app, cpu);
        return storage;
    }
    const CpuBaseline& table = *app.cpu_baseline;
    VEAL_ASSERT(table.sites.size() == app.sites.size(),
                "stale CPU baseline for ", app.name, ": ",
                table.sites.size(), " sites priced, ", app.sites.size(),
                " present");
    for (std::size_t s = 0; s < app.sites.size(); ++s) {
        VEAL_ASSERT(table.sites[s].pieces.size() ==
                        app.sites[s].fissioned.size(),
                    "stale CPU baseline for ", app.name, " site ", s);
    }
    return table;
}

}  // namespace veal
