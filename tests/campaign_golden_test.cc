/**
 * Golden fault and fuzz campaigns, pinned across commits.
 *
 * The campaign tests compare shapes within one build; this one pins the
 * reports themselves.  It runs runFaultCampaign() at two seeds and
 * runFuzz() plain, with a fault seed, as a service campaign with a
 * fault seed, and as a schedule-equivalence campaign.  Random loops and
 * sampled fault plans drive every translation path the suites do not:
 * the degradation ladder under faults, the no-fission retry, and the
 * hybrid translations of loops no benchmark contains.  Each campaign is
 * one line: its verdict plus FNV-1a digests of render() and of the
 * metrics snapshot.
 *
 * The lines are compared against `tests/golden/campaigns.golden`.  To
 * refresh after an intentional change:
 *
 *     VEAL_UPDATE_GOLDEN=1 ./build/tests/campaign_golden_test
 */

#include <cstdint>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "tests/testing/fnv.h"
#include "tests/testing/golden.h"
#include "veal/fault/campaign.h"
#include "veal/fuzz/driver.h"
#include "veal/support/metrics/metrics.h"

#ifndef VEAL_GOLDEN_DIR
#error "VEAL_GOLDEN_DIR must point at tests/golden"
#endif

namespace veal {
namespace {

/** FNV-1a digest of @p text, as hex. */
std::string
digest(const std::string& text)
{
    testing::Fnv fnv;
    fnv.add(text);
    return fnv.hex();
}

/** One golden line for a fault campaign. */
std::string
faultLine(std::uint64_t seed, int plans)
{
    FaultCampaignOptions options;
    options.seed = seed;
    options.plans = plans;
    metrics::Registry registry;
    const FaultCampaignSummary summary = runFaultCampaign(options, &registry);
    std::ostringstream os;
    os << "faultsim seed=" << seed << " plans=" << plans
       << " clean=" << summary.clean()
       << " render=" << digest(summary.render())
       << " metrics=" << digest(registry.toJson());
    return os.str();
}

/** One golden line for a fuzz campaign. */
std::string
fuzzLine(const std::string& label, const FuzzOptions& options)
{
    metrics::Registry registry;
    const FuzzSummary summary = runFuzz(options, &registry);
    std::ostringstream os;
    os << "fuzz " << label << " runs=" << options.runs
       << " clean=" << summary.clean()
       << " render=" << digest(summary.render())
       << " metrics=" << digest(registry.toJson());
    return os.str();
}

TEST(CampaignGolden, RunsMatchSnapshots)
{
    std::ostringstream actual;
    actual << faultLine(1, 300) << "\n";
    actual << faultLine(9, 300) << "\n";

    FuzzOptions plain;
    plain.runs = 500;
    actual << fuzzLine("plain", plain) << "\n";

    FuzzOptions faults = plain;
    faults.fault_seed = 7;
    actual << fuzzLine("fault-seed=7", faults) << "\n";

    FuzzOptions service = plain;
    service.runs = 300;
    service.service = true;
    service.fault_seed = 5;
    actual << fuzzLine("service fault-seed=5", service) << "\n";

    FuzzOptions sched_diff = plain;
    sched_diff.sched_diff = true;
    actual << fuzzLine("sched-diff", sched_diff) << "\n";

    VEAL_EXPECT_GOLDEN(actual.str(), "campaigns.golden", "a campaign");
}

}  // namespace
}  // namespace veal
