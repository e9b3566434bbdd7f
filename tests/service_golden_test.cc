/**
 * Golden TranslationService outputs, pinned across commits.
 *
 * The other service tests compare shapes within one build, so a change
 * that moves every shape's output the same way passes them all.  This
 * test replays the CI trace (2000 requests, 6 tenants, 12 loops, 24 per
 * tick, seed 1) under the settings the CI `veal-serve` jobs use --
 * faults, a mixed-iteration rewrite, the standard fleet, a 1-entry TLB
 * (alone and under the standard fleet), tight admission,
 * persistent-store restarts, a bounded store -- plus a long
 * quarantine-heavy trace and a one-strike quarantine policy.  Each
 * run is one line: the six cache-outcome totals plus FNV-1a digests of
 * render(), of the metrics snapshot and of the per-tenant digests.
 *
 * The lines are compared against `tests/golden/service_runs.golden`.
 * To refresh after an intentional change:
 *
 *     VEAL_UPDATE_GOLDEN=1 ./build/tests/service_golden_test
 */

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tests/testing/golden.h"
#include "veal/fleet/fleet.h"
#include "veal/service/service.h"
#include "veal/service/trace.h"
#include "veal/support/metrics/metrics.h"

#ifndef VEAL_GOLDEN_DIR
#error "VEAL_GOLDEN_DIR must point at tests/golden"
#endif

namespace veal {
namespace {

namespace fs = std::filesystem;

/** FNV-1a over a byte string, as hex. */
std::string
fnvHex(const std::string& text)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buffer;
}

/** The CI service trace (`veal-serve --requests 2000 --tenants 6
    --loops 12 --tick 24 --seed 1`). */
ServiceTrace
ciTrace()
{
    TraceGenOptions gen;
    gen.requests = 2000;
    gen.tenants = 6;
    gen.loop_pool = 12;
    gen.tick_size = 24;
    gen.seed = 1;
    return generateTrace(gen);
}

/** The CI job's awk rewrite: iterations cycle through counts on both
    sides of the CPU model's 96-iteration window. */
ServiceTrace
mixedTrace()
{
    static constexpr std::int64_t kCounts[] = {5,  200,    64, 1,  96,
                                               97, 100000, 31, 65, 95};
    ServiceTrace trace = ciTrace();
    std::size_t next = 0;
    for (auto& tick : trace.ticks) {
        for (auto& request : tick)
            request.iterations = kCounts[next++ % std::size(kCounts)];
    }
    return trace;
}

/** A long trace over few loops whose fault stream quarantines often. */
ServiceTrace
quarantineTrace()
{
    TraceGenOptions gen;
    gen.requests = 20000;
    gen.tenants = 3;
    gen.loop_pool = 8;
    gen.tick_size = 64;
    gen.seed = 4;
    return generateTrace(gen);
}

/** veal-serve's defaults (two shards). */
ServiceOptions
serveOptions()
{
    ServiceOptions options;
    options.shards = 2;
    return options;
}

fleet::FleetConfig
standardFleet(int capacity = 0)
{
    return *fleet::FleetConfig::parse("standard", capacity);
}

/** One golden line: @p trace replayed under @p options. */
std::string
runLine(const std::string& label, const ServiceTrace& trace,
        const ServiceOptions& options)
{
    metrics::Registry registry;
    TranslationService service(options, &registry);
    const ServiceReport& report = service.run(trace);
    service.flushPersistentStore();

    std::string digests;
    for (const auto& [tenant, tenant_report] : report.tenants) {
        digests += std::to_string(tenant) + ":" +
                   std::to_string(tenant_report.digest) + ";";
    }
    std::ostringstream os;
    os << label << " cold=" << report.cold << " warm=" << report.warm
       << " coalesced=" << report.coalesced
       << " invalidated=" << report.invalidated
       << " quarantined=" << report.quarantined
       << " persisted=" << report.persisted
       << " render=" << fnvHex(report.render())
       << " metrics=" << fnvHex(registry.toJson())
       << " tenants=" << fnvHex(digests);
    return os.str();
}

/** A fresh, empty store directory that is removed on scope exit. */
class TempStore {
  public:
    explicit TempStore(const std::string& name)
        : path_(fs::temp_directory_path() / ("veal-service-golden-" + name))
    {
        fs::remove_all(path_);
    }
    ~TempStore() { fs::remove_all(path_); }

    std::string path() const { return path_.string(); }

  private:
    fs::path path_;
};

TEST(ServiceGolden, RunsMatchSnapshots)
{
    const ServiceTrace trace = ciTrace();
    std::ostringstream actual;
    const auto line = [&](const std::string& label,
                          const ServiceOptions& options,
                          const ServiceTrace& replay) {
        actual << runLine(label, replay, options) << "\n";
    };

    line("default", serveOptions(), trace);

    ServiceOptions faults = serveOptions();
    faults.fault_seed = 5;
    line("fault-seed=5", faults, trace);

    ServiceOptions wide = faults;
    wide.shards = 8;
    wide.threads = 4;
    wide.batch = 3;
    line("fault-seed=5 shards=8 threads=4 batch=3", wide, trace);

    line("mixed fault-seed=5", faults, mixedTrace());

    ServiceOptions fleet = serveOptions();
    fleet.fleet = standardFleet();
    line("fleet=standard", fleet, trace);

    ServiceOptions fleet_faults = serveOptions();
    fleet_faults.fleet = standardFleet(3);
    fleet_faults.fault_seed = 7;
    line("fleet=standard capacity=3 fault-seed=7", fleet_faults, trace);

    ServiceOptions tlb = serveOptions();
    tlb.tlb.enabled = true;
    tlb.tlb.entries = 1;
    line("tlb-entries=1", tlb, trace);

    ServiceOptions fleet_tlb = tlb;
    fleet_tlb.fleet = standardFleet();
    line("fleet=standard tlb-entries=1", fleet_tlb, trace);

    ServiceOptions admission = serveOptions();
    admission.tenant_quota = 2;
    admission.queue_depth = 8;
    line("quota=2 queue-depth=8", admission, trace);

    ServiceOptions quarantine = serveOptions();
    quarantine.fault_seed = 3;
    line("quarantine-heavy fault-seed=3", quarantine, quarantineTrace());

    {
        const TempStore store("restarts");
        ServiceOptions persisted = serveOptions();
        persisted.cache_dir = store.path();
        line("store cold", persisted, trace);
        line("store warm", persisted, trace);
        ServiceOptions corrupt = persisted;
        corrupt.fault_seed = 11;
        line("store warm fault-seed=11", corrupt, trace);
        line("store warm again", persisted, trace);
        // One strike quarantines, so a corrupt blob does too: with two,
        // a key struck once is re-translated into the warm tier, which
        // serves it before the store can.
        ServiceOptions strict = corrupt;
        strict.quarantine_strikes = 1;
        line("store warm fault-seed=11 strikes=1", strict, trace);
    }
    {
        const TempStore store("fleet-restarts");
        ServiceOptions persisted = serveOptions();
        persisted.cache_dir = store.path();
        persisted.fleet = standardFleet();
        line("fleet store cold", persisted, trace);
        line("fleet store warm", persisted, trace);
        ServiceOptions corrupt = persisted;
        corrupt.fault_seed = 13;
        line("fleet store warm fault-seed=13", corrupt, trace);
    }
    {
        const TempStore store("bounded");
        ServiceOptions bounded = faults;
        bounded.cache_dir = store.path();
        bounded.store.max_entries = 8;
        line("store capacity=8 fault-seed=5", bounded, trace);
        line("store capacity=8 warm fault-seed=5", bounded, trace);
    }

    VEAL_EXPECT_GOLDEN(actual.str(), "service_runs.golden", "service outputs");
}

}  // namespace
}  // namespace veal
