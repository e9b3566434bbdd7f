/**
 * veal-faultsim: fault-injection campaign driver.
 *
 * Samples deterministic fault plans, runs each through the hardened VM
 * on a benchmark application, and gates on two invariants: architectural
 * results stay bit-identical to the reference interpreter under every
 * plan, and every injected fault lands in exactly one recovery counter.
 *
 * The report is deterministic: a given (--plans, --seed, --apps) prints
 * byte-identical output for any --threads value.
 *
 * Exit status: 0 on a clean campaign, 1 on divergences, taxonomy
 * violations or an unwritable --metrics-json snapshot (after the report
 * prints), 2 on bad usage.
 */

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench/cli.h"
#include "veal/fault/campaign.h"
#include "veal/fault/persist_campaign.h"
#include "veal/support/metrics/metrics.h"
#include "veal/workloads/suite.h"

namespace {

namespace cli = veal::bench::cli;

constexpr const char* kTool = "veal-faultsim";

int
usage()
{
    std::cerr <<
        "usage: veal-faultsim [options]\n"
        "  --mode vm|persist    campaign to run (default vm)\n"
        "  --plans N            fault plans to sample (default 200)\n"
        "  --threads N          worker threads (default 1)\n"
        "  --batch N            plans per batch-engine block (default "
        "64;\n"
        "                       never affects results)\n"
        "  --seed S             campaign seed (default 1)\n"
        "  --app NAME           campaign only this benchmark (repeatable;\n"
        "                       default: the whole media suite)\n"
        "  --iterations N       trip count of the differential check "
        "(default 12)\n"
        "  --max-invocations N  clamp per-site invocations (default 32, "
        "0 = off)\n"
        "  --cache-entries N    code-cache capacity (default 4)\n"
        "  --metrics-json FILE  write a veal-metrics-v1 snapshot of the\n"
        "                       campaign (byte-identical for any "
        "--threads)\n"
        "  --describe N         print plan N of this seed and exit\n"
        "  --list-apps          print the benchmark names and exit\n"
        "persist mode only:\n"
        "  --requests N         service-trace requests per point "
        "(default 48)\n"
        "  --vfs-mode M         fault mode to enumerate: crash, "
        "short-write,\n"
        "                       bit-flip, enospc (repeatable; default "
        "all)\n"
        "  --scratch-dir DIR    per-point store scratch root (default: "
        "a\n"
        "                       seed-named dir under the system temp; "
        "wiped)\n";
    return 2;
}

/** Parse a --vfs-mode name or exit with usage. */
veal::fault::VfsFaultMode
parseVfsMode(const std::string& text)
{
    using veal::fault::VfsFaultMode;
    if (text == "crash")
        return VfsFaultMode::kCrash;
    if (text == "short-write")
        return VfsFaultMode::kShortWrite;
    if (text == "bit-flip")
        return VfsFaultMode::kBitFlip;
    if (text == "enospc")
        return VfsFaultMode::kEnospc;
    cli::usageError(kTool, "unknown --vfs-mode '" + text + "'", usage);
    return VfsFaultMode::kCrash;  // Unreachable.
}

/** Shared strict parsing (bench/cli.h) with this tool's usage text. */
std::uint64_t
parseU64(const char* flag, const std::string& text)
{
    return cli::parseU64(kTool, flag, text, usage);
}

int
parseInt(const char* flag, const std::string& text)
{
    return cli::parseCount(kTool, flag, text, usage);
}

}  // namespace

int
main(int argc, char** argv)
{
    veal::FaultCampaignOptions options;
    veal::PersistCampaignOptions persist_options;
    std::string mode = "vm";
    std::string metrics_json;

    const auto next_value = [&](int& i) -> const char* {
        return cli::requireValue(kTool, argc, argv, &i, usage);
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--mode") {
            mode = next_value(i);
            if (mode != "vm" && mode != "persist")
                cli::usageError(kTool, "--mode must be vm or persist",
                                usage);
        } else if (arg == "--requests") {
            persist_options.requests =
                parseInt("--requests", next_value(i));
        } else if (arg == "--vfs-mode") {
            persist_options.modes.push_back(
                parseVfsMode(next_value(i)));
        } else if (arg == "--scratch-dir") {
            persist_options.scratch_dir = next_value(i);
        } else if (arg == "--plans") {
            options.plans = parseInt("--plans", next_value(i));
        } else if (arg == "--threads") {
            options.threads = parseInt("--threads", next_value(i));
        } else if (arg == "--batch") {
            options.batch = parseInt("--batch", next_value(i));
        } else if (arg == "--seed") {
            options.seed = parseU64("--seed", next_value(i));
        } else if (arg == "--app") {
            options.apps.emplace_back(next_value(i));
        } else if (arg == "--iterations") {
            options.iterations = parseInt("--iterations", next_value(i));
        } else if (arg == "--max-invocations") {
            options.max_invocations =
                parseInt("--max-invocations", next_value(i));
        } else if (arg == "--cache-entries") {
            options.code_cache_entries =
                parseInt("--cache-entries", next_value(i));
        } else if (arg == "--metrics-json") {
            metrics_json = next_value(i);
        } else if (arg == "--describe") {
            const int plan_index = parseInt("--describe", next_value(i));
            std::cout << veal::makeCampaignPlan(options.seed, plan_index)
                             .describe()
                      << "\n";
            return 0;
        } else if (arg == "--list-apps") {
            for (const auto& benchmark : veal::mediaFpSuite())
                std::cout << benchmark.name << "\n";
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            cli::usageError(kTool, "unknown option '" + arg + "'", usage);
        }
    }

    if (options.plans < 1 || options.threads < 1 ||
        options.iterations < 1 || options.code_cache_entries < 1 ||
        options.batch < 1) {
        cli::usageError(kTool,
                        "--plans, --threads, --iterations, "
                        "--cache-entries, and --batch must be positive",
                        usage);
    }

    veal::metrics::Registry registry;
    bool clean = false;
    std::string report;
    {
        // Wall time goes to stderr only; the report stays clock-free.
        const veal::metrics::ScopedWallTimer timer(
            "veal-faultsim campaign");
        if (mode == "persist") {
            persist_options.seed = options.seed;
            persist_options.threads = options.threads;
            persist_options.iterations = options.iterations;
            const veal::PersistCampaignSummary summary =
                veal::runPersistCampaign(persist_options, &registry);
            clean = summary.clean();
            report = summary.render();
        } else {
            const veal::FaultCampaignSummary summary =
                veal::runFaultCampaign(options, &registry);
            clean = summary.clean();
            report = summary.render();
        }
    }
    std::cout << report;
    if (!metrics_json.empty() &&
        !veal::metrics::writeSnapshot(registry, metrics_json)) {
        std::cerr << "veal-faultsim: cannot write " << metrics_json
                  << "\n";
        return 1;
    }
    return clean ? 0 : 1;
}
