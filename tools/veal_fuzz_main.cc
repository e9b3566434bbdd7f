/**
 * veal-fuzz: differential fuzzing campaign driver.
 *
 * Generates random-but-valid loops, pushes each through translate ->
 * validate -> LA functional execution, and diffs the results against the
 * reference interpreter.  Failures (divergence, crash-guard, validator
 * reject) can be greedily shrunk and persisted as corpus repro files.
 *
 * The report is deterministic: a given (--runs, --seed, --config) prints
 * byte-identical output for any --threads value.
 *
 * Exit status: 0 on a clean campaign (or clean replay), 1 on failures
 * or an unwritable --metrics-json snapshot (after the report prints),
 * 2 on bad usage.
 */

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench/cli.h"
#include "veal/fuzz/corpus.h"
#include "veal/fuzz/driver.h"

namespace {

namespace cli = veal::bench::cli;

constexpr const char* kTool = "veal-fuzz";

int
usage()
{
    std::cerr <<
        "usage: veal-fuzz [options]\n"
        "  --runs N        cases to run (default 1000)\n"
        "  --threads N     worker threads (default 1)\n"
        "  --batch N       cases per batch-engine block (default 64;\n"
        "                  never affects results)\n"
        "  --seed S        campaign seed (default 1)\n"
        "  --iterations N  loop iterations per case (default 12)\n"
        "  --config NAME   fuzz only this preset (default: all presets)\n"
        "  --fault-seed S  arm a per-case FaultPlan stream; recovered\n"
        "                  cases report the fault-recovered outcome\n"
        "  --sched-diff    diff the optimized scheduling kernels against\n"
        "                  the frozen reference implementations instead\n"
        "                  of running the execution oracle\n"
        "  --service       push each case through a multi-tenant\n"
        "                  translation-service micro-trace at 1 and 2\n"
        "                  shards and require byte-identical results\n"
        "  --shrink        minimise failing loops before reporting\n"
        "  --corpus DIR    save shrunk repros to DIR as .veal files\n"
        "  --replay DIR    replay corpus files in DIR instead of fuzzing\n"
        "  --metrics-json FILE  write a veal-metrics-v1 snapshot of the\n"
        "                  campaign (byte-identical for any --threads)\n"
        "  --list-configs  print the preset names and exit\n";
    return 2;
}

int
replay(const std::string& directory)
{
    const auto results = veal::replayCorpus(directory);
    int bad = 0;
    for (const auto& result : results) {
        if (result.ok()) {
            std::cout << "ok   " << result.path << " ("
                      << toString(result.expect) << ")\n";
            continue;
        }
        ++bad;
        if (!result.error.empty()) {
            std::cout << "FAIL " << result.path << ": " << result.error
                      << "\n";
        } else {
            std::cout << "FAIL " << result.path << ": expected "
                      << toString(result.expect) << ", got "
                      << toString(result.actual.outcome) << " ("
                      << result.actual.detail << ")\n";
        }
    }
    std::cout << "replayed " << results.size() << " corpus case(s), "
              << bad << " failure(s)\n";
    return bad == 0 ? 0 : 1;
}

}  // namespace

int
main(int argc, char** argv)
{
    veal::FuzzOptions options;
    std::string replay_dir;
    std::string metrics_json;

    const auto next_value = [&](int& i) -> const char* {
        return cli::requireValue(kTool, argc, argv, &i, usage);
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--runs") {
            options.runs = cli::parseCount(kTool, arg, next_value(i),
                                           usage);
        } else if (arg == "--threads") {
            options.threads = cli::parseCount(kTool, arg, next_value(i),
                                              usage);
        } else if (arg == "--batch") {
            options.batch = cli::parseCount(kTool, arg, next_value(i),
                                            usage);
        } else if (arg == "--seed") {
            options.seed = cli::parseU64(kTool, arg, next_value(i),
                                         usage);
        } else if (arg == "--iterations") {
            options.iterations = cli::parseCount(kTool, arg,
                                                 next_value(i), usage);
        } else if (arg == "--fault-seed") {
            options.fault_seed = cli::parseU64(kTool, arg, next_value(i),
                                               usage);
        } else if (arg == "--config") {
            const std::string name = next_value(i);
            const auto preset = veal::fuzzConfigByName(name);
            if (!preset.has_value()) {
                std::cerr << "veal-fuzz: unknown config '" << name
                          << "' (try --list-configs)\n";
                return 2;
            }
            options.configs = {*preset};
        } else if (arg == "--sched-diff") {
            options.sched_diff = true;
        } else if (arg == "--service") {
            options.service = true;
        } else if (arg == "--shrink") {
            options.shrink = true;
        } else if (arg == "--corpus") {
            options.corpus_dir = next_value(i);
        } else if (arg == "--replay") {
            replay_dir = next_value(i);
        } else if (arg == "--metrics-json") {
            metrics_json = next_value(i);
        } else if (arg == "--list-configs") {
            for (const auto& preset : veal::fuzzConfigPresets())
                std::cout << preset.name << "\n";
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            cli::usageError(kTool, "unknown option '" + arg + "'", usage);
        }
    }

    if (!replay_dir.empty())
        return replay(replay_dir);

    if (options.runs < 1 || options.threads < 1 ||
        options.iterations < 1 || options.batch < 1) {
        cli::usageError(kTool,
                        "--runs, --threads, --iterations, and --batch "
                        "must be positive",
                        usage);
    }
    if (options.sched_diff && options.service)
        cli::usageError(kTool, "--sched-diff and --service are exclusive",
                        usage);

    veal::metrics::Registry registry;
    veal::FuzzSummary summary;
    {
        // Wall time goes to stderr only; the snapshot stays clock-free.
        const veal::metrics::ScopedWallTimer timer("veal-fuzz campaign");
        summary = veal::runFuzz(options, &registry);
    }
    std::cout << summary.render();
    if (!metrics_json.empty() &&
        !veal::metrics::writeSnapshot(registry, metrics_json)) {
        std::cerr << "veal-fuzz: cannot write " << metrics_json << "\n";
        return 1;
    }
    return summary.clean() ? 0 : 1;
}
