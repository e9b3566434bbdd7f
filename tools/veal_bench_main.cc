/**
 * veal-bench: the simulation, persist and fleet studies.
 *
 * stdout carries only the mode's modeled block, a JSON object that is
 * byte-identical for any --threads, --batch and --runs, so CI can cmp
 * it across shapes.  Wall-clock lines go to stderr, and --json writes
 * both blocks inside the veal-bench-v2 envelope.
 *
 * Exit status: 0 on success, 1 when the envelope cannot be written, 2
 * on bad usage.
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "bench/cli.h"
#include "bench/fleet.h"
#include "bench/persist.h"
#include "bench/simulation.h"
#include "veal/support/thread_pool.h"

namespace {

namespace cli = veal::bench::cli;

constexpr const char* kTool = "veal-bench";

int
usage()
{
    std::cerr <<
        "usage: veal-bench --mode NAME [options]\n"
        "  --mode NAME   simulation (batched vs reference simulation),\n"
        "                persist (cold vs warm start over the store) or\n"
        "                fleet (the fleet vs the single design point)\n"
        "  --runs N      timed passes (default 5)\n"
        "  --threads N   worker threads (default: all hardware threads)\n"
        "  --batch N     lanes per batch-engine call in simulation mode\n"
        "                (default 64; never affects modeled output)\n"
        "  --json FILE   write the veal-bench-v2 envelope\n"
        "  --commit SHA  commit id recorded in the envelope\n";
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace veal::bench;
    ModeOptions options;
    options.threads = veal::ThreadPool::defaultThreads();

    const auto next_value = [&](int& i) -> const char* {
        return cli::requireValue(kTool, argc, argv, &i, usage);
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--mode") {
            options.mode = next_value(i);
        } else if (arg == "--runs") {
            options.runs = cli::parseCount(kTool, arg, next_value(i),
                                           usage);
        } else if (arg == "--threads") {
            options.threads = cli::parseCount(kTool, arg, next_value(i),
                                              usage);
        } else if (arg == "--batch") {
            options.batch = cli::parseCount(kTool, arg, next_value(i),
                                            usage);
        } else if (arg == "--json") {
            options.json_path = next_value(i);
        } else if (arg == "--commit") {
            options.commit = next_value(i);
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            cli::usageError(kTool, "unknown option '" + arg + "'", usage);
        }
    }
    if (options.mode.empty())
        cli::usageError(kTool, "--mode is required", usage);
    if (options.mode != "simulation" && options.mode != "persist" &&
        options.mode != "fleet") {
        cli::usageError(kTool,
                        "--mode wants simulation, persist or fleet, got '" +
                            options.mode + "'",
                        usage);
    }
    if (options.runs < 1 || options.threads < 1 || options.batch < 1) {
        cli::usageError(kTool,
                        "--runs, --threads and --batch must be positive",
                        usage);
    }

    const ModeReport report = options.mode == "simulation"
                                  ? runSimulationThroughput(options)
                              : options.mode == "persist"
                                  ? runPersistBench(options)
                                  : runFleetBench(options);
    std::printf("%s\n", report.modeled.render().c_str());
    std::fprintf(stderr, "veal-bench: %s wall %s (%d runs, %d threads)\n",
                 options.mode.c_str(), report.wall.renderLine().c_str(),
                 options.runs, options.threads);
    if (!options.json_path.empty())
        writeEnvelope(options, report);
    return 0;
}
