#include "bench/common.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "bench/cli.h"
#include "veal/support/logging.h"
#include "veal/support/table.h"

namespace veal::bench {

namespace {

void
printUsage(std::FILE* out, const char* argv0)
{
    std::fprintf(out,
                 "usage: %s [--threads N] [--metrics-json FILE] "
                 "[--report]\n"
                 "  --threads N          sweep worker threads (default: "
                 "all hardware threads)\n"
                 "  --metrics-json FILE  write a veal-metrics-v1 JSON "
                 "snapshot (byte-identical\n"
                 "                       for any --threads)\n"
                 "  --report             print the per-phase translation-"
                 "cycle table from the\n"
                 "                       metrics registry (veal-report "
                 "mode)\n",
                 argv0);
}

/** Shared failure path (bench/cli.h) with the bench usage text. */
[[noreturn]] void
usageError(const char* argv0, const std::string& message)
{
    cli::usageError(argv0, message, [argv0]() {
        printUsage(stderr, argv0);
        return 2;
    });
}

/** Strict positive parse on the shared digit-only path. */
int
parsePositiveInt(const char* argv0, const char* flag, const char* text)
{
    const int value = cli::parseCount(argv0, flag, text, [argv0]() {
        printUsage(stderr, argv0);
        return 2;
    });
    if (value < 1) {
        usageError(argv0, std::string(flag) +
                              " wants a positive integer, got '" + text +
                              "'");
    }
    return value;
}

}  // namespace

BenchOptions
BenchOptions::parse(int argc, char** argv)
{
    BenchOptions options;
    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        if (std::strcmp(arg, "--threads") == 0) {
            if (i + 1 >= argc)
                usageError(argv[0], "--threads needs a value");
            options.threads =
                parsePositiveInt(argv[0], "--threads", argv[++i]);
        } else if (std::strncmp(arg, "--threads=", 10) == 0) {
            options.threads =
                parsePositiveInt(argv[0], "--threads", arg + 10);
        } else if (std::strcmp(arg, "--metrics-json") == 0) {
            if (i + 1 >= argc)
                usageError(argv[0], "--metrics-json needs a file path");
            options.metrics_json = argv[++i];
        } else if (std::strncmp(arg, "--metrics-json=", 15) == 0) {
            options.metrics_json = arg + 15;
            if (options.metrics_json.empty())
                usageError(argv[0], "--metrics-json needs a file path");
        } else if (std::strcmp(arg, "--report") == 0) {
            options.report = true;
        } else if (std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            printUsage(stdout, argv[0]);
            std::exit(0);
        } else {
            usageError(argv[0], std::string("unknown argument '") + arg +
                                    "'");
        }
    }
    return options;
}

explore::SweepRunner
makeRunner(const BenchOptions& options, std::vector<Benchmark> suite)
{
    return explore::SweepRunner(std::move(suite), options.threads);
}

void
finishBenchMetrics(const BenchOptions& options,
                   const metrics::Registry& registry)
{
    if (options.report) {
        // veal-report mode: the Figure-8-style phase table, read straight
        // from the registry's vm.phase_cycles.* counters -- the audited
        // numbers the VM actually charged, not ad-hoc struct fields.
        std::int64_t total = 0;
        for (int i = 0; i < kNumTranslationPhases; ++i) {
            total += registry.counter(
                std::string("vm.phase_cycles.") +
                toString(static_cast<TranslationPhase>(i)));
        }
        const std::int64_t override_cycles =
            registry.counter("vm.phase_cycles.override");
        total += override_cycles;

        TextTable table({"phase", "cycles", "share"});
        const auto share = [&](std::int64_t cycles) {
            return total > 0 ? TextTable::formatDouble(
                                   100.0 * static_cast<double>(cycles) /
                                       static_cast<double>(total),
                                   1) +
                                   "%"
                             : "-";
        };
        for (int i = 0; i < kNumTranslationPhases; ++i) {
            const char* phase =
                toString(static_cast<TranslationPhase>(i));
            const std::int64_t cycles = registry.counter(
                std::string("vm.phase_cycles.") + phase);
            table.addRow({phase, std::to_string(cycles), share(cycles)});
        }
        if (override_cycles > 0) {
            table.addRow({"override", std::to_string(override_cycles),
                          share(override_cycles)});
        }
        table.addRow({"total", std::to_string(total), share(total)});

        std::cout << "\nveal-report: translation cycles by phase "
                     "(vm.phase_cycles.*)\n"
                  << table;
        std::printf("veal-report: %" PRId64 " ok / %" PRId64
                    " translations, cache %" PRId64 " hit / %" PRId64
                    " miss, %" PRId64 " IIs attempted\n",
                    registry.counter("vm.translate.ok"),
                    registry.counter("vm.translations"),
                    registry.counter("vm.cache.hits"),
                    registry.counter("vm.cache.misses"),
                    registry.counter("vm.sched.attempted_iis"));
    }
    if (!options.metrics_json.empty() &&
        !metrics::writeSnapshot(registry, options.metrics_json)) {
        fatal("cannot write metrics snapshot to ", options.metrics_json);
    }
}

void
reportSweepStats(const explore::SweepRunner& runner)
{
    const auto& stats = runner.stats();
    std::fprintf(stderr,
                 "sweep: %lld cells on %d thread%s, wall %.2fs, "
                 "cell-time %.2fs, parallel speedup %.2fx\n",
                 static_cast<long long>(stats.cells), stats.threads,
                 stats.threads == 1 ? "" : "s", stats.wall_seconds,
                 stats.cell_seconds, stats.parallelSpeedup());
}

}  // namespace veal::bench
