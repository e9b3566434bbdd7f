// veal-perfbench: one run of one benchmark workload.
//
//   veal-perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --work-dir DIR [--fixture DIR] [--canonical-fixture DIR]
//                  [--expect-fingerprint HEX] [--spans-out FILE]
//                  [--commit SHA] [--source-digest HEX]
//   veal-perfbench --make-fixture DIR --seed N
//
// Prints a human-readable report, then as its last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.  Exits 1
// when an output check failed, 2 on a usage or runtime error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "calibration.h"
#include "layers.h"
#include "stats.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

struct Args {
    RunOptions run;
    std::string make_fixture;
    std::string expect_fingerprint;
    std::string spans_out;
    std::string commit = "unknown";
    std::string source_digest = "unknown";
    bool have_workload = false;
};

[[noreturn]] void
usage(const std::string& problem)
{
    std::cerr << "veal-perfbench: " << problem << "\n"
              << "usage: veal-perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--fixture DIR] "
                 "[--canonical-fixture DIR] [--expect-fingerprint HEX] "
                 "[--spans-out FILE] [--commit SHA] [--source-digest HEX]\n"
                 "       veal-perfbench --make-fixture DIR --seed N\n";
    std::exit(2);
}

std::uint64_t
parseU64(const std::string& flag, const std::string& text)
{
    if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos ||
        text.size() > 19)
        usage("bad value for " + flag + ": '" + text + "'");
    return std::stoull(text);
}

Args
parse(int argc, char** argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            if (value != "warm-reuse" && value != "cold-churn" &&
                value != "warm-restart" && value != "dse-grid")
                usage("unknown workload '" + value + "'");
            args.run.workload = value;
            args.have_workload = true;
        } else if (flag == "--seed") {
            args.run.seed = parseU64(flag, value);
        } else if (flag == "--seconds") {
            const auto seconds = parseU64(flag, value);
            if (seconds < 1 || seconds > 600)
                usage("--seconds must be 1..600");
            args.run.seconds = static_cast<double>(seconds);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            args.run.trace = value == "1";
        } else if (flag == "--work-dir") {
            args.run.work_dir = value;
        } else if (flag == "--fixture") {
            args.run.fixture_dir = value;
        } else if (flag == "--canonical-fixture") {
            args.run.canonical_fixture_dir = value;
        } else if (flag == "--expect-fingerprint") {
            args.expect_fingerprint = value;
        } else if (flag == "--spans-out") {
            args.spans_out = value;
        } else if (flag == "--commit") {
            args.commit = value;
        } else if (flag == "--source-digest") {
            args.source_digest = value;
        } else if (flag == "--make-fixture") {
            args.make_fixture = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (args.make_fixture.empty()) {
        if (!args.have_workload)
            usage("--workload is required");
        if (args.run.work_dir.empty())
            usage("--work-dir is required");
        if (args.run.workload == "warm-restart" && args.run.fixture_dir.empty())
            usage("warm-restart needs --fixture");
    }
    return args;
}

/** A JSON number with every digit (finite values only). */
std::string
number(double value)
{
    if (!std::isfinite(value))
        value = 0.0;
    char text[40];
    std::snprintf(text, sizeof text, "%.17g", value);
    return text;
}

double
throughput(const RunResult& r)
{
    return r.timed_s > 0.0 ? static_cast<double>(r.completed) / r.timed_s : 0.0;
}

std::vector<Metric>
endToEnd(const RunResult& r)
{
    return {
        {"throughput_per_s", throughput(r), "1/s"},
        {"latency_p50_ms", percentile(r.latency_ms, 50), "ms"},
        {"latency_p95_ms", percentile(r.latency_ms, 95), "ms"},
        {"setup_s", median(r.setup_s), "s"},
        {"peak_rss_mb", r.peak_rss_mb, "MB"},
        {"modeled_speedup", r.modeled_speedup, "x"},
    };
}

std::vector<Metric>
perLayer(const RunResult& r)
{
    std::vector<Metric> out;
    for (const MetricSpec& spec : perLayerSpecs()) {
        Metric metric{spec.name, 0.0, spec.unit};
        const std::string unit = spec.unit;
        const bool time = unit == "ns" || unit == "us" || unit == "ms";
        for (const Metric& measured : r.layers) {
            if (measured.name == spec.name)
                metric.value = measured.value * (time ? r.layer_time_scale : 1.0);
        }
        out.push_back(metric);
    }
    return out;
}

void
printReport(const Args& args, const RunResult& r)
{
    const RunOptions& run = args.run;
    const bool dse = run.workload == "dse-grid";
    const int threads = run.workload == "cold-churn" ? 2 : 1;
    std::printf("# veal-perfbench workload=%s seed=%llu trace=%d\n",
                run.workload.c_str(), static_cast<unsigned long long>(run.seed),
                run.trace ? 1 : 0);
    std::printf("context: commit=%s source=%s build=%s compiler=\"%s\" "
                "nproc=%u threads=%d shards=%d seed=%llu epochs=%d "
                "run_seconds=%g host_timed_s=%.3f\n",
                args.commit.c_str(), args.source_digest.c_str(),
                PERFBENCH_BUILD_TYPE, __VERSION__,
                std::thread::hardware_concurrency(), threads,
                dse ? 0 : threads, static_cast<unsigned long long>(run.seed),
                r.epochs, run.seconds, r.raw_timed_s);

    const char* unit = dse ? "row of 4 design points" : "tick";
    const Quartiles calibration = quartiles(r.calibration_us);
    std::printf("calibration: %zu passes, median %.1f us (q1 %.1f, q3 %.1f); "
                "times below are scaled to a %.0f us pass, raw host times in "
                "brackets\n",
                r.calibration_us.size(), calibration.q2, calibration.q1,
                calibration.q3, kReferencePassNs * 1e-3);
    std::printf("end-to-end%s:\n", run.trace ? " (this traced run)" : "");
    std::printf("  %-16s %14.1f 1/s   [%.1f] %s\n",
                dse ? "cells_per_s" : "requests_per_s", throughput(r),
                r.raw_timed_s > 0.0 ? static_cast<double>(r.completed) / r.raw_timed_s
                                    : 0.0,
                dse ? "cells completed per host second"
                    : "admitted requests per host second");
    std::printf("  %-16s %14.3f ms    [%.3f] per %s, %zu samples\n",
                dse ? "row_p50_ms" : "tick_p50_ms", percentile(r.latency_ms, 50),
                percentile(r.raw_latency_ms, 50), unit, r.latency_ms.size());
    std::printf("  %-16s %14.3f ms    [%.3f] %d samples beyond it\n",
                dse ? "row_p95_ms" : "tick_p95_ms", percentile(r.latency_ms, 95),
                percentile(r.raw_latency_ms, 95), samplesBeyond(r.latency_ms, 95));
    std::printf("  %-16s %14.4f s     [%.4f] median of %zu set-ups\n", "setup_s",
                median(r.setup_s), median(r.raw_setup_s), r.setup_s.size());
    std::printf("  %-16s %14.1f MB    VmHWM\n", "peak_rss_mb", r.peak_rss_mb);
    std::printf("  %-16s %14.6f ratio %lld of %lld operations\n", "failed_share",
                r.attempted == 0 ? 0.0
                                 : static_cast<double>(r.failed()) /
                                       static_cast<double>(r.attempted),
                static_cast<long long>(r.failed()),
                static_cast<long long>(r.attempted));
    std::printf("  %-16s %14.6f x     %s at seed %llu; %.6f at this seed\n",
                "modeled_speedup", r.modeled_speedup,
                dse ? "mean cellSpeedup" : "baseline CPU cycles / served cycles",
                static_cast<unsigned long long>(kFingerprintSeed),
                r.own_modeled_speedup);

    if (r.failures.empty()) {
        std::printf("checks: ok (%lld checked)\n", static_cast<long long>(r.checked));
    } else {
        std::printf("checks: FAILED (%lld operations)\n",
                    static_cast<long long>(r.failed_checks));
        for (const auto& failure : r.failures)
            std::printf("  %s\n", failure.c_str());
    }
    for (const auto& line : r.character)
        std::printf("character: %s\n", line.c_str());
    const char* verdict = args.expect_fingerprint.empty()
                              ? "unrecorded"
                              : (args.expect_fingerprint == r.canonical_fingerprint
                                     ? "match"
                                     : "changed");
    std::printf("fingerprint: %s %s (seed %llu; recorded %s); this seed %s\n",
                r.canonical_fingerprint.c_str(), verdict,
                static_cast<unsigned long long>(kFingerprintSeed),
                args.expect_fingerprint.empty() ? "none"
                                                : args.expect_fingerprint.c_str(),
                r.fingerprint.c_str());

    if (!run.trace)
        return;
    std::printf("per-layer:\n");
    for (const Metric& metric : perLayer(r))
        std::printf("  %-40s %16.4f %s\n", metric.name.c_str(), metric.value,
                    metric.unit.c_str());
    std::printf("layer passes (raw host times; x%.4f scales them to the "
                "reference speed):\n",
                r.layer_time_scale);
    for (const auto& note : r.layer_notes)
        std::printf("  %s\n", note.c_str());
    std::printf("tracing overhead: %+.2f%% (p50 per %s, traced %zu vs untraced "
                "%zu samples)\n",
                [&] {
                    for (const Metric& m : r.layers)
                        if (m.name == "trace.overhead_pct")
                            return m.value;
                    return 0.0;
                }(),
                unit, r.latency_ms.size() - r.untraced_latency_ms.size(),
                r.untraced_latency_ms.size());
    std::printf("spans (traced epochs):  %-18s %9s %12s %12s %12s\n", "name",
                "count", "total_ms", "self_ms", "p50_us");
    for (const auto& s : summarizeSpans(r.spans.spans()))
        std::printf("                        %-18s %9lld %12.3f %12.3f %12.3f\n",
                    s.name.c_str(), static_cast<long long>(s.count),
                    static_cast<double>(s.total_ns) * 1e-6,
                    static_cast<double>(s.self_ns) * 1e-6, s.p50_ns * 1e-3);
}

void
printJson(const Args& args, const RunResult& r)
{
    const auto metrics = args.run.trace ? perLayer(r) : endToEnd(r);
    std::ostringstream os;
    os << "{\"correct\": " << (r.failed_checks == 0 ? "true" : "false")
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed()
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
           << "\": {\"value\": " << number(metrics[i].value) << ", \"unit\": \""
           << metrics[i].unit << "\"}";
    }
    os << "}}";
    std::fflush(stdout);
    std::cout << os.str() << std::endl;
}

}  // namespace

int
main(int argc, char** argv)
{
    const Args args = parse(argc, argv);
    try {
        if (!args.make_fixture.empty()) {
            if (!makeFixture(args.run.seed, args.make_fixture)) {
                std::cerr << "veal-perfbench: fixture store incomplete\n";
                return 2;
            }
            return 0;
        }
        const RunResult result = args.run.workload == "dse-grid"
                                     ? runDseWorkload(args.run)
                                     : runServiceWorkload(args.run);
        if (result.attempted < 1) {
            std::cerr << "veal-perfbench: no operation was attempted\n";
            return 2;
        }
        printReport(args, result);
        if (!args.spans_out.empty()) {
            std::ofstream out(args.spans_out);
            result.spans.writeJsonLines(out);
        }
        printJson(args, result);
        return result.failed_checks == 0 ? 0 : 1;
    } catch (const std::exception& error) {
        std::cerr << "veal-perfbench: " << error.what() << "\n";
        return 2;
    }
}
