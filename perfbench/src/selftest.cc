// perfbench-selftest: checks of the benchmark's own logic.  Exits 0 when
// every check passes, 1 otherwise.  Run it with
// `python3 perfbench/run.py --self-test`.

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "inputs.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void
expect(bool ok, const std::string& what)
{
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++g_failures;
}

bool
near(double a, double b)
{
    return a - b < 1e-12 && b - a < 1e-12;
}

void
generatorIsPureFunctionOfSeed()
{
    for (const char* workload : {"warm-reuse", "cold-churn", "warm-restart"}) {
        const auto a = serviceInputs(workload, 7);
        const auto b = serviceInputs(workload, 7);
        const auto c = serviceInputs(workload, 8);
        expect(veal::formatTrace(a.timed) == veal::formatTrace(b.timed) &&
                   veal::formatTrace(a.prepare) == veal::formatTrace(b.prepare),
               std::string(workload) + ": same seed, same trace");
        expect(veal::formatTrace(a.timed) != veal::formatTrace(c.timed),
               std::string(workload) + ": another seed, another trace");
    }
    std::string a, b;
    for (const auto& point : dseGridInputs(7))
        a += describe(point) + "\n";
    for (const auto& point : dseGridInputs(7))
        b += describe(point) + "\n";
    expect(a == b && !a.empty(), "dse-grid: same seed, same grid");

    const auto warm = warmReuseInputs(3);
    expect(distinctKeys(warm.prepare).size() == 4u * kWarmReuseLoops,
           "warm-reuse: the warm-up covers every key once");
    bool iterations_in_range = true;
    std::int64_t small = 0, large = 0;
    for (const auto& tick : warm.timed.ticks) {
        for (const auto& request : tick) {
            iterations_in_range &= request.iterations >= kMinIterations &&
                                   request.iterations <= kMaxIterations;
            small += request.iterations < 96 ? 1 : 0;
            large += request.iterations > 96 ? 1 : 0;
        }
    }
    expect(iterations_in_range && small > 0 && large > 0,
           "iterations span both sides of the 96-iteration CPU window");
}

void
statsHelpers()
{
    const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
    expect(near(percentile(ten, 50), 5) && near(percentile(ten, 95), 10) &&
               near(percentile(ten, 90), 9) && near(percentile(ten, 10), 1),
           "nearest-rank percentile of 1..10");
    expect(near(percentile({}, 50), 0), "percentile of nothing is 0");
    expect(near(median(ten), 5.5) && near(median({3, 1, 2}), 2),
           "median of even and odd sizes");
    // Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    const Quartiles q = quartiles(ten);
    expect(near(q.q1, 2.75) && near(q.q2, 5.5) && near(q.q3, 8.25),
           "quartiles of 1..10 match statistics.quantiles");
    // Python: statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
    const Quartiles four = quartiles({4, 3, 2, 1});
    expect(near(four.q1, 1.25) && near(four.q2, 2.5) && near(four.q3, 3.75),
           "quartiles of 1..4 match statistics.quantiles");
    std::vector<double> hundred;
    for (int i = 1; i <= 200; ++i)
        hundred.push_back(i);
    expect(samplesBeyond(hundred, 95) == 10, "ten of 200 samples beyond p95");
}

void
spanSelfTime()
{
    std::vector<Span> spans = {
        {"tick", 1, -1, 0, 100},
        {"submit", 1, 0, 10, 30},
        {"submit", 1, 0, 20, 50},   // overlaps the first child
        {"drain", 1, 0, 60, 70},
        {"late", 1, 0, 90, 120},    // clipped to the parent
        {"inner", 1, 3, 62, 64},    // grandchild: not the tick's child
    };
    const auto self = selfTimes(spans);
    expect(self[0] == 100 - 40 - 10 - 10, "tick self time excludes the union of children");
    expect(self[3] == 8 && self[5] == 2, "drain self time excludes its own child");
    const auto summary = summarizeSpans(spans);
    std::map<std::string, SpanSummary> by_name;
    for (const auto& s : summary)
        by_name[s.name] = s;
    expect(by_name["submit"].count == 2 && by_name["submit"].total_ns == 50,
           "span summary groups by name");

    SpanRecorder off(false);
    expect(off.begin("tick", 0) == -1 && off.spans().empty(),
           "a disabled recorder records nothing");
}

void
failedShareCountsAdmissionRejects(const std::string& work_dir)
{
    // Deliberately undersized admission: quota 30 per tenant, queue 100,
    // against ticks of 512 requests.  Expected rejections follow the
    // service's documented order (quota first, then queue capacity).
    RunOptions run;
    run.workload = "warm-reuse";
    run.seed = 5;
    run.seconds = 1;
    run.queue_depth = 100;
    run.tenant_quota = 30;
    run.max_epochs = 1;
    run.work_dir = work_dir;
    std::int64_t expected = 0;
    std::int64_t total = 0;
    for (const auto& tick : serviceInputs(run.workload, run.seed).timed.ticks) {
        std::map<int, int> inflight;
        int queued = 0;
        for (const auto& request : tick) {
            ++total;
            if (inflight[request.tenant] >= run.tenant_quota || queued >= run.queue_depth) {
                ++expected;
                continue;
            }
            ++inflight[request.tenant];
            ++queued;
        }
    }
    const RunResult result = runServiceWorkload(run);
    std::filesystem::remove_all(run.work_dir);
    expect(result.attempted == total && result.rejected == expected &&
               result.failed() == expected && result.failed_checks == 0,
           "failed_share counts " + std::to_string(expected) + " of " +
               std::to_string(total) + " rejected at admission (got " +
               std::to_string(result.failed()) + ")");
}

}  // namespace

int
main(int argc, char** argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: perfbench-selftest WORK_DIR\n");
        return 2;
    }
    generatorIsPureFunctionOfSeed();
    statsHelpers();
    spanSelfTime();
    expect(hex64(fnv1a("")) == "cbf29ce484222325" &&
               hex64(fnv1a("a")) == "af63dc4c8601ec8c",
           "FNV-1a 64 reference values");
    failedShareCountsAdmissionRejects(argv[1]);
    std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL",
                g_failures);
    return g_failures == 0 ? 0 : 1;
}
