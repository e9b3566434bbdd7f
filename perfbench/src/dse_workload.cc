// The dse-grid workload: sampled LA design points x the media/FP suite,
// each cell one explore::cellSpeedup (a whole-application
// VirtualMachine::run), evaluated through SweepRunner at one thread.
// One SweepRunner::evaluateCells call covers a row of kPointsPerRow
// design points.

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>

#include "calibration.h"
#include "inputs.h"
#include "layers.h"
#include "stats.h"
#include "veal/explore/sweep.h"
#include "veal/sched/schedule.h"
#include "veal/sim/batch.h"
#include "veal/sim/reference.h"
#include "veal/support/metrics/metrics.h"
#include "veal/support/rng.h"
#include "veal/workloads/suite.h"
#include "workloads.h"

namespace perfbench {

namespace {

/**
 * Design points per evaluateCells call.  A 4-point row takes ~12 ms, so
 * bursts of machine contention average out within a timed interval as
 * they do within a service tick; one point (~3 ms) left the p95 at the
 * mercy of single bursts.
 */
constexpr std::size_t kPointsPerRow = 4;

/** Cells re-run and checked against the frozen oracles per run. */
constexpr int kSampledCells = 16;

/** Translations kept from the translator pass for the LA pricing pass. */
constexpr std::size_t kKeptTranslations = 4096;

volatile std::int64_t g_sink = 0;

struct Grid {
    std::vector<DesignPoint> points;
    std::unique_ptr<veal::explore::SweepRunner> runner;
};

std::vector<const veal::Loop*>
piecesOf(const veal::LoopSite& site)
{
    std::vector<const veal::Loop*> pieces;
    if (site.fissioned.empty()) {
        pieces.push_back(&site.loop);
    } else {
        for (const auto& piece : site.fissioned)
            pieces.push_back(&piece);
    }
    return pieces;
}

veal::TranslationResult
translate(const veal::Loop& loop, const DesignPoint& point)
{
    veal::StaticAnnotations annotations;
    const veal::StaticAnnotations* annotations_ptr = nullptr;
    if (point.mode == veal::TranslationMode::kHybridStaticCcaPriority) {
        annotations = veal::precompileAnnotations(loop, point.la);
        annotations_ptr = &annotations;
    }
    return veal::translateLoop(loop, point.la, point.mode, annotations_ptr);
}

double
mean(const std::vector<double>& values)
{
    double sum = 0.0;
    for (const double value : values)
        sum += value;
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

std::uint64_t
digestCells(const std::vector<double>& cells)
{
    std::string bytes(cells.size() * sizeof(double), '\0');
    if (!cells.empty())
        std::memcpy(bytes.data(), cells.data(), bytes.size());
    return fnv1a(bytes);
}

/** Re-run one cell and check its sites against the frozen oracles. */
void
checkCell(const DesignPoint& point, const veal::Benchmark& benchmark,
          double value, RunResult& result)
{
    ++result.checked;
    const std::string where = benchmark.name + " @ " + describe(point);
    veal::VmOptions options;
    options.mode = point.mode;
    const veal::VirtualMachine vm(point.la, veal::CpuConfig::arm11(), options);
    const auto run = vm.run(benchmark.transformed);
    if (std::memcmp(&run.speedup, &value, sizeof value) != 0) {
        result.fail(1, where + ": re-run speedup differs");
        return;
    }
    const auto& app = benchmark.transformed;
    for (std::size_t i = 0; i < app.sites.size() && i < run.sites.size(); ++i) {
        const veal::LoopSite& site = app.sites[i];
        const veal::SiteResult& got = run.sites[i];
        if (!site.fissioned.empty())
            continue;
        const std::int64_t cpu =
            veal::reference::simulateLoopOnCpu(site.loop,
                                               veal::CpuConfig::arm11(),
                                               site.iterations)
                .total_cycles;
        if (got.baseline_cycles != cpu * site.invocations) {
            result.fail(1, where + ": baseline cycles differ from the reference");
            return;
        }
        const auto tr = translate(site.loop, point);
        const std::int64_t executed = got.actual_cycles - got.translation_cycles;
        if (!tr.ok || !got.accelerated) {
            if (got.accelerated || executed != cpu * site.invocations) {
                result.fail(1, where + ": CPU-path cycles differ");
                return;
            }
            continue;
        }
        if (veal::validateSchedule(*tr.graph, point.la, tr.schedule).has_value() ||
            got.ii != tr.schedule.ii) {
            result.fail(1, where + ": schedule invalid or II differs");
            return;
        }
        const auto price = [&](bool first) {
            return veal::reference::acceleratorLoopCost(
                       tr.schedule, *tr.graph, tr.analysis, tr.registers,
                       point.la, site.iterations, first)
                .total();
        };
        const std::int64_t misses = got.translations;
        if (executed != misses * price(true) +
                            (site.invocations - misses) * price(false)) {
            result.fail(1, where + ": LA cycles differ from the reference");
            return;
        }
    }
}

void
dseLayers(const std::vector<DesignPoint>& points,
          const std::vector<veal::Benchmark>& suite, RunResult& result)
{
    Calibrator calibrator;
    std::vector<double> passes;
    samplePasses(calibrator, 3, passes);
    SpanRecorder& spans = result.spans;
    auto& m = result.layers;
    auto& notes = result.layer_notes;

    const auto cells = durationsOf(spans.spans(), "cell");
    setMetric(m, "vm.app_run_us_p50", percentile(cells, 50) * 1e-3);
    setMetric(m, "vm.app_run_us_p95", percentile(cells, 95) * 1e-3);

    // What the program did, from the VM's own registry over one grid.
    veal::metrics::Registry registry;
    {
        ScopedSpan span(spans, "pass.metered_grid", 0);
        for (const auto& point : points)
            for (const auto& benchmark : suite)
                veal::explore::cellSpeedup(benchmark, point.la, point.mode,
                                           nullptr, &registry);
    }
    const std::int64_t pieces = registry.counter("vm.pieces");
    const std::int64_t ok_pieces = registry.counter("vm.translate.ok");

    // vm.translator: translateLoop on every piece of every cell.
    struct Job {
        const veal::Loop* loop;
        const DesignPoint* point;
    };
    std::vector<Job> jobs;
    for (const auto& point : points)
        for (const auto& benchmark : suite)
            for (const auto& site : benchmark.transformed.sites)
                for (const auto* piece : piecesOf(site))
                    jobs.push_back({piece, &point});
    std::vector<veal::TranslationResult> translations;
    std::int64_t ok = 0;
    std::array<std::uint64_t, veal::kNumTranslationPhases> units{};
    const auto translate_ns = timeEach(spans, "pass.translator", jobs.size(),
                                       [&](std::size_t i) {
        auto tr = translate(*jobs[i].loop, *jobs[i].point);
        ok += tr.ok ? 1 : 0;
        for (int p = 0; p < veal::kNumTranslationPhases; ++p)
            units[static_cast<std::size_t>(p)] +=
                tr.meter.units(static_cast<veal::TranslationPhase>(p));
        if (translations.size() < kKeptTranslations)
            translations.push_back(std::move(tr));
    });
    const double ladder_us = translate_ns.empty() ? 0.0 : median(translate_ns) * 1e-3;
    setMetric(m, "vm.translator.ladder_us", ladder_us);
    setMetric(m, "vm.translator.translations", static_cast<double>(pieces));
    setMetric(m, "vm.translator.retries", 0.0);
    setMetric(m, "vm.translator.ok_ratio",
              jobs.empty() ? 0.0
                           : static_cast<double>(ok) /
                                 static_cast<double>(jobs.size()));
    for (int p = 0; p < veal::kNumTranslationPhases; ++p) {
        setMetric(m,
                  std::string("vm.translator.units.") +
                      veal::toString(static_cast<veal::TranslationPhase>(p)),
                  static_cast<double>(units[static_cast<std::size_t>(p)]));
    }
    notes.push_back(passNote("vm.translateLoop", ladder_us, "us", jobs.size(),
                             pieces));

    // sim.cpu and sim.la: one batch per cell, shaped as VirtualMachine::run.
    {
        veal::BatchSimulator sim;
        const veal::CpuConfig arm11 = veal::CpuConfig::arm11();
        std::int64_t cpu_ns = 0, cpu_lanes = 0, program_cpu_lanes = 0;
        std::int64_t la_ns = 0, la_lanes = 0;
        std::size_t job = 0;
        ScopedSpan span(spans, "pass.cpu_la_price", 0);
        for (const auto& point : points) {
            for (const auto& benchmark : suite) {
                std::vector<veal::CpuSimRequest> cpu;
                std::vector<veal::LaCostRequest> la;
                bool covered = true;
                for (const auto& site : benchmark.transformed.sites) {
                    for (const auto* piece : piecesOf(site)) {
                        cpu.push_back({piece, site.iterations});
                        if (job >= translations.size()) {
                            covered = false;
                            continue;
                        }
                        const auto& tr = translations[job++];
                        if (tr.ok) {
                            la.push_back({&tr.schedule, &*tr.graph, &tr.analysis,
                                          &tr.registers, site.iterations, true});
                            la.push_back({&tr.schedule, &*tr.graph, &tr.analysis,
                                          &tr.registers, site.iterations, false});
                        }
                    }
                    if (!site.fissioned.empty())
                        cpu.push_back({&site.loop, site.iterations});
                }
                program_cpu_lanes += static_cast<std::int64_t>(cpu.size());
                if (!covered)
                    continue;
                std::int64_t start = nowNs();
                g_sink = static_cast<std::int64_t>(
                    sim.simulateCpuBatch(arm11, cpu).size());
                cpu_ns += nowNs() - start;
                cpu_lanes += static_cast<std::int64_t>(cpu.size());
                start = nowNs();
                g_sink = static_cast<std::int64_t>(
                    sim.acceleratorCostBatch(point.la, la).size());
                la_ns += nowNs() - start;
                la_lanes += static_cast<std::int64_t>(la.size());
            }
        }
        const double cpu_per = cpu_lanes == 0 ? 0.0 : static_cast<double>(cpu_ns) / static_cast<double>(cpu_lanes);
        const double la_per = la_lanes == 0 ? 0.0 : static_cast<double>(la_ns) / static_cast<double>(la_lanes);
        setMetric(m, "sim.cpu_price_ns", cpu_per);
        setMetric(m, "sim.cpu_lanes", static_cast<double>(program_cpu_lanes));
        setMetric(m, "sim.la_price_ns", la_per);
        setMetric(m, "sim.la_lanes", static_cast<double>(2 * ok_pieces));
        notes.push_back(passNote("sim.simulateCpuBatch", cpu_per, "ns-per-lane",
                                 static_cast<std::size_t>(cpu_lanes),
                                 program_cpu_lanes));
        notes.push_back(passNote("sim.acceleratorCostBatch", la_per,
                                 "ns-per-lane", static_cast<std::size_t>(la_lanes),
                                 2 * ok_pieces));
    }
    samplePasses(calibrator, 3, passes);
    result.layer_time_scale = kReferencePassNs / median(passes);
}

}  // namespace

RunResult
runDseWorkload(const RunOptions& run)
{
    RunResult result;
    result.spans = SpanRecorder(run.trace);
    SpanRecorder untraced(false);
    const std::int64_t wall_start = nowNs();
    Calibrator calibrator;
    std::vector<double> first_cells;
    std::vector<DesignPoint> first_points;
    std::vector<double> traced_ms;
    std::uint64_t first_digest = 0;

    for (int e = 0;; ++e) {
        if (run.max_epochs > 0 && e >= run.max_epochs)
            break;
        if (e > 0 && run.max_epochs == 0) {
            const bool enough = result.raw_timed_s >= run.seconds &&
                                result.latency_ms.size() >= kMinIntervals;
            const bool overdue =
                static_cast<double>(nowNs() - wall_start) * 1e-9 >
                4 * run.seconds + 60;
            if (enough || overdue)
                break;
        }
        const bool spans_on = run.trace && e % 2 == 0;
        SpanRecorder& spans = spans_on ? result.spans : untraced;

        IntervalLog setup_log(calibrator, 1);
        const int setup_span = spans.begin("setup", e);
        const std::int64_t setup_start = nowNs();
        Grid grid;
        grid.points = dseGridInputs(run.seed);
        grid.runner = std::make_unique<veal::explore::SweepRunner>(
            veal::mediaFpSuite(), 1);
        const std::int64_t setup_ns = nowNs() - setup_start;
        spans.end(setup_span);
        setup_log.add(setup_ns);
        result.raw_setup_s.push_back(setup_log.rawMs()[0] * 1e-3);
        result.setup_s.push_back(setup_log.normalizedMs()[0] * 1e-3);

        // One evaluateCells call (one timed interval) per row of
        // kPointsPerRow design points x the suite.
        const auto& suite = grid.runner->suite();
        const std::size_t apps = suite.size();
        std::vector<double> cells;
        IntervalLog row_log(calibrator, 1);
        for (std::size_t row = 0; row * kPointsPerRow < grid.points.size(); ++row) {
            const std::size_t first = row * kPointsPerRow;
            const std::size_t points =
                std::min(kPointsPerRow, grid.points.size() - first);
            const std::int64_t id = e * 100000 + static_cast<std::int64_t>(row);
            const int row_span = spans.begin("row", id);
            const std::int64_t start = nowNs();
            const auto values = grid.runner->evaluateCells(
                static_cast<int>(points * apps), [&](int i) {
                    const auto index = static_cast<std::size_t>(i);
                    const DesignPoint& point = grid.points[first + index / apps];
                    ScopedSpan span(spans, "cell", id, row_span);
                    return veal::explore::cellSpeedup(suite[index % apps],
                                                      point.la, point.mode);
                });
            const std::int64_t ns = nowNs() - start;
            spans.end(row_span);
            row_log.add(ns);
            result.raw_timed_s += static_cast<double>(ns) * 1e-9;
            cells.insert(cells.end(), values.begin(), values.end());
        }
        const std::vector<double> row_ms = row_log.normalizedMs();
        for (const double ms : row_ms)
            result.timed_s += ms * 1e-3;
        const std::vector<double> raw_ms = row_log.rawMs();
        result.raw_latency_ms.insert(result.raw_latency_ms.end(),
                                     raw_ms.begin(), raw_ms.end());
        for (const double ns : row_log.passesNs())
            result.calibration_us.push_back(ns * 1e-3);
        result.attempted += static_cast<std::int64_t>(cells.size());
        result.completed += static_cast<std::int64_t>(cells.size());
        result.latency_ms.insert(result.latency_ms.end(), row_ms.begin(),
                                 row_ms.end());
        if (run.trace) {
            auto& into = spans_on ? traced_ms : result.untraced_latency_ms;
            into.insert(into.end(), row_ms.begin(), row_ms.end());
        }
        const std::uint64_t digest = digestCells(cells);
        if (e == 0) {
            first_digest = digest;
            first_cells = cells;
            first_points = grid.points;
        } else if (digest != first_digest) {
            result.fail(static_cast<std::int64_t>(cells.size()),
                        "epoch " + std::to_string(e) +
                            " produced different cell speedups than epoch 0");
        }
        ++result.epochs;
    }
    result.peak_rss_mb = peakRssMb();
    result.fingerprint = hex64(first_digest);
    result.own_modeled_speedup = mean(first_cells);

    const auto suite = veal::mediaFpSuite();
    {
        veal::Rng rng(run.seed ^ 0x63656c6cull);
        for (int k = 0; k < kSampledCells && !first_cells.empty(); ++k) {
            const auto cell = rng.nextBelow(first_cells.size());
            checkCell(first_points[cell / suite.size()], suite[cell % suite.size()],
                      first_cells[cell], result);
        }
    }
    result.character.push_back(
        "cells per epoch = " + std::to_string(first_cells.size()) + " (" +
        std::to_string(first_points.size()) + " design points x " +
        std::to_string(suite.size()) + " apps)  ok");
    result.character.push_back(
        "failed share = " + std::to_string(result.failed()) + "/" +
        std::to_string(result.attempted) + " (want 0)" +
        (result.failed() == 0 ? "  ok" : "  NOT MET"));

    if (run.seed == kFingerprintSeed) {
        result.canonical_fingerprint = result.fingerprint;
        result.modeled_speedup = result.own_modeled_speedup;
    } else {
        const auto points = dseGridInputs(kFingerprintSeed);
        std::vector<double> cells;
        for (const auto& point : points)
            for (const auto& benchmark : suite)
                cells.push_back(veal::explore::cellSpeedup(benchmark, point.la,
                                                           point.mode));
        result.canonical_fingerprint = hex64(digestCells(cells));
        result.modeled_speedup = mean(cells);
    }

    if (run.trace) {
        dseLayers(first_points, suite, result);
        setMetric(result.layers, "trace.overhead_pct",
                  result.untraced_latency_ms.empty()
                      ? 0.0
                      : (median(traced_ms) / median(result.untraced_latency_ms) -
                         1.0) * 100.0);
    }
    return result;
}

}  // namespace perfbench
