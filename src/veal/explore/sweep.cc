#include "veal/explore/sweep.h"

#include <chrono>
#include <ctime>
#include <utility>

#include "veal/arch/cpu_config.h"
#include "veal/support/assert.h"

namespace veal::explore {

namespace {

/**
 * CPU seconds consumed by the calling thread.  Preferred over wall time
 * for per-cell accounting: on an oversubscribed machine a cell's wall
 * time includes preemption waits, which would inflate cell_seconds and
 * fake a parallel speedup that is not there.  Falls back to wall time
 * where the POSIX thread clock is unavailable.
 */
double
threadCpuSeconds()
{
#if defined(CLOCK_THREAD_CPUTIME_ID)
    timespec ts;
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
        return static_cast<double>(ts.tv_sec) +
               static_cast<double>(ts.tv_nsec) * 1e-9;
    }
#endif
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

}  // namespace

void
SweepStats::add(const SweepStats& other)
{
    cells += other.cells;
    threads = other.threads;
    wall_seconds += other.wall_seconds;
    cell_seconds += other.cell_seconds;
}

SweepRunner::SweepRunner(std::vector<Benchmark> suite, int threads)
    : suite_(std::move(suite)),
      pool_(std::make_unique<ThreadPool>(threads))
{
    VEAL_ASSERT(!suite_.empty(), "sweep needs a non-empty suite");
}

std::vector<double>
SweepRunner::evaluateCells(int num_cells,
                           const std::function<double(int)>& cell) const
{
    return evaluateCellsMetered(
        num_cells,
        [&cell](int i, metrics::Registry&) { return cell(i); });
}

std::vector<double>
SweepRunner::evaluateCellsMetered(
    int num_cells,
    const std::function<double(int, metrics::Registry&)>& cell) const
{
    using Clock = std::chrono::steady_clock;
    std::vector<double> values(
        static_cast<std::size_t>(std::max(num_cells, 0)));
    std::vector<double> cell_seconds(values.size(), 0.0);
    // One private registry per cell: workers never share one, and the
    // index-ordered merge below is what keeps snapshots --threads-proof.
    std::vector<metrics::Registry> cell_metrics(values.size());

    const auto sweep_start = Clock::now();
    pool_->run(num_cells, [&](int i) {
        const auto index = static_cast<std::size_t>(i);
        const double start = threadCpuSeconds();
        values[index] = cell(i, cell_metrics[index]);
        cell_seconds[index] = threadCpuSeconds() - start;
    });

    metrics_.add("sweep.batches");
    metrics_.add("sweep.cells", std::max(num_cells, 0));
    for (const auto& registry : cell_metrics)
        metrics_.merge(registry);

    last_stats_ = SweepStats{};
    last_stats_.cells = num_cells;
    last_stats_.threads = threads();
    last_stats_.wall_seconds =
        std::chrono::duration<double>(Clock::now() - sweep_start).count();
    for (const double seconds : cell_seconds)
        last_stats_.cell_seconds += seconds;
    total_stats_.add(last_stats_);
    return values;
}

std::vector<double>
SweepRunner::sweepMean(
    const std::vector<LaConfig>& configs,
    const std::function<double(const Benchmark&, const LaConfig&)>& cell)
    const
{
    const int num_benchmarks = static_cast<int>(suite_.size());
    const int num_cells =
        static_cast<int>(configs.size()) * num_benchmarks;
    const std::vector<double> cells =
        evaluateCells(num_cells, [&](int i) {
            const auto& config =
                configs[static_cast<std::size_t>(i / num_benchmarks)];
            const auto& benchmark =
                suite_[static_cast<std::size_t>(i % num_benchmarks)];
            return cell(benchmark, config);
        });

    // Reduce each config's column in benchmark order: the identical
    // summation order to the serial loops this engine replaced.
    std::vector<double> means(configs.size(), 0.0);
    for (std::size_t c = 0; c < configs.size(); ++c) {
        double sum = 0.0;
        for (int b = 0; b < num_benchmarks; ++b) {
            sum += cells[c * static_cast<std::size_t>(num_benchmarks) +
                         static_cast<std::size_t>(b)];
        }
        means[c] = sum / static_cast<double>(num_benchmarks);
    }
    return means;
}

std::vector<double>
SweepRunner::meanSpeedup(const std::vector<LaConfig>& configs,
                         TranslationMode mode,
                         const VmOptions* extra_options) const
{
    return sweepMean(configs,
                     [mode, extra_options](const Benchmark& benchmark,
                                           const LaConfig& la) {
                         return cellSpeedup(benchmark, la, mode,
                                            extra_options);
                     });
}

std::vector<double>
SweepRunner::fractionOfInfinite(const std::vector<LaConfig>& configs) const
{
    // Two cells per (config, benchmark): the finite and the infinite
    // speedup.  Splitting them doubles the available parallelism, which
    // matters for single-config sweeps like bench_design_point.
    const int num_benchmarks = static_cast<int>(suite_.size());
    const int cells_per_config = 2 * num_benchmarks;
    const int num_cells =
        static_cast<int>(configs.size()) * cells_per_config;
    const std::vector<double> cells =
        evaluateCells(num_cells, [&](int i) {
            const auto& config =
                configs[static_cast<std::size_t>(i / cells_per_config)];
            const int within = i % cells_per_config;
            const auto& benchmark =
                suite_[static_cast<std::size_t>(within / 2)];
            const bool infinite = (within % 2) != 0;
            return cellSpeedup(benchmark,
                               infinite ? infiniteLike(config) : config,
                               TranslationMode::kStatic);
        });

    std::vector<double> fractions(configs.size(), 0.0);
    for (std::size_t c = 0; c < configs.size(); ++c) {
        const std::size_t base = c * static_cast<std::size_t>(
                                         cells_per_config);
        double sum = 0.0;
        for (int b = 0; b < num_benchmarks; ++b) {
            const double finite =
                cells[base + 2 * static_cast<std::size_t>(b)];
            const double unlimited =
                cells[base + 2 * static_cast<std::size_t>(b) + 1];
            sum += unlimited > 0.0 ? finite / unlimited : 1.0;
        }
        fractions[c] = sum / static_cast<double>(num_benchmarks);
    }
    return fractions;
}

double
cellSpeedup(const Benchmark& benchmark, const LaConfig& la,
            TranslationMode mode, const VmOptions* extra_options)
{
    return cellSpeedup(benchmark, la, mode, extra_options, nullptr);
}

double
cellSpeedup(const Benchmark& benchmark, const LaConfig& la,
            TranslationMode mode, const VmOptions* extra_options,
            metrics::Registry* registry)
{
    VmOptions options;
    if (extra_options != nullptr)
        options = *extra_options;
    options.mode = mode;
    const VirtualMachine vm(la, CpuConfig::arm11(), options);
    return vm.run(benchmark.transformed, registry).speedup;
}

LaConfig
infiniteLike(const LaConfig& la)
{
    return la.hasCca() ? LaConfig::infiniteWithCca() : LaConfig::infinite();
}

}  // namespace veal::explore
