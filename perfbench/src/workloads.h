#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

/**
 * @file
 * The four workloads and what one run of each produces.
 *
 * A run is a sequence of epochs.  An epoch builds a fresh program
 * instance (set-up), replays the workload's whole generated input
 * (timed), renders and checks the result, and tears the instance down.
 * Every epoch of a run replays the same input, so every epoch must
 * render the same report; epochs repeat until --seconds of timed work
 * have accumulated.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

/** Seed whose modeled outputs are recorded in fingerprints.json. */
inline constexpr std::uint64_t kFingerprintSeed = 1;

/** Intervals (ticks, DSE rows) a run measures at least, so that
    ten of them lie beyond the p95. */
inline constexpr std::size_t kMinIntervals = 220;

struct RunOptions {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    /** Scratch directory for stores and the span file. */
    std::string work_dir;

    /** warm-restart: fixture store for `seed` and for kFingerprintSeed. */
    std::string fixture_dir;
    std::string canonical_fixture_dir;

    /** Admission overrides (self-tests only; 0 keeps the tick size). */
    int queue_depth = 0;
    int tenant_quota = 0;

    /** Stop after this many epochs (self-tests only; 0 = by time). */
    int max_epochs = 0;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunResult {
    // --- End to end (timed phase of every epoch).  Times are normalized
    // to the reference machine speed (calibration.h); raw_* are as read.
    std::int64_t attempted = 0;  ///< Requests submitted / cells run.
    std::int64_t rejected = 0;   ///< Refused at admission.
    std::int64_t completed = 0;  ///< Admitted requests / cells.
    double timed_s = 0.0;
    double raw_timed_s = 0.0;
    std::vector<double> latency_ms;  ///< Per tick / per design point.
    std::vector<double> raw_latency_ms;
    std::vector<double> setup_s;     ///< Per epoch.
    std::vector<double> raw_setup_s;
    std::vector<double> calibration_us;  ///< Every calibration pass.
    double peak_rss_mb = 0.0;
    /** Modeled speedup at kFingerprintSeed (the gated metric) and at
        this run's seed (printed). */
    double modeled_speedup = 0.0;
    double own_modeled_speedup = 0.0;
    int epochs = 0;

    // --- Output checks.
    std::vector<std::string> failures;
    std::int64_t failed_checks = 0;  ///< Operations failing a check.
    std::int64_t checked = 0;        ///< Operations checked.
    std::vector<std::string> character;
    std::string fingerprint;            ///< This run's seed.
    std::string canonical_fingerprint;  ///< kFingerprintSeed.

    // --- Traced run only.  Layer times are raw host times; main scales
    // them to the reference speed by layer_time_scale.
    std::vector<Metric> layers;
    double layer_time_scale = 1.0;
    std::vector<std::string> layer_notes;
    std::vector<double> untraced_latency_ms;
    SpanRecorder spans{false};

    void
    fail(std::int64_t operations, const std::string& what)
    {
        failed_checks += operations;
        if (failures.size() < 20)
            failures.push_back(what);
    }

    std::int64_t failed() const { return rejected + failed_checks; }
};

RunResult runServiceWorkload(const RunOptions& options);
RunResult runDseWorkload(const RunOptions& options);

/** Write the warm-restart fixture store for @p seed into @p dir. */
bool makeFixture(std::uint64_t seed, const std::string& dir);

/** VmHWM of this process in MB (0 when /proc is unavailable). */
double peakRssMb();

/** FNV-1a 64 of @p text and its fixed-width hex form. */
std::uint64_t fnv1a(const std::string& text);
std::string hex64(std::uint64_t value);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
