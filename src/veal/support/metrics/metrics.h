#ifndef VEAL_SUPPORT_METRICS_METRICS_H_
#define VEAL_SUPPORT_METRICS_METRICS_H_

/**
 * @file
 * The deterministic observability subsystem (DESIGN.md §10).
 *
 * Every subsystem that makes accounting-relevant decisions -- the
 * translator, the scheduler, the VM's cost model and code cache, the
 * persistent store, the service, the sweep engine, and the fuzzer --
 * reports into a metrics::Registry as the events happen, so that the
 * paper figures, the benches, and the regression tests all read from
 * one instrumented source of truth instead of ad-hoc struct fields.
 *
 * Determinism rules (the same contract as the sweep engine):
 *
 *  - Everything stored in a Registry is a pure function of the work
 *    performed, never of wall-clock time or thread interleaving.  Cycle
 *    *metering* (CostMeter work units, analytic cache misses) goes into
 *    the registry; wall-clock timing goes to stderr only (ScopedWallTimer),
 *    preserving the repo's byte-identical-stdout rule.
 *  - Parallel producers each fill a private Registry; the owner merges
 *    them in index order.  merge() is associative over that order, so a
 *    snapshot is byte-identical for any --threads value.
 *  - toJson() renders a versioned snapshot with sorted keys and
 *    round-trippable numbers.
 */

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "veal/support/cost_meter.h"

namespace veal::metrics {

/** One structured record of a runtime decision (translate/reject/...). */
struct TraceEvent {
    std::string scope;   ///< Where, e.g. "vm/djpeg/dct".
    std::string event;   ///< What, e.g. "translate", "path", "cache".
    std::string detail;  ///< Outcome, e.g. "ok", "schedule-failed", "la".
    std::int64_t value = 0;  ///< Event-specific magnitude (cycles, count).
};

/** Fixed-bound histogram: counts[i] holds values <= upper_bounds[i]. */
struct Histogram {
    std::vector<double> upper_bounds;   ///< Ascending; overflow implicit.
    std::vector<std::int64_t> counts;   ///< upper_bounds.size() + 1 cells.
    std::int64_t total = 0;             ///< Sum of all counts.

    void observe(double value);

    /** Add @p other's counts; bucket bounds must be identical. */
    void merge(const Histogram& other);
};

/**
 * A registry of named counters (int64), histograms on one bucket set
 * (defaultBounds()), and a bounded decision trace.
 *
 * Thread-safety: none -- confine a Registry to one thread and merge
 * per-worker registries in index order (see parallelMap usage in
 * explore::SweepRunner::evaluateCellsMetered).
 */
class Registry {
  public:
    static constexpr const char* kSchemaVersion = "veal-metrics-v1";

    // --- Counters (monotonic int64 sums).
    void add(const std::string& name, std::int64_t delta = 1);
    /** Current value; 0 when the counter was never touched. */
    std::int64_t counter(const std::string& name) const;

    // --- Histograms.
    /** Observe into @p name, creating it on defaultBounds(). */
    void observe(const std::string& name, double value);
    /** Lookup; nullptr when absent. */
    const Histogram* histogram(const std::string& name) const;
    /** The bucket bounds of every histogram. */
    static const std::vector<double>& defaultBounds();

    // --- Decision trace (bounded; drops are counted, never silent).
    void trace(std::string scope, std::string event, std::string detail,
               std::int64_t value = 0);
    /** Maximum retained events (default 1024); excess increments traceDropped. */
    void setTraceLimit(int limit);
    const std::vector<TraceEvent>& traceEvents() const { return trace_; }
    std::int64_t traceDropped() const { return trace_dropped_; }

    // --- Aggregation.
    /** Fold @p other into this registry (sums, bucket adds, trace append). */
    void merge(const Registry& other);

    // --- Enumeration (sorted by name; the JSON emission order).
    const std::map<std::string, std::int64_t>& counters() const
    { return counters_; }
    const std::map<std::string, Histogram>& histograms() const
    { return histograms_; }

    /** Versioned, sorted-key JSON snapshot. */
    std::string toJson() const;

  private:
    void appendTrace(TraceEvent event);

    std::map<std::string, std::int64_t> counters_;
    std::map<std::string, Histogram> histograms_;
    std::vector<TraceEvent> trace_;
    std::int64_t trace_dropped_ = 0;
    int trace_limit_ = 1024;
};

/** Write registry.toJson() to @p path; false on I/O failure. */
bool writeSnapshot(const Registry& registry, const std::string& path);

/**
 * Record every phase of @p meter as counters "<prefix>.units.<phase>".
 * Units are raw int64 work, so snapshots stay float-free and exact.
 */
void recordCostMeter(Registry& registry, const std::string& prefix,
                     const CostMeter& meter);

/**
 * Split the VM's integer translation charge
 * static_cast<int64>(meter.totalInstructions() * multiplier) across
 * phases as counters "<prefix>.<phase>" such that the parts sum
 * *exactly* to the whole (cumulative truncation replays the meter's own
 * summation order).  Returns the total charged.
 */
std::int64_t chargePhaseCycles(Registry& registry,
                               const std::string& prefix,
                               const CostMeter& meter,
                               std::int64_t multiplier);

/**
 * Scoped cycle-metered phase timer: on destruction, records the work
 * units each translation phase of @p meter gained while the scope was
 * alive, as counters "<prefix>.units.<phase>".  Deterministic -- it reads
 * the meter, never a clock.
 */
class MeteredScope {
  public:
    MeteredScope(Registry& registry, std::string prefix,
                 const CostMeter& meter);
    ~MeteredScope();

    MeteredScope(const MeteredScope&) = delete;
    MeteredScope& operator=(const MeteredScope&) = delete;

  private:
    Registry& registry_;
    std::string prefix_;
    const CostMeter& meter_;
    std::array<std::uint64_t, kNumTranslationPhases> start_units_;
};

/**
 * Scoped wall-clock timer: prints "timing: <label> <seconds>s" to stderr
 * on destruction.  Wall time never enters a Registry (it would break the
 * byte-identical snapshot rule), so this is the only sanctioned way to
 * time a phase in real seconds.
 */
class ScopedWallTimer {
  public:
    explicit ScopedWallTimer(std::string label);
    ~ScopedWallTimer();

    ScopedWallTimer(const ScopedWallTimer&) = delete;
    ScopedWallTimer& operator=(const ScopedWallTimer&) = delete;

  private:
    std::string label_;
    std::chrono::steady_clock::time_point start_;
};

}  // namespace veal::metrics

#endif  // VEAL_SUPPORT_METRICS_METRICS_H_
