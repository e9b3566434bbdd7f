#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

/**
 * @file
 * In-memory spans recorded by the benchmark around its own calls into
 * each layer of the program.  Spans of one tick (or one DSE cell) share
 * an id; a span's parent is the index of the span that caused it.
 * Nothing is written until the run ends.
 */

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic nanoseconds (steady_clock). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span {
    const char* name = "";   ///< A string literal: the layer boundary.
    std::int64_t id = 0;     ///< Tick / cell / pass id shared by children.
    int parent = -1;         ///< Index of the causing span, -1 for roots.
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;

    std::int64_t duration() const { return end_ns - start_ns; }
};

/** Collects spans; a disabled recorder records nothing and costs a branch. */
class SpanRecorder {
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span; returns its index (-1 when disabled). */
    int begin(const char* name, std::int64_t id, int parent = -1);

    /** Close span @p index (no-op for -1). */
    void end(int index);

    const std::vector<Span>& spans() const { return spans_; }

    /** One JSON object per span, in recording order. */
    void writeJsonLines(std::ostream& os) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
};

/** RAII span over a scope (no-op when the recorder is disabled). */
class ScopedSpan {
  public:
    ScopedSpan(SpanRecorder& recorder, const char* name, std::int64_t id,
               int parent = -1)
        : recorder_(recorder), index_(recorder.begin(name, id, parent))
    {
    }
    ~ScopedSpan() { recorder_.end(index_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    SpanRecorder& recorder_;
    int index_;
};

/**
 * Self time of every span: its duration minus the part of its interval
 * covered by the union of its children's intervals.
 */
std::vector<std::int64_t> selfTimes(const std::vector<Span>& spans);

/** Per-name totals over a span list. */
struct SpanSummary {
    std::string name;
    std::int64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    double p50_ns = 0.0;
};
std::vector<SpanSummary> summarizeSpans(const std::vector<Span>& spans);

/** Durations (ns) of every span named @p name. */
std::vector<double> durationsOf(const std::vector<Span>& spans,
                                const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
