#include "spans.h"

#include <algorithm>
#include <map>
#include <utility>

#include "stats.h"

namespace perfbench {

int
SpanRecorder::begin(const char* name, std::int64_t id, int parent)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = name;
    span.id = id;
    span.parent = parent;
    span.start_ns = nowNs();
    spans_.push_back(span);
    return static_cast<int>(spans_.size()) - 1;
}

void
SpanRecorder::end(int index)
{
    if (index >= 0)
        spans_[static_cast<std::size_t>(index)].end_ns = nowNs();
}

void
SpanRecorder::writeJsonLines(std::ostream& os) const
{
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        os << "{\"index\":" << i << ",\"name\":\"" << s.name
           << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
           << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
           << "}\n";
    }
}

std::vector<std::int64_t>
selfTimes(const std::vector<Span>& spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const Span& span : spans) {
        if (span.parent >= 0 &&
            static_cast<std::size_t>(span.parent) < spans.size()) {
            kids[static_cast<std::size_t>(span.parent)].emplace_back(
                span.start_ns, span.end_ns);
        }
    }
    std::vector<std::int64_t> self(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& span = spans[i];
        auto& intervals = kids[i];
        std::sort(intervals.begin(), intervals.end());
        // Union of the children, clipped to this span's interval.
        std::int64_t covered = 0;
        std::int64_t run_start = 0;
        std::int64_t run_end = 0;
        bool open = false;
        for (auto [start, end] : intervals) {
            start = std::max(start, span.start_ns);
            end = std::min(end, span.end_ns);
            if (end <= start)
                continue;
            if (open && start <= run_end) {
                run_end = std::max(run_end, end);
                continue;
            }
            if (open)
                covered += run_end - run_start;
            run_start = start;
            run_end = end;
            open = true;
        }
        if (open)
            covered += run_end - run_start;
        self[i] = span.duration() - covered;
    }
    return self;
}

std::vector<SpanSummary>
summarizeSpans(const std::vector<Span>& spans)
{
    const auto self = selfTimes(spans);
    std::map<std::string, SpanSummary> by_name;
    std::map<std::string, std::vector<double>> durations;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        SpanSummary& summary = by_name[spans[i].name];
        summary.name = spans[i].name;
        ++summary.count;
        summary.total_ns += spans[i].duration();
        summary.self_ns += self[i];
        durations[spans[i].name].push_back(
            static_cast<double>(spans[i].duration()));
    }
    std::vector<SpanSummary> out;
    for (auto& [name, summary] : by_name) {
        summary.p50_ns = median(durations[name]);
        out.push_back(summary);
    }
    return out;
}

std::vector<double>
durationsOf(const std::vector<Span>& spans, const std::string& name)
{
    std::vector<double> out;
    for (const Span& span : spans) {
        if (name == span.name)
            out.push_back(static_cast<double>(span.duration()));
    }
    return out;
}

}  // namespace perfbench
