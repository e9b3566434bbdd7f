#include "veal/support/metrics/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "veal/support/thread_pool.h"

namespace veal::metrics {
namespace {

TEST(MetricsRegistryTest, CountersAccumulateAndDefaultToZero)
{
    Registry registry;
    EXPECT_EQ(registry.counter("absent"), 0);
    registry.add("hits");
    registry.add("hits", 4);
    registry.add("negative", -2);
    EXPECT_EQ(registry.counter("hits"), 5);
    EXPECT_EQ(registry.counter("negative"), -2);
    EXPECT_EQ(registry.counters().size(), 2u);
}

TEST(MetricsHistogramTest, BinsAtBoundsAndOverflow)
{
    // The default bounds: 1, 2, 4, ..., 512, then overflow.
    Registry registry;
    registry.observe("ii", 1.0);     // At the bound: first bucket.
    registry.observe("ii", 1.5);     // Second bucket.
    registry.observe("ii", 512.0);   // Last bucket, at its bound.
    registry.observe("ii", 1000.0);  // Overflow.
    registry.observe("ii", -3.0);    // Below everything: first bucket.
    const Histogram* h = registry.histogram("ii");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->counts,
              (std::vector<std::int64_t>{2, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1}));
    EXPECT_EQ(h->total, 5);
    EXPECT_EQ(registry.histogram("absent"), nullptr);
}

TEST(MetricsHistogramTest, ObserveAutoDeclaresWithDefaultBounds)
{
    Registry registry;
    registry.observe("auto", 3.0);
    const Histogram* h = registry.histogram("auto");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->upper_bounds, Registry::defaultBounds());
    EXPECT_EQ(h->total, 1);
}

TEST(MetricsHistogramTest, MergeAddsBucketwise)
{
    Registry a;
    Registry b;
    a.observe("x", 5.0);
    b.observe("x", 15.0);
    b.observe("x", 600.0);
    a.merge(b);
    const Histogram* h = a.histogram("x");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->counts,
              (std::vector<std::int64_t>{0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1}));
    EXPECT_EQ(h->total, 3);

    // A histogram the target lacks arrives whole.
    Registry c;
    c.merge(b);
    ASSERT_NE(c.histogram("x"), nullptr);
    EXPECT_EQ(c.histogram("x")->counts, b.histogram("x")->counts);
}

TEST(MetricsRegistryTest, TraceIsBoundedAndDropsAreCounted)
{
    Registry registry;
    registry.setTraceLimit(2);
    registry.trace("a", "e", "d", 1);
    registry.trace("b", "e", "d", 2);
    registry.trace("c", "e", "d", 3);
    EXPECT_EQ(registry.traceEvents().size(), 2u);
    EXPECT_EQ(registry.traceDropped(), 1);
}

TEST(MetricsRegistryTest, MergeDeterministicUnderParallelMap)
{
    // The sweep-engine discipline: workers fill private registries, the
    // owner merges in index order.  The merged snapshot must be
    // byte-identical for any pool width.
    std::vector<int> indices(64);
    for (int i = 0; i < 64; ++i)
        indices[static_cast<std::size_t>(i)] = i;

    const auto fill = [](const int& i) {
        Registry registry;
        registry.add("cells");
        registry.add("group." + std::to_string(i % 4), i);
        registry.observe("value", static_cast<double>(i % 7));
        if (i % 8 == 0)
            registry.trace("cell" + std::to_string(i), "mark", "x", i);
        return registry;
    };

    std::string baseline;
    for (const int threads : {1, 2, 8}) {
        ThreadPool pool(threads);
        const std::vector<Registry> cells =
            parallelMap(pool, indices, fill);
        Registry total;
        for (const auto& cell : cells)
            total.merge(cell);
        const std::string snapshot = total.toJson();
        if (baseline.empty()) {
            baseline = snapshot;
            EXPECT_EQ(total.counter("cells"), 64);
        } else {
            EXPECT_EQ(snapshot, baseline) << "threads=" << threads;
        }
    }
}

TEST(MetricsJsonTest, WritesExactBytes)
{
    Registry registry;
    registry.add("plain", 12);
    registry.add("needs \"escaping\"\n\tand\\slashes\r\x01", 1);
    registry.add("negative", -7);
    registry.observe("h", 1.0);
    registry.observe("h", 9.0);
    registry.setTraceLimit(2);
    registry.trace("vm/app/loop", "translate", "ok", 1234);
    registry.trace("vm/app", "cache", "thrash", -1);
    registry.trace("vm/app", "cache", "dropped", 5);

    EXPECT_EQ(registry.toJson(), R"({
  "schema": "veal-metrics-v1",
  "counters": {
    "needs \"escaping\"\n\tand\\slashes\r\u0001": 1,
    "negative": -7,
    "plain": 12
  },
  "gauges": {},
  "histograms": {
    "h": {"bounds": [1, 2, 4, 8, 16, 32, 64, 128, 256, 512], "counts": [1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0], "total": 2}
  },
  "trace_dropped": 1,
  "trace": [
    {"scope": "vm/app/loop", "event": "translate", "detail": "ok", "value": 1234},
    {"scope": "vm/app", "event": "cache", "detail": "thrash", "value": -1}
  ]
}
)");
}

TEST(MetricsJsonTest, EmptyRegistryWritesExactBytes)
{
    EXPECT_EQ(Registry().toJson(), R"({
  "schema": "veal-metrics-v1",
  "counters": {},
  "gauges": {},
  "histograms": {},
  "trace_dropped": 0,
  "trace": []
}
)");
}

TEST(MetricsChargeTest, PhaseCyclesSumExactlyToTotalCharge)
{
    // Awkward fractional weights on purpose: per-phase instruction
    // estimates truncate differently than their sum, so a naive
    // per-phase cast would lose cycles.  chargePhaseCycles must not.
    CostMeter meter;
    meter.charge(TranslationPhase::kLoopAnalysis, 17);
    meter.charge(TranslationPhase::kCcaMapping, 3);
    meter.charge(TranslationPhase::kMiiComputation, 101);
    meter.charge(TranslationPhase::kPriority, 7);
    meter.charge(TranslationPhase::kScheduling, 13);
    meter.charge(TranslationPhase::kRegisterAssignment, 1);

    for (const std::int64_t multiplier : {1, 2, 7, 1000}) {
        Registry registry;
        const std::int64_t charged = chargePhaseCycles(
            registry, "vm.phase_cycles", meter, multiplier);
        const auto expected = static_cast<std::int64_t>(
            meter.totalInstructions() *
            static_cast<double>(multiplier));
        EXPECT_EQ(charged, expected) << "multiplier " << multiplier;
        std::int64_t sum = 0;
        for (int i = 0; i < kNumTranslationPhases; ++i) {
            sum += registry.counter(
                std::string("vm.phase_cycles.") +
                toString(static_cast<TranslationPhase>(i)));
        }
        EXPECT_EQ(sum, expected) << "multiplier " << multiplier;
    }
}

TEST(MetricsChargeTest, MeteredScopeRecordsOnlyTheDelta)
{
    CostMeter meter;
    meter.charge(TranslationPhase::kPriority, 100);
    Registry registry;
    {
        const MeteredScope scope(registry, "translate.app", meter);
        meter.charge(TranslationPhase::kPriority, 7);
        meter.charge(TranslationPhase::kScheduling, 3);
    }
    EXPECT_EQ(registry.counter("translate.app.units.priority"), 7);
    EXPECT_EQ(registry.counter("translate.app.units.scheduling"), 3);
    // Untouched phases stay absent (no zero-noise in snapshots).
    EXPECT_EQ(registry.counter("translate.app.units.mii"), 0);
}

TEST(MetricsChargeTest, RecordCostMeterWritesRawUnits)
{
    CostMeter meter;
    meter.charge(TranslationPhase::kCcaMapping, 11);
    Registry registry;
    recordCostMeter(registry, "translate.app", meter);
    EXPECT_EQ(registry.counter("translate.app.units.cca-mapping"), 11);
}

}  // namespace
}  // namespace veal::metrics
