// The three service workloads: warm-reuse, cold-churn, warm-restart.
//
// Each epoch drives a fresh veal::TranslationService tick by tick
// through submit()/drainTick(), exactly as TranslationService::run()
// does (loops memoized per seed on the client side), in a closed loop:
// tick k+1 is submitted only after tick k drained.

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <unordered_map>

#include "calibration.h"
#include "inputs.h"
#include "layers.h"
#include "stats.h"
#include "veal/sched/schedule.h"
#include "veal/service/service.h"
#include "veal/sim/batch.h"
#include "veal/sim/reference.h"
#include "veal/support/metrics/metrics.h"
#include "veal/support/rng.h"
#include "veal/vm/control_image.h"
#include "veal/vm/persist/blob.h"
#include "veal/vm/persist/store.h"
#include "workloads.h"

namespace fs = std::filesystem;

namespace perfbench {

using veal::CacheOutcome;
using veal::Loop;
using veal::RequestOutcome;
using veal::ServiceReport;
using veal::ServiceTrace;
using veal::TraceRequest;
using veal::TranslationMode;

namespace {

/** Outcomes checked against the frozen oracles per run. */
constexpr int kSamples = 48;

/** cold-churn: ticks replayed again at 1 shard, 1 thread. */
constexpr int kPrefixTicks = 8;

/** Cap on inputs per standalone layer pass. */
constexpr std::size_t kPassCap = 4096;

/** Cap on keys in the standalone translator pass (covers a whole epoch). */
constexpr std::size_t kTranslateCap = 16384;

/** Keeps the results of timed pure calls observable. */
volatile std::int64_t g_sink = 0;

struct Shape {
    int shards = 1;
    int threads = 1;
    bool store = false;
    int store_entries = veal::persist::StoreOptions{}.max_entries;
    bool warmup = false;          ///< warm-reuse: untimed warm-up pass.
    bool summary_backed = false;  ///< warm-restart: serves price from summaries.
};

Shape
shapeOf(const std::string& workload)
{
    Shape shape;
    if (workload == "cold-churn") {
        shape.shards = 2;
        shape.threads = 2;
        shape.store = true;
    } else if (workload == "warm-restart") {
        shape.store = true;
        shape.store_entries = 8 * kWarmRestartLoops;  // >= 4 modes x loops
        shape.summary_backed = true;
    } else {
        shape.warmup = true;
    }
    return shape;
}

veal::ServiceOptions
serviceOptions(const Shape& shape, const RunOptions& run,
               const std::string& cache_dir)
{
    veal::ServiceOptions options;
    options.shards = shape.shards;
    options.threads = shape.threads;
    options.queue_depth = run.queue_depth > 0 ? run.queue_depth : kTickSize;
    options.tenant_quota =
        run.tenant_quota > 0 ? run.tenant_quota : kTickSize;
    if (shape.store) {
        options.cache_dir = cache_dir;
        options.store.max_entries = shape.store_entries;
    }
    return options;
}

/** The client half of TranslationService::run(). */
class Client {
  public:
    Client(veal::TranslationService& service, SpanRecorder& spans)
        : service_(service), spans_(spans)
    {
    }

    /** Submit and drain one tick; host ns from first submit to drain. */
    std::int64_t
    replayTick(const std::vector<TraceRequest>& tick, std::int64_t id,
               const char* name)
    {
        const int tick_span = spans_.begin(name, id);
        const std::int64_t start = nowNs();
        for (const TraceRequest& request : tick) {
            auto it = loops_.find(request.loop_seed);
            if (it == loops_.end()) {
                ScopedSpan span(spans_, "make_loop", id, tick_span);
                it = loops_
                         .emplace(request.loop_seed,
                                  veal::makeTraceLoop(request.loop_seed))
                         .first;
            }
            veal::ServiceRequest submission;
            submission.tenant = request.tenant;
            submission.loop = it->second;
            submission.key = veal::traceRequestKey(request);
            submission.mode = request.mode;
            submission.iterations = request.iterations;
            ScopedSpan span(spans_, "submit", id, tick_span);
            service_.submit(std::move(submission));
        }
        {
            ScopedSpan span(spans_, "drain", id, tick_span);
            service_.drainTick();
        }
        const std::int64_t elapsed = nowNs() - start;
        spans_.end(tick_span);
        return elapsed;
    }

  private:
    veal::TranslationService& service_;
    SpanRecorder& spans_;
    std::unordered_map<std::uint64_t, Loop> loops_;
};

struct Sample {
    TraceRequest request;
    RequestOutcome outcome;
};

/** What one epoch measured and what the layer passes need from it. */
struct Epoch {
    ServiceInputs inputs;
    double setup_s = 0.0;      ///< Normalized (calibration.h).
    double raw_setup_s = 0.0;
    std::vector<double> tick_ms;  ///< Normalized.
    std::vector<double> raw_tick_ms;
    std::vector<double> calibration_us;
    ServiceReport before;  ///< Report when the timed phase began.
    ServiceReport after;
    std::int64_t base_cycles = 0;
    std::int64_t served_cycles = 0;
    std::string report_text;
    std::string prefix_report;
    std::vector<Sample> samples;

    // Layer inputs (collected in the first epoch of a traced run).
    std::vector<TraceRequest> translated;  ///< Fresh translations.
    std::vector<std::vector<TraceRequest>> admitted_ticks;
    std::vector<std::vector<TraceRequest>> fresh_ok_ticks;
    std::vector<std::vector<TraceRequest>> reused_ok_ticks;
    veal::persist::StoreStats store;
    std::int64_t warm_entries = 0;
    veal::CodeCache::Stats shard_cache;
    std::int64_t registry_counters = 0;
};

bool
isFresh(CacheOutcome cache)
{
    return cache == CacheOutcome::kCold ||
           cache == CacheOutcome::kInvalidated;
}

Epoch
runEpoch(const RunOptions& run, std::uint64_t seed,
         const std::string& fixture, const std::string& store_dir,
         std::int64_t epoch_id, SpanRecorder& spans, Calibrator& calibrator,
         const std::set<std::int64_t>& sample_at, bool collect,
         bool prefix)
{
    const Shape shape = shapeOf(run.workload);
    Epoch epoch;
    if (shape.store) {
        fs::remove_all(store_dir);
        if (!fixture.empty())
            fs::copy(fixture, store_dir, fs::copy_options::recursive);
    }

    // Set-up runs on one thread; ticks keep shape.threads cores busy.
    IntervalLog setup_log(calibrator, 1);
    const int setup_span = spans.begin("setup", epoch_id);
    const std::int64_t setup_start = nowNs();
    epoch.inputs = serviceInputs(run.workload, seed);
    auto registry = std::make_unique<veal::metrics::Registry>();
    auto service = std::make_unique<veal::TranslationService>(
        serviceOptions(shape, run, store_dir), registry.get());
    Client client(*service, spans);
    if (shape.warmup) {
        for (std::size_t t = 0; t < epoch.inputs.prepare.ticks.size(); ++t)
            client.replayTick(epoch.inputs.prepare.ticks[t],
                              static_cast<std::int64_t>(t), "warmup_tick");
    }
    const std::int64_t setup_ns = nowNs() - setup_start;
    spans.end(setup_span);
    setup_log.add(setup_ns);
    epoch.raw_setup_s = setup_log.rawMs()[0] * 1e-3;
    epoch.setup_s = setup_log.normalizedMs()[0] * 1e-3;

    if (collect && shape.warmup)
        epoch.translated = distinctKeys(epoch.inputs.prepare);
    epoch.before = service->report();
    const auto& ticks = epoch.inputs.timed.ticks;
    IntervalLog tick_log(calibrator, shape.threads);
    for (std::size_t t = 0; t < ticks.size(); ++t) {
        const std::int64_t id = epoch_id * 100000 + static_cast<std::int64_t>(t);
        tick_log.add(client.replayTick(ticks[t], id, "tick"));

        // Bookkeeping between ticks is outside every timed interval.
        const auto& outcomes = service->lastTickOutcomes();
        if (collect) {
            epoch.admitted_ticks.emplace_back();
            epoch.fresh_ok_ticks.emplace_back();
            epoch.reused_ok_ticks.emplace_back();
        }
        for (std::size_t j = 0; j < outcomes.size() && j < ticks[t].size();
             ++j) {
            const RequestOutcome& out = outcomes[j];
            if (out.admission != veal::AdmissionOutcome::kAdmitted)
                continue;
            epoch.base_cycles += out.cpu_cycles;
            epoch.served_cycles +=
                out.translation_cycles +
                (out.la_wins ? out.la_warm_cycles : out.cpu_cycles);
            const auto position =
                static_cast<std::int64_t>(t) * kTickSize +
                static_cast<std::int64_t>(j);
            if (sample_at.count(position) != 0)
                epoch.samples.push_back(Sample{ticks[t][j], out});
            if (!collect)
                continue;
            epoch.admitted_ticks.back().push_back(ticks[t][j]);
            if (isFresh(out.cache))
                epoch.translated.push_back(ticks[t][j]);
            if (out.translated_ok && isFresh(out.cache))
                epoch.fresh_ok_ticks.back().push_back(ticks[t][j]);
            else if (out.translated_ok)
                epoch.reused_ok_ticks.back().push_back(ticks[t][j]);
        }
        if (prefix && static_cast<int>(t) + 1 == kPrefixTicks)
            epoch.prefix_report = service->report().render();
    }
    epoch.after = service->report();
    epoch.tick_ms = tick_log.normalizedMs();
    epoch.raw_tick_ms = tick_log.rawMs();
    for (const double ns : tick_log.passesNs())
        epoch.calibration_us.push_back(ns * 1e-3);
    {
        ScopedSpan span(spans, "render", epoch_id);
        epoch.report_text = epoch.after.render();
    }
    if (shape.store) {
        ScopedSpan span(spans, "flush", epoch_id);
        service->flushPersistentStore();
    }
    if (const auto* store = service->persistentStore())
        epoch.store = store->stats();
    epoch.warm_entries = service->warmTier().size();
    for (int s = 0; s < shape.shards; ++s) {
        const auto stats = service->shardCacheStats(s);
        epoch.shard_cache.hits += stats.hits;
        epoch.shard_cache.misses += stats.misses;
    }
    epoch.registry_counters =
        static_cast<std::int64_t>(registry->counters().size());
    service.reset();
    return epoch;
}

double
modeledSpeedup(const Epoch& epoch)
{
    return epoch.served_cycles == 0
               ? 0.0
               : static_cast<double>(epoch.base_cycles) /
                     static_cast<double>(epoch.served_cycles);
}

/** submitted = admitted + rejected; the cache taxonomy sums to admitted. */
void
checkIdentities(const ServiceReport& report, RunResult& result)
{
    const auto taxonomy = [](const auto& r) {
        return r.cold + r.warm + r.coalesced + r.invalidated +
               r.quarantined + r.persisted;
    };
    ++result.checked;
    if (report.submitted !=
        report.admitted + report.rejected_queue + report.rejected_quota)
        result.fail(1, "submitted != admitted + rejected");
    if (taxonomy(report) != report.admitted)
        result.fail(1, "cache taxonomy does not sum to admitted");
    if (report.path_la + report.path_cpu != report.admitted)
        result.fail(1, "path la + cpu != admitted");
    for (const auto& [tenant, stats] : report.tenants) {
        if (stats.submitted !=
                stats.admitted + stats.rejected_queue + stats.rejected_quota ||
            taxonomy(stats) != stats.admitted) {
            result.fail(1, "tenant " + std::to_string(tenant) +
                               " accounting does not add up");
        }
    }
}

/** Sampled outcomes against reference::simulateLoopOnCpu,
    reference::acceleratorLoopCost and validateSchedule. */
void
checkSamples(const std::vector<Sample>& samples, RunResult& result)
{
    const veal::LaConfig la = veal::ServiceOptions{}.la;
    const veal::CpuConfig cpu = veal::ServiceOptions{}.cpu;
    for (const Sample& sample : samples) {
        ++result.checked;
        const TraceRequest& request = sample.request;
        const RequestOutcome& out = sample.outcome;
        const std::string key = veal::traceRequestKey(request);
        const Loop loop = veal::makeTraceLoop(request.loop_seed);
        const auto cpu_ref = veal::reference::simulateLoopOnCpu(
            loop, cpu, request.iterations);
        if (out.cpu_cycles != cpu_ref.total_cycles) {
            result.fail(1, key + ": cpu_cycles differs from the reference");
            continue;
        }
        veal::StaticAnnotations annotations;
        const veal::StaticAnnotations* annotations_ptr = nullptr;
        if (request.mode == TranslationMode::kHybridStaticCcaPriority) {
            annotations = veal::precompileAnnotations(loop, la);
            annotations_ptr = &annotations;
        }
        const auto ladder = veal::climbTranslationLadder(
            loop, la, request.mode, annotations_ptr, nullptr);
        const auto& tr = ladder.translation;
        if (tr.ok != out.translated_ok) {
            result.fail(1, key + ": translation verdict differs");
            continue;
        }
        std::int64_t charged = 0;
        for (const auto& attempt : ladder.failed_attempts) {
            if (attempt.mode != TranslationMode::kStatic)
                charged += static_cast<std::int64_t>(
                    attempt.meter.totalInstructions());
        }
        if (tr.mode != TranslationMode::kStatic)
            charged += static_cast<std::int64_t>(tr.meter.totalInstructions());
        const bool fresh = isFresh(out.cache);
        if (out.translation_cycles != (fresh ? charged : 0)) {
            result.fail(1, key + ": translation cycles differ");
            continue;
        }
        if (!tr.ok) {
            if (out.la_warm_cycles != 0 || out.la_wins)
                result.fail(1, key + ": rejected loop was priced on the LA");
            continue;
        }
        if (veal::validateSchedule(*tr.graph, la, tr.schedule).has_value() ||
            tr.schedule.ii != out.ii) {
            result.fail(1, key + ": schedule invalid or II differs");
            continue;
        }
        const auto price = [&](bool first) {
            return veal::reference::acceleratorLoopCost(
                       tr.schedule, *tr.graph, tr.analysis, tr.registers, la,
                       request.iterations, first)
                .total();
        };
        if (out.la_warm_cycles != price(false) ||
            out.la_first_cycles != (fresh ? price(true) : 0) ||
            out.la_wins != (out.la_warm_cycles < out.cpu_cycles)) {
            result.fail(1, key + ": LA price differs from the reference");
        }
    }
}

/** Time @p call over blocks of @p block calls; ns per call. */
template <typename Call>
double
nsPerCall(SpanRecorder& spans, const char* pass, std::size_t n,
          std::size_t block, Call&& call)
{
    if (n == 0)
        return 0.0;
    std::int64_t total = 0;
    ScopedSpan span(spans, pass, 0);
    for (std::size_t begin = 0; begin < n; begin += block) {
        const std::size_t end = std::min(n, begin + block);
        const std::int64_t start = nowNs();
        for (std::size_t i = begin; i < end; ++i)
            call(i);
        total += nowNs() - start;
    }
    return static_cast<double>(total) / static_cast<double>(n);
}

double
medianOf(const std::vector<double>& values, double scale)
{
    return values.empty() ? 0.0 : median(values) * scale;
}

/** The traced run's standalone passes over the first epoch's inputs. */
void
serviceLayers(const RunOptions& run, const Epoch& epoch,
              const std::string& kept_store, RunResult& result)
{
    Calibrator calibrator;
    std::vector<double> passes;
    samplePasses(calibrator, 3, passes);
    const Shape shape = shapeOf(run.workload);
    const veal::ServiceOptions defaults;
    const veal::LaConfig& la = defaults.la;
    const auto batch = static_cast<std::size_t>(defaults.batch);
    SpanRecorder& spans = result.spans;
    auto& m = result.layers;
    auto& notes = result.layer_notes;

    // trace: loop materialization, once per distinct seed (as the client).
    std::vector<std::uint64_t> seeds;
    {
        std::set<std::uint64_t> seen;
        for (const auto* trace : {&epoch.inputs.prepare, &epoch.inputs.timed})
            for (const auto& tick : trace->ticks)
                for (const auto& request : tick)
                    if (seen.insert(request.loop_seed).second)
                        seeds.push_back(request.loop_seed);
    }
    std::unordered_map<std::uint64_t, Loop> loops;
    const std::size_t made = std::min(seeds.size(), kPassCap);
    const auto make_ns = timeEach(spans, "pass.make_loop", made, [&](std::size_t i) {
        loops.emplace(seeds[i], veal::makeTraceLoop(seeds[i]));
    });
    setMetric(m, "trace.make_loop_us", medianOf(make_ns, 1e-3));
    notes.push_back(passNote("trace.make_loop", medianOf(make_ns, 1e-3), "us",
                             made, static_cast<std::int64_t>(seeds.size())));
    const auto loopOf = [&](std::uint64_t seed) -> const Loop& {
        auto it = loops.find(seed);
        if (it == loops.end())
            it = loops.emplace(seed, veal::makeTraceLoop(seed)).first;
        return it->second;
    };

    // vm.translator: the ladder on every key the service translated.
    const std::size_t n_translate = std::min(epoch.translated.size(), kTranslateCap);
    std::vector<veal::LadderOutcome> ladders(n_translate);
    std::map<std::string, std::size_t> ladder_of;
    for (std::size_t i = 0; i < n_translate; ++i)
        (void)loopOf(epoch.translated[i].loop_seed);
    const auto ladder_ns = timeEach(spans, "pass.translator", n_translate, [&](std::size_t i) {
        const TraceRequest& request = epoch.translated[i];
        const Loop& loop = loopOf(request.loop_seed);
        veal::StaticAnnotations annotations;
        const veal::StaticAnnotations* annotations_ptr = nullptr;
        if (request.mode == TranslationMode::kHybridStaticCcaPriority) {
            annotations = veal::precompileAnnotations(loop, la);
            annotations_ptr = &annotations;
        }
        ladders[i] = veal::climbTranslationLadder(loop, la, request.mode,
                                                  annotations_ptr, nullptr);
    });
    std::int64_t retries = 0;
    std::int64_t ok = 0;
    std::array<std::uint64_t, veal::kNumTranslationPhases> units{};
    for (std::size_t i = 0; i < n_translate; ++i) {
        ladder_of[veal::traceRequestKey(epoch.translated[i])] = i;
        retries += static_cast<std::int64_t>(ladders[i].failed_attempts.size());
        ok += ladders[i].translation.ok ? 1 : 0;
        const auto count = [&](const veal::TranslationResult& attempt) {
            for (int p = 0; p < veal::kNumTranslationPhases; ++p)
                units[static_cast<std::size_t>(p)] +=
                    attempt.meter.units(static_cast<veal::TranslationPhase>(p));
        };
        for (const auto& attempt : ladders[i].failed_attempts)
            count(attempt);
        count(ladders[i].translation);
    }
    setMetric(m, "vm.translator.ladder_us", medianOf(ladder_ns, 1e-3));
    setMetric(m, "vm.translator.translations",
              static_cast<double>(epoch.translated.size()));
    setMetric(m, "vm.translator.retries", static_cast<double>(retries));
    setMetric(m, "vm.translator.ok_ratio",
              n_translate == 0 ? 0.0
                               : static_cast<double>(ok) /
                                     static_cast<double>(
                                         static_cast<std::int64_t>(n_translate) +
                                         retries));
    for (int p = 0; p < veal::kNumTranslationPhases; ++p) {
        setMetric(m,
                  std::string("vm.translator.units.") +
                      veal::toString(static_cast<veal::TranslationPhase>(p)),
                  static_cast<double>(units[static_cast<std::size_t>(p)]));
    }
    notes.push_back(passNote("vm.translator.ladder", medianOf(ladder_ns, 1e-3),
                             "us", n_translate,
                             static_cast<std::int64_t>(epoch.translated.size())));

    // sim.cpu: simulateCpuBatch per shard slice in --batch blocks.
    {
        veal::BatchSimulator sim;
        std::int64_t lanes_total = 0;
        std::int64_t ns_total = 0;
        std::int64_t program_lanes = 0;
        ScopedSpan span(spans, "pass.cpu_price", 0);
        for (const auto& tick : epoch.admitted_ticks) {
            program_lanes += static_cast<std::int64_t>(tick.size());
            if (lanes_total >= static_cast<std::int64_t>(8 * kPassCap))
                continue;
            for (int shard = 0; shard < shape.shards; ++shard) {
                std::vector<veal::CpuSimRequest> lanes;
                for (std::size_t i = static_cast<std::size_t>(shard);
                     i < tick.size(); i += static_cast<std::size_t>(shape.shards))
                    lanes.push_back({&loopOf(tick[i].loop_seed), tick[i].iterations});
                for (std::size_t begin = 0; begin < lanes.size(); begin += batch) {
                    const std::vector<veal::CpuSimRequest> block(
                        lanes.begin() + static_cast<std::ptrdiff_t>(begin),
                        lanes.begin() + static_cast<std::ptrdiff_t>(
                                            std::min(lanes.size(), begin + batch)));
                    const std::int64_t start = nowNs();
                    (void)sim.simulateCpuBatch(defaults.cpu, block);
                    ns_total += nowNs() - start;
                    lanes_total += static_cast<std::int64_t>(block.size());
                }
            }
        }
        const double per_lane =
            lanes_total == 0 ? 0.0
                             : static_cast<double>(ns_total) /
                                   static_cast<double>(lanes_total);
        setMetric(m, "sim.cpu_price_ns", per_lane);
        setMetric(m, "sim.cpu_lanes", static_cast<double>(program_lanes));
        notes.push_back(passNote("sim.simulateCpuBatch", per_lane, "ns-per-lane",
                                 static_cast<std::size_t>(lanes_total),
                                 program_lanes));
    }

    // sim.la: acceleratorCostBatch lanes (full-result serves only).
    if (!shape.summary_backed) {
        veal::BatchSimulator sim;
        std::int64_t lanes_total = 0;
        std::int64_t ns_total = 0;
        std::int64_t program_lanes = 0;
        ScopedSpan span(spans, "pass.la_price", 0);
        const auto priceBlock = [&](std::vector<veal::LaCostRequest>& lanes) {
            for (std::size_t begin = 0; begin < lanes.size(); begin += batch) {
                const std::vector<veal::LaCostRequest> block(
                    lanes.begin() + static_cast<std::ptrdiff_t>(begin),
                    lanes.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(lanes.size(), begin + batch)));
                const std::int64_t start = nowNs();
                (void)sim.acceleratorCostBatch(la, block);
                ns_total += nowNs() - start;
                lanes_total += static_cast<std::int64_t>(block.size());
            }
        };
        const auto lane = [&](const TraceRequest& request, bool first,
                              std::vector<veal::LaCostRequest>& out) {
            const auto found = ladder_of.find(veal::traceRequestKey(request));
            if (found == ladder_of.end())
                return;
            const auto& tr = ladders[found->second].translation;
            if (!tr.ok)
                return;
            out.push_back({&tr.schedule, &*tr.graph, &tr.analysis,
                           &tr.registers, request.iterations, first});
        };
        for (std::size_t t = 0; t < epoch.fresh_ok_ticks.size(); ++t) {
            program_lanes +=
                2 * static_cast<std::int64_t>(epoch.fresh_ok_ticks[t].size()) +
                static_cast<std::int64_t>(epoch.reused_ok_ticks[t].size());
            if (lanes_total >= static_cast<std::int64_t>(8 * kPassCap))
                continue;
            std::vector<veal::LaCostRequest> fresh;
            for (const auto& request : epoch.fresh_ok_ticks[t]) {
                lane(request, true, fresh);
                lane(request, false, fresh);
            }
            priceBlock(fresh);
            std::vector<veal::LaCostRequest> reused;
            for (const auto& request : epoch.reused_ok_ticks[t])
                lane(request, false, reused);
            priceBlock(reused);
        }
        const double per_lane =
            lanes_total == 0 ? 0.0
                             : static_cast<double>(ns_total) /
                                   static_cast<double>(lanes_total);
        setMetric(m, "sim.la_price_ns", per_lane);
        setMetric(m, "sim.la_lanes", static_cast<double>(program_lanes));
        notes.push_back(passNote("sim.acceleratorCostBatch", per_lane,
                                 "ns-per-lane",
                                 static_cast<std::size_t>(lanes_total),
                                 program_lanes));
    }

    // vm.persist: open, load and save on this workload's store.
    std::vector<veal::persist::PersistedImage> loaded;
    if (shape.store) {
        const std::string source =
            shape.summary_backed ? run.fixture_dir : kept_store;
        const veal::persist::StoreOptions options =
            serviceOptions(shape, run, "").store;
        std::vector<double> open_ns;
        for (int k = 0; k < 3; ++k) {
            const std::string dir = run.work_dir + "/open-" + std::to_string(k);
            fs::remove_all(dir);
            fs::copy(source, dir, fs::copy_options::recursive);
            ScopedSpan span(spans, "pass.persist_open", k);
            const std::int64_t start = nowNs();
            auto store = std::make_unique<veal::persist::PersistentStore>(dir, options);
            open_ns.push_back(static_cast<double>(nowNs() - start));
            store.reset();
            if (k > 0)
                fs::remove_all(dir);
        }
        setMetric(m, "vm.persist.open_ms", medianOf(open_ns, 1e-6));

        // Loads: the keys the timed phase first-sighted (warm-restart), or
        // every resident key of the epoch's final store (cold-churn).
        std::vector<std::string> keys;
        if (shape.summary_backed) {
            for (const auto& request : distinctKeys(epoch.inputs.timed))
                keys.push_back(veal::traceRequestKey(request));
        }
        {
            veal::persist::PersistentStore store(run.work_dir + "/open-0", options);
            if (!shape.summary_backed)
                keys = store.keys();
            keys.resize(std::min(keys.size(), kPassCap));
            loaded.resize(keys.size());
            const auto load_ns = timeEach(spans, "pass.persist_load", keys.size(), [&](std::size_t i) {
                if (auto image = store.load(keys[i]))
                    loaded[i] = std::move(*image);
            });
            setMetric(m, "vm.persist.load_us", medianOf(load_ns, 1e-3));
            notes.push_back(passNote("vm.persist.load", medianOf(load_ns, 1e-3),
                                     "us", keys.size(),
                                     epoch.store.hits + epoch.store.misses));
        }
        fs::remove_all(run.work_dir + "/open-0");

        if (!shape.summary_backed) {
            std::vector<veal::persist::PersistedImage> records(n_translate);
            for (std::size_t i = 0; i < n_translate; ++i) {
                records[i].key = veal::traceRequestKey(epoch.translated[i]);
                records[i].summary = veal::persist::summarize(ladders[i].translation);
                if (ladders[i].translation.ok)
                    records[i].image_words =
                        veal::ControlImage::encode(loopOf(epoch.translated[i].loop_seed),
                                                   ladders[i].translation)
                            .words();
            }
            const std::string dir = run.work_dir + "/save";
            fs::remove_all(dir);
            {
                veal::persist::PersistentStore store(dir, options);
                const auto save_ns = timeEach(spans, "pass.persist_save", records.size(),
                                              [&](std::size_t i) { store.save(records[i]); });
                setMetric(m, "vm.persist.save_us", medianOf(save_ns, 1e-3));
                notes.push_back(passNote("vm.persist.save", medianOf(save_ns, 1e-3),
                                         "us", records.size(), epoch.store.saves));
            }
            fs::remove_all(dir);
        }
        const auto probes = epoch.store.hits + epoch.store.misses;
        setMetric(m, "vm.persist.hit_ratio",
                  probes == 0 ? 0.0
                              : static_cast<double>(epoch.store.hits) /
                                    static_cast<double>(probes));
        setMetric(m, "vm.persist.evictions", static_cast<double>(epoch.store.evictions));
        setMetric(m, "vm.persist.compactions",
                  static_cast<double>(epoch.store.compactions));
        setMetric(m, "vm.persist.log_bytes", static_cast<double>(epoch.store.log_bytes));
    }

    // vm.persist.summaryLoopCost: how warm-restart prices every serve.
    if (shape.summary_backed) {
        std::map<std::string, const veal::persist::TranslationSummary*> summary_of;
        for (const auto& image : loaded)
            summary_of[image.key] = &image.summary;
        std::vector<std::pair<const veal::persist::TranslationSummary*, std::int64_t>> calls;
        std::int64_t program_calls = 0;
        for (const auto& tick : epoch.reused_ok_ticks) {
            program_calls += static_cast<std::int64_t>(tick.size());
            for (const auto& request : tick) {
                const auto found = summary_of.find(veal::traceRequestKey(request));
                if (found != summary_of.end() && found->second->ok)
                    calls.emplace_back(found->second, request.iterations);
            }
        }
        std::int64_t sink = 0;
        const double per_call = nsPerCall(spans, "pass.summary_cost", calls.size(), 64,
                                          [&](std::size_t i) {
            sink += veal::persist::summaryLoopCost(*calls[i].first, la,
                                                   calls[i].second, false)
                        .total();
        });
        g_sink = sink;
        setMetric(m, "vm.persist.summary_cost_ns", per_call);
        notes.push_back(passNote("vm.persist.summaryLoopCost", per_call, "ns",
                                 calls.size(), program_calls));
    }

    // vm.warm_tier: publication of every fresh (or rehydrated) entry.
    {
        veal::WarmTier tier;
        std::vector<double> publish_ns;
        std::int64_t program_calls = 0;
        if (shape.summary_backed) {
            program_calls = epoch.store.hits;
            publish_ns = timeEach(spans, "pass.warm_publish", loaded.size(), [&](std::size_t i) {
                std::optional<veal::ControlImage> image;
                if (!loaded[i].image_words.empty())
                    image = veal::ControlImage::fromWords(loaded[i].image_words);
                tier.publishSummary(loaded[i].key, loaded[i].summary,
                                    std::move(image), 1,
                                    static_cast<std::int64_t>(i));
            });
        } else {
            program_calls = static_cast<std::int64_t>(epoch.translated.size());
            std::vector<std::optional<veal::ControlImage>> images(n_translate);
            for (std::size_t i = 0; i < n_translate; ++i) {
                if (ladders[i].translation.ok)
                    images[i] = veal::ControlImage::encode(
                        loopOf(epoch.translated[i].loop_seed),
                        ladders[i].translation);
            }
            publish_ns = timeEach(spans, "pass.warm_publish", n_translate, [&](std::size_t i) {
                tier.publish(veal::traceRequestKey(epoch.translated[i]),
                             std::move(ladders[i].translation),
                             std::move(images[i]), 1,
                             static_cast<std::int64_t>(i));
            });
        }
        setMetric(m, "vm.warm_tier.entries", static_cast<double>(epoch.warm_entries));
        setMetric(m, "vm.warm_tier.publish_us", medianOf(publish_ns, 1e-3));
        notes.push_back(passNote("vm.warm_tier.publish", medianOf(publish_ns, 1e-3),
                                 "us", publish_ns.size(), program_calls));
    }

    const auto lookups = epoch.shard_cache.hits + epoch.shard_cache.misses;
    setMetric(m, "vm.code_cache.hit_ratio",
              lookups == 0 ? 0.0
                           : static_cast<double>(epoch.shard_cache.hits) /
                                 static_cast<double>(lookups));

    // support.metrics: the registry adds of a warm-path request.
    {
        std::vector<const TraceRequest*> requests;
        for (const auto& tick : epoch.admitted_ticks)
            for (const auto& request : tick)
                if (requests.size() < 8 * kPassCap)
                    requests.push_back(&request);
        veal::metrics::Registry registry;
        constexpr int kAddsPerRequest = 7;
        const double per_request = nsPerCall(spans, "pass.registry_add", requests.size(), 64,
                                             [&](std::size_t i) {
            const std::string prefix =
                "service.tenant." + std::to_string(requests[i]->tenant);
            registry.add("service.requests.submitted");
            registry.add(prefix + ".submitted");
            registry.add("service.requests.admitted");
            registry.add(prefix + ".admitted");
            registry.add(std::string("service.cache.") +
                         veal::toString(CacheOutcome::kWarm));
            registry.add("service.translate.ok");
            registry.add(i % 2 == 0 ? "service.path.la" : "service.path.cpu");
        });
        setMetric(m, "support.metrics.add_ns", per_request / kAddsPerRequest);
        setMetric(m, "support.metrics.counters",
                  static_cast<double>(epoch.registry_counters));
        notes.push_back(passNote("support.metrics.Registry::add",
                                 per_request / kAddsPerRequest, "ns",
                                 requests.size() * kAddsPerRequest,
                                 static_cast<std::int64_t>(requests.size()) *
                                     kAddsPerRequest));
    }

    // service: the spans of the traced epochs, and the first epoch's counts.
    const ServiceReport& a = epoch.after;
    const ServiceReport& b = epoch.before;
    setMetric(m, "service.submit_us", medianOf(durationsOf(spans.spans(), "submit"), 1e-3));
    setMetric(m, "service.drain_tick_ms", medianOf(durationsOf(spans.spans(), "drain"), 1e-6));
    setMetric(m, "service.cold", static_cast<double>(a.cold - b.cold));
    setMetric(m, "service.warm", static_cast<double>(a.warm - b.warm));
    setMetric(m, "service.coalesced", static_cast<double>(a.coalesced - b.coalesced));
    setMetric(m, "service.persisted", static_cast<double>(a.persisted - b.persisted));
    const auto admitted = a.admitted - b.admitted;
    setMetric(m, "service.la_win_ratio",
              admitted == 0 ? 0.0
                            : static_cast<double>(a.path_la - b.path_la) /
                                  static_cast<double>(admitted));
    samplePasses(calibrator, 3, passes);
    result.layer_time_scale = kReferencePassNs / median(passes);
}

}  // namespace

RunResult
runServiceWorkload(const RunOptions& run)
{
    RunResult result;
    result.spans = SpanRecorder(run.trace);
    SpanRecorder untraced(false);
    const Shape shape = shapeOf(run.workload);
    fs::create_directories(run.work_dir);
    const std::string store_dir = run.work_dir + "/store";
    const std::string kept_store = run.work_dir + "/store-first";

    // Seeded sample of timed-phase positions for the oracle checks.
    std::set<std::int64_t> sample_at;
    {
        const auto requests = serviceInputs(run.workload, run.seed).timed.totalRequests();
        veal::Rng rng(run.seed ^ 0x73616d706c65ull);
        while (static_cast<int>(sample_at.size()) < std::min<std::int64_t>(kSamples, requests))
            sample_at.insert(static_cast<std::int64_t>(
                rng.nextBelow(static_cast<std::uint64_t>(requests))));
    }

    const std::int64_t wall_start = nowNs();
    Calibrator calibrator;
    Epoch first;
    std::uint64_t first_digest = 0;
    std::vector<double> traced_ms;
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
        Epoch epoch = runEpoch(run, run.seed, run.fixture_dir, store_dir, e,
                               spans_on ? result.spans : untraced, calibrator,
                               e == 0 ? sample_at : std::set<std::int64_t>{},
                               run.trace && e == 0,
                               e == 0 && run.workload == "cold-churn");
        const ServiceReport& a = epoch.after;
        const ServiceReport& b = epoch.before;
        result.attempted += a.submitted - b.submitted;
        result.completed += a.admitted - b.admitted;
        result.rejected += (a.rejected_queue + a.rejected_quota) -
                           (b.rejected_queue + b.rejected_quota);
        for (const double ms : epoch.tick_ms)
            result.timed_s += ms * 1e-3;
        for (const double ms : epoch.raw_tick_ms)
            result.raw_timed_s += ms * 1e-3;
        const auto append = [](std::vector<double>& to,
                               const std::vector<double>& from) {
            to.insert(to.end(), from.begin(), from.end());
        };
        append(result.latency_ms, epoch.tick_ms);
        append(result.raw_latency_ms, epoch.raw_tick_ms);
        append(result.calibration_us, epoch.calibration_us);
        if (run.trace)
            append(spans_on ? traced_ms : result.untraced_latency_ms,
                   epoch.tick_ms);
        result.setup_s.push_back(epoch.setup_s);
        result.raw_setup_s.push_back(epoch.raw_setup_s);
        checkIdentities(a, result);
        const std::uint64_t digest = fnv1a(epoch.report_text);
        if (e == 0) {
            first_digest = digest;
            if (run.trace && shape.store && !shape.summary_backed) {
                fs::remove_all(kept_store);
                fs::rename(store_dir, kept_store);
            }
            first = std::move(epoch);
        } else if (digest != first_digest) {
            result.fail(a.admitted - b.admitted,
                        "epoch " + std::to_string(e) +
                            " rendered a different report than epoch 0");
        }
        ++result.epochs;
    }
    result.peak_rss_mb = peakRssMb();
    result.own_modeled_speedup = modeledSpeedup(first);
    result.fingerprint = hex64(first_digest);

    checkSamples(first.samples, result);

    // DESIGN.md §14: the report is the same at 1 shard and 1 thread.
    if (!first.prefix_report.empty()) {
        ++result.checked;
        RunOptions serial = run;
        ServiceTrace prefix;
        prefix.ticks.assign(first.inputs.timed.ticks.begin(),
                            first.inputs.timed.ticks.begin() + kPrefixTicks);
        veal::ServiceOptions options =
            serviceOptions(shape, serial, run.work_dir + "/serial-store");
        options.shards = 1;
        options.threads = 1;
        fs::remove_all(options.cache_dir);
        std::string serial_report;
        {
            veal::TranslationService service(options);
            serial_report = service.run(prefix).render();
        }
        fs::remove_all(options.cache_dir);
        if (serial_report != first.prefix_report)
            result.fail(static_cast<std::int64_t>(kPrefixTicks) * kTickSize,
                        "report of the first ticks differs from a 1-shard, "
                        "1-thread replay");
    }

    // Workload character (printed; a change here is not an output error).
    const ServiceReport& a = first.after;
    const ServiceReport& b = first.before;
    const auto line = [&](const std::string& what, bool ok) {
        result.character.push_back(what + (ok ? "  ok" : "  NOT MET"));
    };
    const auto admitted = a.admitted - b.admitted;
    if (run.workload == "warm-reuse") {
        line("timed cold requests = " + std::to_string(a.cold - b.cold) +
                 " (want 0)",
             a.cold == b.cold);
    } else if (run.workload == "cold-churn") {
        const double share = admitted == 0 ? 0.0
                                           : static_cast<double>(a.cold) /
                                                 static_cast<double>(admitted);
        line("cold share of admitted = " + std::to_string(share) +
                 " (want >= 0.5)",
             share >= 0.5);
        line("store evictions = " + std::to_string(first.store.evictions) +
                 " (want > 0)",
             first.store.evictions > 0);
    } else {
        const auto distinct =
            static_cast<std::int64_t>(distinctKeys(first.inputs.timed).size());
        line("translation cycles = " + std::to_string(a.translation_cycles) +
                 " (want 0)",
             a.translation_cycles == 0);
        line("store hits = " + std::to_string(first.store.hits) +
                 ", distinct keys = " + std::to_string(distinct) + " (want equal)",
             first.store.hits == distinct);
    }
    line("failed share = " + std::to_string(result.failed()) + "/" +
             std::to_string(result.attempted) + " (want 0)",
         result.failed() == 0);

    if (run.seed == kFingerprintSeed) {
        result.canonical_fingerprint = result.fingerprint;
        result.modeled_speedup = result.own_modeled_speedup;
    } else if (shape.summary_backed && run.canonical_fixture_dir.empty()) {
        throw std::runtime_error("warm-restart needs the seed-1 fixture");
    } else {
        const Epoch epoch = runEpoch(run, kFingerprintSeed,
                                     run.canonical_fixture_dir, store_dir, 0,
                                     untraced, calibrator, {}, false, false);
        checkIdentities(epoch.after, result);
        result.canonical_fingerprint = hex64(fnv1a(epoch.report_text));
        result.modeled_speedup = modeledSpeedup(epoch);
    }
    fs::remove_all(store_dir);

    if (run.trace) {
        serviceLayers(run, first, kept_store, result);
        setMetric(result.layers, "trace.overhead_pct",
                  result.untraced_latency_ms.empty()
                      ? 0.0
                      : (median(traced_ms) / median(result.untraced_latency_ms) -
                         1.0) * 100.0);
        fs::remove_all(kept_store);
    }
    return result;
}

bool
makeFixture(std::uint64_t seed, const std::string& dir)
{
    RunOptions run;
    run.workload = "warm-restart";
    Shape shape = shapeOf(run.workload);
    shape.shards = 2;
    shape.threads = 2;
    fs::remove_all(dir);
    veal::ServiceOptions options = serviceOptions(shape, run, dir);
    veal::TranslationService service(options);
    const ServiceInputs inputs = warmRestartInputs(seed);
    const ServiceReport& report = service.run(inputs.prepare);
    service.shutdown();
    const auto* store = service.persistentStore();
    return store != nullptr && !store->readOnly() &&
           report.admitted == inputs.prepare.totalRequests() &&
           store->size() == report.cold;
}

}  // namespace perfbench
