#include "veal/fuzz/driver.h"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <utility>

#include "veal/cca/cca_mapper.h"
#include "veal/ir/loop_parser.h"
#include "veal/ir/random_loop.h"
#include "veal/sched/mii.h"
#include "veal/sched/priority.h"
#include "veal/sched/reference.h"
#include "veal/sched/schedule.h"
#include "veal/sched/scheduler.h"
#include "veal/service/service.h"
#include "veal/sim/batch.h"
#include "veal/support/rng.h"
#include "veal/support/thread_pool.h"
#include "veal/vm/translator.h"

namespace veal {
namespace {

/** Outcome columns, in rendering order. */
constexpr OracleOutcome kAllOutcomes[] = {
    OracleOutcome::kPass,
    OracleOutcome::kTranslatorReject,
    OracleOutcome::kValidatorReject,
    OracleOutcome::kDivergence,
    OracleOutcome::kCrashGuard,
    OracleOutcome::kFaultRecovered,
};

/** Index-addressable stream split: mix (campaign seed, case index). */
std::uint64_t
mixSeed(std::uint64_t campaign_seed, int case_index, std::uint64_t salt)
{
    Rng rng(campaign_seed ^
            (0x9e3779b97f4a7c15ull *
             (static_cast<std::uint64_t>(case_index) + 1)) ^
            salt);
    return rng.next();
}

}  // namespace

std::vector<FuzzConfigPreset>
fuzzConfigPresets()
{
    std::vector<FuzzConfigPreset> presets;

    presets.push_back({"proposed", LaConfig::proposed()});

    LaConfig min_regs = LaConfig::proposed();
    min_regs.name = "min-regs";
    min_regs.num_int_registers = 2;
    min_regs.num_fp_registers = 2;
    presets.push_back({"min-regs", min_regs});

    LaConfig one_fu = LaConfig::proposed();
    one_fu.name = "one-fu";
    one_fu.num_int_units = 1;
    one_fu.num_fp_units = 1;
    one_fu.num_cca_units = 0;
    one_fu.cca.reset();
    presets.push_back({"one-fu", one_fu});

    LaConfig max_ii_4 = LaConfig::proposed();
    max_ii_4.name = "max-ii-4";
    max_ii_4.max_ii = 4;
    presets.push_back({"max-ii-4", max_ii_4});

    LaConfig one_load = LaConfig::proposed();
    one_load.name = "one-load-stream";
    one_load.num_load_streams = 1;
    one_load.num_load_addr_gens = 1;
    presets.push_back({"one-load-stream", one_load});

    return presets;
}

std::optional<FuzzConfigPreset>
fuzzConfigByName(const std::string& name)
{
    for (const auto& preset : fuzzConfigPresets()) {
        if (preset.name == name)
            return preset;
    }
    return std::nullopt;
}

std::uint64_t
makeFuzzCaseSeed(std::uint64_t campaign_seed, int case_index)
{
    return mixSeed(campaign_seed, case_index, 0x5eedull);
}

Loop
makeFuzzCaseLoop(std::uint64_t campaign_seed, int case_index)
{
    // Delegates to the shared stress family so the fuzzer and the
    // translation-service traces draw from one loop distribution; the
    // salts keep every historical case byte-identical.
    return makeStressLoop(mixSeed(campaign_seed, case_index, 0x100b5ull),
                          makeFuzzCaseSeed(campaign_seed, case_index),
                          "fuzz");
}

std::uint64_t
makeFuzzCasePlanSeed(std::uint64_t fault_seed, int case_index)
{
    return mixSeed(fault_seed, case_index, 0xfa117ull);
}

OracleReport
runSchedDiffCase(const Loop& loop, const LaConfig& config,
                 TranslationMode mode)
{
    OracleReport report;
    auto diverge = [&report](std::string detail) -> OracleReport& {
        report.outcome = OracleOutcome::kDivergence;
        report.detail = std::move(detail);
        return report;
    };

    const LoopAnalysis analysis = analyzeLoop(loop);
    if (!analysis.ok()) {
        report.outcome = OracleOutcome::kTranslatorReject;
        report.detail = "analysis: " + analysis.reject_detail;
        return report;
    }
    const CcaMapping mapping =
        config.hasCca()
            ? mapToCca(loop, analysis, *config.cca, config.latencies)
            : emptyCcaMapping(loop);
    const SchedGraph graph(loop, analysis, mapping, config);

    CostMeter opt_meter;
    CostMeter ref_meter;

    const int opt_rec = recMii(graph, &opt_meter);
    const int ref_rec = reference::recMii(graph, &ref_meter);
    if (opt_rec != ref_rec) {
        return diverge("recMii " + std::to_string(opt_rec) +
                       " != reference " + std::to_string(ref_rec));
    }
    const int res = resMii(graph, config);
    if (res >= LaConfig::kUnlimited) {
        report.outcome = OracleOutcome::kTranslatorReject;
        report.detail = "no FU class for some unit";
        return report;
    }
    const int mii = std::max(res, opt_rec);

    const bool height = mode == TranslationMode::kFullyDynamicHeight;
    const NodeOrder opt_order =
        height ? computeHeightOrder(graph, mii, &opt_meter)
               : computeSwingOrder(graph, mii, &opt_meter);
    const NodeOrder ref_order =
        height ? reference::computeHeightOrder(graph, mii, &ref_meter)
               : reference::computeSwingOrder(graph, mii, &ref_meter);
    if (opt_order.sequence != ref_order.sequence)
        return diverge("priority sequence differs");
    if (opt_order.place_late != ref_order.place_late)
        return diverge("place_late mask differs");

    SchedulerStats opt_stats;
    SchedulerStats ref_stats;
    const auto opt_schedule = scheduleLoop(graph, config, opt_order, mii,
                                           &opt_meter, &opt_stats);
    const auto ref_schedule = reference::scheduleLoop(
        graph, config, ref_order, mii, &ref_meter, &ref_stats);
    if (opt_schedule.has_value() != ref_schedule.has_value()) {
        return diverge(std::string("schedulability differs: optimized ") +
                       (opt_schedule ? "ok" : "fail") + ", reference " +
                       (ref_schedule ? "ok" : "fail"));
    }
    if (opt_stats.attempted_iis != ref_stats.attempted_iis ||
        opt_stats.placement_failures != ref_stats.placement_failures)
        return diverge("II-search trail differs");

    if (opt_schedule.has_value()) {
        report.ii = opt_schedule->ii;
        if (opt_schedule->ii > ref_schedule->ii) {
            return diverge("II " + std::to_string(opt_schedule->ii) +
                           " worse than reference " +
                           std::to_string(ref_schedule->ii));
        }
        if (opt_schedule->time != ref_schedule->time ||
            opt_schedule->fu_instance != ref_schedule->fu_instance ||
            opt_schedule->stage_count != ref_schedule->stage_count ||
            opt_schedule->length != ref_schedule->length)
            return diverge("schedule contents differ");
        if (const auto error =
                validateSchedule(graph, config, *opt_schedule)) {
            report.outcome = OracleOutcome::kValidatorReject;
            std::ostringstream os;
            os << *error;
            report.detail = os.str();
            return report;
        }
    } else {
        report.outcome = OracleOutcome::kTranslatorReject;
        report.detail = "no II admits a schedule";
    }

    for (int p = 0; p < kNumTranslationPhases; ++p) {
        const auto phase = static_cast<TranslationPhase>(p);
        if (opt_meter.units(phase) != ref_meter.units(phase)) {
            return diverge(
                std::string("charge drift in ") + toString(phase) + ": " +
                std::to_string(opt_meter.units(phase)) + " != " +
                std::to_string(ref_meter.units(phase)));
        }
    }
    return report;
}

OracleReport
runServiceCase(const Loop& loop, const LaConfig& config,
               TranslationMode mode,
               std::optional<std::uint64_t> fault_seed)
{
    OracleReport report;
    auto diverge = [&report](std::string detail) -> OracleReport& {
        report.outcome = OracleOutcome::kDivergence;
        report.detail = std::move(detail);
        return report;
    };

    // The fixed micro-trace: tick 1 has both tenants requesting the
    // same key (one cold translation, one coalesced ride-along), tick 2
    // repeats it (two warm-tier serves).  Small shapes on purpose --
    // the point is shard-invariance per case, not throughput.
    struct Probe {
        std::string render;
        std::string metrics;
        std::vector<RequestOutcome> first_tick;
        std::vector<RequestOutcome> second_tick;
    };
    const auto probe = [&](int shards) {
        ServiceOptions options;
        options.shards = shards;
        options.threads = 1;  // Cases already run on pool workers.
        options.batch = 4;
        options.shard_cache_entries = 4;
        options.la = config;
        options.fault_seed = fault_seed;
        metrics::Registry registry;
        TranslationService service(options, &registry);
        Probe out;
        for (int tick = 0; tick < 2; ++tick) {
            for (int tenant = 0; tenant < 2; ++tenant) {
                ServiceRequest request;
                request.tenant = tenant;
                request.loop = loop;
                request.key = "fuzz-case";
                request.mode = mode;
                service.submit(std::move(request));
            }
            service.drainTick();
            (tick == 0 ? out.first_tick : out.second_tick) =
                service.lastTickOutcomes();
        }
        out.render = service.report().render();
        out.metrics = registry.toJson();
        return out;
    };
    const Probe narrow = probe(1);
    const Probe wide = probe(2);

    if (narrow.render != wide.render)
        return diverge("service report differs between 1 and 2 shards");
    if (narrow.metrics != wide.metrics)
        return diverge("metrics snapshot differs between 1 and 2 shards");
    if (narrow.first_tick.size() != 2 || narrow.second_tick.size() != 2)
        return diverge("micro-trace dropped a request");

    if (!fault_seed.has_value()) {
        // Fault-free, the taxonomy is forced: cold + coalesced, then
        // two warm serves of the tick-1 publication.
        if (narrow.first_tick[0].cache != CacheOutcome::kCold ||
            narrow.first_tick[1].cache != CacheOutcome::kCoalesced) {
            return diverge("tick-1 taxonomy is not cold + coalesced");
        }
        if (narrow.second_tick[0].cache != CacheOutcome::kWarm ||
            narrow.second_tick[1].cache != CacheOutcome::kWarm)
            return diverge("tick-2 taxonomy is not warm + warm");

        // Cross-check the service's verdict against a direct ladder
        // climb -- the service must never flip a loop's translatability.
        const LadderOutcome ladder =
            climbTranslationLadder(loop, config, mode, nullptr, nullptr);
        for (const auto* tick : {&narrow.first_tick, &narrow.second_tick}) {
            for (const auto& outcome : *tick) {
                if (outcome.translated_ok != ladder.translation.ok) {
                    return diverge(
                        "service verdict disagrees with direct ladder");
                }
            }
        }
        if (narrow.first_tick[0].rung != ladder.rung)
            return diverge("service rung disagrees with direct ladder");
        if (!ladder.translation.ok) {
            report.outcome = OracleOutcome::kTranslatorReject;
            report.detail =
                "reject: " + std::string(toString(
                                 ladder.translation.reject));
            return report;
        }
        report.ii = narrow.first_tick[0].ii;
    }
    return report;
}

TranslationMode
makeFuzzCaseMode(std::uint64_t campaign_seed, int case_index)
{
    constexpr TranslationMode kModes[] = {
        TranslationMode::kFullyDynamic,
        TranslationMode::kFullyDynamicHeight,
        TranslationMode::kHybridStaticCcaPriority,
        TranslationMode::kStatic,
    };
    return kModes[mixSeed(campaign_seed, case_index, 0x30deull) % 4];
}

std::string
FuzzSummary::render() const
{
    std::ostringstream os;
    os << "veal-fuzz: runs=" << total_runs << " seed=" << seed
       << " configs=" << counts.size() << "\n";
    os << std::left << std::setw(18) << "config";
    for (const auto outcome : kAllOutcomes)
        os << std::right << std::setw(19) << toString(outcome);
    os << "\n";
    for (const auto& [config_name, per_outcome] : counts) {
        os << std::left << std::setw(18) << config_name;
        for (const auto outcome : kAllOutcomes) {
            const auto it = per_outcome.find(toString(outcome));
            os << std::right << std::setw(19)
               << (it == per_outcome.end() ? 0 : it->second);
        }
        os << "\n";
    }
    os << "failures: " << failures.size() << "\n";
    for (const auto& failure : failures) {
        os << "[case " << failure.case_index << "] config="
           << failure.config_name << " seed=" << failure.case_seed
           << " outcome=" << toString(failure.report.outcome)
           << " detail=" << failure.report.detail << "\n";
        os << "  ops " << failure.ops_before << " -> "
           << failure.ops_after;
        if (!failure.saved_path.empty())
            os << ", saved " << failure.saved_path;
        os << "\n";
        std::istringstream lines(failure.loop_text);
        std::string line;
        while (std::getline(lines, line))
            os << "    " << line << "\n";
    }
    return os.str();
}

FuzzSummary
runFuzz(const FuzzOptions& options, metrics::Registry* registry)
{
    FuzzSummary summary;
    summary.total_runs = options.runs;
    summary.seed = options.seed;
    if (options.runs <= 0 || options.configs.empty())
        return summary;

    // Stable table shape: every (config, outcome) cell exists.
    for (const auto& preset : options.configs) {
        for (const auto outcome : kAllOutcomes)
            summary.counts[preset.name][toString(outcome)] = 0;
    }

    struct CaseResult {
        OracleOutcome outcome = OracleOutcome::kPass;
        std::string detail;
        int ops = 0;  ///< Generated loop size (fuzz.loop_ops histogram).
    };

    // Workers take whole blocks of consecutive case indices: one block
    // is one runOracleBatch() call, so its reference interpretations ride
    // the batch engine together.  Block boundaries never affect results
    // (every case is a pure function of its index), so the report stays
    // byte-identical for any --batch width and any --threads.
    const int batch = std::max(1, options.batch);
    std::vector<std::pair<int, int>> blocks;  // [begin, end) indices.
    for (int begin = 0; begin < options.runs; begin += batch) {
        blocks.emplace_back(begin,
                            std::min(begin + batch, options.runs));
    }

    const auto run_block = [&](const std::pair<int, int>& range) {
        std::vector<CaseResult> out;
        out.reserve(static_cast<std::size_t>(range.second - range.first));
        if (options.sched_diff || options.service) {
            for (int index = range.first; index < range.second; ++index) {
                const auto& preset = options.configs[
                    static_cast<std::size_t>(index) %
                    options.configs.size()];
                const Loop loop = makeFuzzCaseLoop(options.seed, index);
                const TranslationMode mode =
                    makeFuzzCaseMode(options.seed, index);
                std::optional<std::uint64_t> plan_seed;
                if (options.service && options.fault_seed.has_value()) {
                    plan_seed =
                        makeFuzzCasePlanSeed(*options.fault_seed, index);
                }
                const OracleReport report =
                    options.sched_diff
                        ? runSchedDiffCase(loop, preset.config, mode)
                        : runServiceCase(loop, preset.config, mode,
                                         plan_seed);
                out.push_back(
                    {report.outcome, report.detail, loop.size()});
            }
            return out;
        }
        std::vector<Loop> loops;
        loops.reserve(static_cast<std::size_t>(range.second - range.first));
        std::vector<OracleCase> cases;
        for (int index = range.first; index < range.second; ++index) {
            const auto& preset = options.configs[
                static_cast<std::size_t>(index) % options.configs.size()];
            OracleCase one;
            one.config = &preset.config;
            one.seed = makeFuzzCaseSeed(options.seed, index);
            one.options.mode = makeFuzzCaseMode(options.seed, index);
            one.options.iterations = options.iterations;
            one.options.perturb = options.perturb;
            if (options.fault_seed.has_value()) {
                one.options.fault_plan = FaultPlan::sample(
                    makeFuzzCasePlanSeed(*options.fault_seed, index));
            }
            loops.push_back(makeFuzzCaseLoop(options.seed, index));
            one.loop = &loops.back();
            cases.push_back(std::move(one));
        }
        BatchSimulator simulator;
        const auto reports = runOracleBatch(cases, &simulator);
        for (std::size_t k = 0; k < reports.size(); ++k) {
            out.push_back({reports[k].outcome, reports[k].detail,
                           loops[k].size()});
        }
        return out;
    };

    ThreadPool pool(options.threads);
    const std::vector<std::vector<CaseResult>> block_results =
        parallelMap(pool, blocks, run_block);
    std::vector<CaseResult> results;
    results.reserve(static_cast<std::size_t>(options.runs));
    for (const auto& block : block_results)
        results.insert(results.end(), block.begin(), block.end());

    // Index-ordered reduction: identical output for any thread count.
    // All metrics land here (never in the workers), so a snapshot obeys
    // the same determinism contract as the rendered summary.
    if (registry != nullptr)
        registry->add("fuzz.cases", options.runs);
    for (int index = 0; index < options.runs; ++index) {
        const auto& preset = options.configs[
            static_cast<std::size_t>(index) % options.configs.size()];
        const auto& result = results[static_cast<std::size_t>(index)];
        ++summary.counts[preset.name][toString(result.outcome)];
        if (registry != nullptr) {
            registry->add("fuzz.outcome." + preset.name + "." +
                          toString(result.outcome));
            registry->observe("fuzz.loop_ops", result.ops);
        }
        if (!isFailure(result.outcome))
            continue;

        FuzzFailure failure;
        failure.case_index = index;
        failure.config_name = preset.name;
        failure.case_seed = makeFuzzCaseSeed(options.seed, index);
        failure.report.outcome = result.outcome;
        failure.report.detail = result.detail;

        Loop repro = makeFuzzCaseLoop(options.seed, index);
        failure.ops_before = repro.size();
        OracleOptions oracle;
        oracle.mode = makeFuzzCaseMode(options.seed, index);
        oracle.iterations = options.iterations;
        oracle.perturb = options.perturb;
        // The shrink closure and the saved repro carry the exact same
        // fault plan as the original case, so a shrunk repro preserves
        // both the failure class and the injection that provoked it.
        if (options.fault_seed.has_value()) {
            oracle.fault_plan = FaultPlan::sample(
                makeFuzzCasePlanSeed(*options.fault_seed, index));
        }
        if (options.shrink) {
            const auto rerun = [&](const Loop& candidate) {
                if (options.sched_diff) {
                    return runSchedDiffCase(candidate, preset.config,
                                            oracle.mode);
                }
                if (options.service) {
                    std::optional<std::uint64_t> plan_seed;
                    if (options.fault_seed.has_value()) {
                        plan_seed = makeFuzzCasePlanSeed(
                            *options.fault_seed, index);
                    }
                    return runServiceCase(candidate, preset.config,
                                          oracle.mode, plan_seed);
                }
                return runOracle(candidate, preset.config,
                                 failure.case_seed, oracle);
            };
            const auto still_fails = [&](const Loop& candidate) {
                return rerun(candidate).outcome == result.outcome;
            };
            repro = shrinkLoop(repro, still_fails);
            // Re-run the shrunk repro for the final detail text.
            failure.report = rerun(repro);
        }
        failure.ops_after = repro.size();
        failure.loop_text = printLoop(repro);

        if (!options.corpus_dir.empty()) {
            CorpusCase saved;
            saved.loop = repro;
            saved.config = preset.config;
            saved.mode = oracle.mode;
            saved.seed = failure.case_seed;
            saved.iterations = options.iterations;
            saved.expect = failure.report.outcome;
            saved.service = options.service;
            if (options.fault_seed.has_value()) {
                saved.fault_plan_seed =
                    makeFuzzCasePlanSeed(*options.fault_seed, index);
            }
            saved.note = "shrunk by veal-fuzz from campaign seed " +
                         std::to_string(options.seed) + " case " +
                         std::to_string(index);
            failure.saved_path = saveCorpusCase(
                options.corpus_dir,
                "repro-" + preset.name + "-" +
                    std::to_string(failure.case_seed),
                saved);
        }
        if (registry != nullptr) {
            registry->add("fuzz.failures");
            registry->add("fuzz.shrink.ops_removed",
                          failure.ops_before - failure.ops_after);
            registry->trace("fuzz/" + preset.name,
                            toString(failure.report.outcome),
                            "case " + std::to_string(index) + " seed " +
                                std::to_string(failure.case_seed),
                            failure.ops_after);
        }
        summary.failures.push_back(std::move(failure));
    }
    return summary;
}

}  // namespace veal
