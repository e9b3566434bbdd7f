#include "bench/simulation.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <memory>

#include "veal/arch/cpu_config.h"
#include "veal/arch/la_config.h"
#include "veal/fuzz/driver.h"
#include "veal/fuzz/oracle.h"
#include "veal/sim/batch.h"
#include "veal/sim/reference.h"
#include "veal/support/assert.h"
#include "veal/support/fnv.h"
#include "veal/support/thread_pool.h"
#include "veal/vm/translator.h"

namespace veal::bench {

namespace {

/** The fixed campaign: same fuzz-loop stream the campaign drivers run. */
constexpr std::uint64_t kCampaignSeed = 0x51bca5e5ull;
constexpr int kCases = 512;
constexpr std::int64_t kInterpretIterations = 64;

/** FNV-1a over a string's bytes, then its length. */
std::uint64_t
fnvText(std::uint64_t hash, const std::string& text)
{
    return fnvFold64(fnvBytes(text.data(), text.size(), hash), text.size());
}

/** Where a batch lane's architectural results live, post-pass. */
struct ExecRef {
    const BatchExecView* view = nullptr;
    std::size_t lane = 0;
};

/** Everything one case's simulations produced, for digesting.  The
    reference pass materializes `exec`; the batched pass points
    `exec_ref` into its engines' arenas instead (same quantities, same
    order, no map materialization). */
struct CaseOutput {
    CpuLoopTiming timing;
    ExecutionResult exec;
    ExecRef exec_ref;
    bool translated = false;
    LaInvocationCost first_cost;
    LaInvocationCost warm_cost;
};

/** The prepared case set; built once, outside the timed passes. */
struct CaseSet {
    std::vector<Loop> loops;
    std::vector<ExecutionInput> inputs;
    /** inputs[i].memory pre-flattened, the batch engine's input shape. */
    std::vector<FlatMemoryImage> flat_inputs;
    std::vector<TranslationResult> translations;  ///< ok=false lanes too.
    CpuConfig cpu = CpuConfig::arm11();
    LaConfig la = LaConfig::proposed();
};

CaseSet
makeCaseSet()
{
    CaseSet set;
    set.loops.reserve(kCases);
    set.inputs.reserve(kCases);
    set.translations.reserve(kCases);
    for (int i = 0; i < kCases; ++i) {
        set.loops.push_back(makeFuzzCaseLoop(kCampaignSeed, i));
        const Loop& loop = set.loops.back();
        VEAL_ASSERT(interpretable(loop),
                    "bench case fell outside the interpreter subset");
        set.inputs.push_back(makeFuzzInput(
            loop, makeFuzzCaseSeed(kCampaignSeed, i),
            kInterpretIterations));
        set.translations.push_back(translateLoop(
            loop, set.la, TranslationMode::kFullyDynamic));
    }
    set.flat_inputs.reserve(kCases);
    for (const ExecutionInput& input : set.inputs)
        set.flat_inputs.push_back(flattenMemoryImage(input.memory));
    return set;
}

bool
hasLaLanes(const TranslationResult& translation)
{
    return translation.ok && translation.graph != nullptr;
}

/** One pass through the frozen scalar oracle, one case at a time. */
std::vector<CaseOutput>
referencePass(const CaseSet& set, ThreadPool& pool)
{
    std::vector<CaseOutput> outputs(kCases);
    pool.run(kCases, [&](int i) {
        const auto index = static_cast<std::size_t>(i);
        CaseOutput& out = outputs[index];
        const Loop& loop = set.loops[index];
        out.timing = reference::simulateLoopOnCpu(loop, set.cpu,
                                                  loop.tripCount());
        out.exec = reference::interpretLoop(loop, set.inputs[index]);
        const TranslationResult& tr = set.translations[index];
        if (hasLaLanes(tr)) {
            out.translated = true;
            out.first_cost = reference::acceleratorLoopCost(
                tr.schedule, *tr.graph, tr.analysis, tr.registers,
                set.la, loop.tripCount(), /*first_invocation=*/true);
            out.warm_cost = reference::acceleratorLoopCost(
                tr.schedule, *tr.graph, tr.analysis, tr.registers,
                set.la, loop.tripCount(), /*first_invocation=*/false);
        }
    });
    return outputs;
}

/**
 * One pass through the batch engine, @p batch lanes per call.
 * @p simulators holds one engine per block, owned by the caller: each
 * block always runs on its own simulator, so the returned exec_refs
 * stay valid until the next pass, and a simulator's arenas warm up
 * across passes exactly like a long-lived campaign worker's.
 */
std::vector<CaseOutput>
batchedPass(const CaseSet& set, ThreadPool& pool, int batch,
            std::vector<std::unique_ptr<BatchSimulator>>& simulators)
{
    const int blocks = (kCases + batch - 1) / batch;
    VEAL_ASSERT(static_cast<int>(simulators.size()) == blocks,
                "one simulator per block");
    std::vector<CaseOutput> outputs(kCases);
    pool.run(blocks, [&](int block) {
        const int begin = block * batch;
        const int end = std::min(begin + batch, kCases);
        BatchSimulator& simulator =
            *simulators[static_cast<std::size_t>(block)];

        std::vector<CpuSimRequest> cpu_lanes;
        std::vector<InterpretRequest> exec_lanes;
        std::vector<LaCostRequest> la_lanes;
        std::vector<int> la_owner;
        for (int i = begin; i < end; ++i) {
            const auto index = static_cast<std::size_t>(i);
            const Loop& loop = set.loops[index];
            cpu_lanes.push_back({&loop, loop.tripCount()});
            exec_lanes.push_back({&loop, &set.inputs[index],
                                  &set.flat_inputs[index]});
            const TranslationResult& tr = set.translations[index];
            if (hasLaLanes(tr)) {
                la_lanes.push_back({&tr.schedule, &*tr.graph,
                                    &tr.analysis, &tr.registers,
                                    loop.tripCount(),
                                    /*first_invocation=*/true});
                la_lanes.push_back({&tr.schedule, &*tr.graph,
                                    &tr.analysis, &tr.registers,
                                    loop.tripCount(),
                                    /*first_invocation=*/false});
                la_owner.push_back(i);
            }
        }
        const auto timings = simulator.simulateCpuBatch(set.cpu, cpu_lanes);
        const BatchExecView& view = simulator.interpretBatchFlat(
            exec_lanes);
        const auto charges = simulator.acceleratorCostBatch(set.la,
                                                            la_lanes);
        for (int i = begin; i < end; ++i) {
            const auto k = static_cast<std::size_t>(i - begin);
            outputs[static_cast<std::size_t>(i)].timing = timings[k];
            outputs[static_cast<std::size_t>(i)].exec_ref = {&view, k};
        }
        for (std::size_t k = 0; k < la_owner.size(); ++k) {
            CaseOutput& out =
                outputs[static_cast<std::size_t>(la_owner[k])];
            out.translated = true;
            out.first_cost = charges[2 * k];
            out.warm_cost = charges[2 * k + 1];
        }
    });
    return outputs;
}

/** The modeled summary of one pass, mixed strictly in case order. */
struct Modeled {
    std::int64_t translated_cases = 0;
    std::int64_t total_cpu_cycles = 0;
    std::uint64_t cpu_digest = 0;
    std::uint64_t exec_digest = 0;
    std::uint64_t la_digest = 0;

    bool
    operator==(const Modeled& other) const
    {
        return translated_cases == other.translated_cases &&
               total_cpu_cycles == other.total_cpu_cycles &&
               cpu_digest == other.cpu_digest &&
               exec_digest == other.exec_digest &&
               la_digest == other.la_digest;
    }
};

Modeled
digestOutputs(const std::vector<CaseOutput>& outputs)
{
    Modeled modeled;
    std::uint64_t cpu = kFnvOffsetBasis;
    std::uint64_t exec = kFnvOffsetBasis;
    std::uint64_t la = kFnvOffsetBasis;
    const auto mixExec = [&exec](std::int64_t a, std::int64_t b) {
        exec = fnvFold64(fnvFold64(exec, static_cast<std::uint64_t>(a)),
                         static_cast<std::uint64_t>(b));
    };
    for (const CaseOutput& out : outputs) {
        modeled.total_cpu_cycles += out.timing.total_cycles;
        cpu = fnvFold64(cpu,
                        static_cast<std::uint64_t>(out.timing.total_cycles));
        cpu = fnvFold64(cpu, std::bit_cast<std::uint64_t>(
                                 out.timing.cycles_per_iteration));

        // Both branches visit the identical (live-out, region, cell)
        // sequence -- the digests matching IS the bit-identity claim.
        if (out.exec_ref.view) {
            const BatchExecView& view = *out.exec_ref.view;
            const auto& lane = view.lanes[out.exec_ref.lane];
            for (std::size_t lo = lane.live_out_begin;
                 lo < lane.live_out_end; ++lo) {
                mixExec(view.live_outs[lo].first, view.live_outs[lo].second);
            }
            for (std::size_t r = lane.region_begin; r < lane.region_end;
                 ++r) {
                const BatchExecView::Region& region = view.regions[r];
                exec = fnvText(exec, *region.name);
                forEachRegionCell(region, mixExec);
            }
        } else {
            for (const auto& [op, value] : out.exec.live_outs)
                mixExec(op, value);
            for (const auto& [symbol, cells] : out.exec.memory) {
                exec = fnvText(exec, symbol);
                for (const auto& [address, value] : cells)
                    mixExec(address, value);
            }
        }

        if (out.translated) {
            ++modeled.translated_cases;
            for (const LaInvocationCost* cost :
                 {&out.first_cost, &out.warm_cost}) {
                for (const std::int64_t cycles :
                     {cost->setup_cycles, cost->pipeline_cycles,
                      cost->drain_cycles})
                    la = fnvFold64(la, static_cast<std::uint64_t>(cycles));
            }
        }
    }
    modeled.cpu_digest = cpu;
    modeled.exec_digest = exec;
    modeled.la_digest = la;
    return modeled;
}

}  // namespace

ModeReport
runSimulationThroughput(const ModeOptions& options)
{
    const CaseSet set = makeCaseSet();
    ThreadPool pool(options.threads);

    using Clock = std::chrono::steady_clock;
    const auto timed = [&](const auto& pass, const char* label,
                           std::vector<double>* wall_ms) {
        const auto start = Clock::now();
        auto outputs = pass();
        const double ms = std::chrono::duration<double, std::milli>(
                              Clock::now() - start)
                              .count();
        wall_ms->push_back(ms);
        std::fprintf(stderr, "veal-bench: %s pass %zu/%d %.2f ms\n",
                     label, wall_ms->size(), options.runs, ms);
        return digestOutputs(outputs);
    };

    Modeled modeled;
    std::vector<double> reference_wall_ms;
    for (int run = 0; run < options.runs; ++run) {
        const Modeled pass = timed(
            [&] { return referencePass(set, pool); }, "reference",
            &reference_wall_ms);
        if (run == 0) {
            modeled = pass;
        } else {
            VEAL_ASSERT(pass == modeled,
                        "reference pass drifted across bench runs");
        }
    }
    const int blocks = (kCases + options.batch - 1) / options.batch;
    std::vector<std::unique_ptr<BatchSimulator>> simulators;
    simulators.reserve(static_cast<std::size_t>(blocks));
    for (int block = 0; block < blocks; ++block)
        simulators.push_back(std::make_unique<BatchSimulator>());
    std::vector<double> batched_wall_ms;
    for (int run = 0; run < options.runs; ++run) {
        const Modeled pass = timed(
            [&] {
                return batchedPass(set, pool, options.batch, simulators);
            },
            "batched", &batched_wall_ms);
        // The contract this bench exists to pin: the batch engine is
        // bit-identical to the frozen oracle on every modeled quantity.
        VEAL_ASSERT(pass == modeled,
                    "batched pass diverged from the reference oracle");
    }

    ModeReport report;
    report.modeled.add("cases", kCases)
        .add("iterations", kInterpretIterations)
        .add("translated_cases", modeled.translated_cases)
        .add("total_cpu_cycles", modeled.total_cpu_cycles)
        .add("cpu_digest", hex(modeled.cpu_digest))
        .add("exec_digest", hex(modeled.exec_digest))
        .add("la_digest", hex(modeled.la_digest));

    const double reference_p50_ms = p50(reference_wall_ms);
    const double batched_p50_ms = p50(batched_wall_ms);
    const double reference_cases_per_sec =
        reference_p50_ms > 0.0 ? kCases * 1000.0 / reference_p50_ms : 0.0;
    const double batched_cases_per_sec =
        batched_p50_ms > 0.0 ? kCases * 1000.0 / batched_p50_ms : 0.0;
    report.wall.add("reference_p50_ms", reference_p50_ms)
        .add("batched_p50_ms", batched_p50_ms)
        .add("reference_cases_per_sec", reference_cases_per_sec)
        .add("batched_cases_per_sec", batched_cases_per_sec)
        .add("speedup_vs_reference",
             reference_cases_per_sec > 0.0
                 ? batched_cases_per_sec / reference_cases_per_sec
                 : 0.0);
    return report;
}

}  // namespace veal::bench
