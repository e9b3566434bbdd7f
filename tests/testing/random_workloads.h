#ifndef VEAL_TESTS_TESTING_RANDOM_WORKLOADS_H_
#define VEAL_TESTS_TESTING_RANDOM_WORKLOADS_H_

/**
 * @file
 * Shared seeded-workload helpers for the differential test batteries.
 *
 * The batch-equivalence, fuzz-driver, oracle, shrinker, and translation-
 * service tests all stress the same loop distribution (the fuzz stress
 * family behind makeFuzzCaseLoop / makeStressLoop); before this header
 * each test re-implemented its own copy of the case generator, the
 * edge-trip table, and the injected scheduler bug.  Keep the copies
 * here so a distribution change lands everywhere at once.
 */

#include <algorithm>
#include <cstdint>
#include <vector>

#include "veal/fuzz/driver.h"
#include "veal/ir/loop.h"
#include "veal/service/trace.h"
#include "veal/vm/translator.h"

namespace veal::testing {

/** The i-th loop of a seeded fuzz campaign stream. */
inline Loop
caseLoop(std::uint64_t campaign_seed, int index)
{
    return makeFuzzCaseLoop(campaign_seed, index);
}

/** The first @p count loops of a campaign stream, materialized. */
inline std::vector<Loop>
caseLoops(std::uint64_t campaign_seed, int count)
{
    std::vector<Loop> loops;
    loops.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i)
        loops.push_back(caseLoop(campaign_seed, i));
    return loops;
}

/**
 * Iteration counts that straddle the CPU timing model's warm-up and
 * measure-window boundaries (1, 2, 95..97), padded with each loop's own
 * trip count: the standard mixed-trip sweep for grouping-invariance
 * tests.
 */
inline std::int64_t
edgeTripIterations(const std::vector<Loop>& loops, int index)
{
    static constexpr std::int64_t kEdgeTrips[] = {1, 2, 7, 95, 96, 97,
                                                  500};
    if (index < 7)
        return kEdgeTrips[index];
    return loops[static_cast<std::size_t>(index)].tripCount();
}

/**
 * The canonical injected scheduler bug: pull one dependent op to
 * delay - 1 cycles after its producer (an off-by-one a validator must
 * catch), then re-derive length/stage_count so the schedule stays
 * internally consistent.  No-op on schedules without an eligible edge.
 */
inline void
injectOffByOne(TranslationResult& translation)
{
    if (translation.graph == nullptr)
        return;
    const SchedGraph& graph = *translation.graph;
    for (const auto& edge : graph.edges()) {
        if (edge.distance != 0 || edge.delay <= 0 || edge.from == edge.to)
            continue;
        auto& time = translation.schedule.time;
        time[static_cast<std::size_t>(edge.to)] =
            time[static_cast<std::size_t>(edge.from)] + edge.delay - 1;
        int length = 0;
        int max_stage = 0;
        for (std::size_t u = 0; u < time.size(); ++u) {
            length = std::max(length, time[u] + graph.units()[u].latency);
            max_stage = std::max(max_stage,
                                 time[u] / translation.schedule.ii);
        }
        translation.schedule.length = length;
        translation.schedule.stage_count = max_stage + 1;
        return;
    }
}

/**
 * Materialize every distinct loop a service trace references, keyed by
 * its published seed -- what TranslationService::run() does internally,
 * exposed so tests can drive submit()/drainTick() by hand.
 */
inline std::vector<std::pair<std::uint64_t, Loop>>
traceLoopPool(const ServiceTrace& trace)
{
    std::vector<std::pair<std::uint64_t, Loop>> pool;
    for (const auto& tick : trace.ticks) {
        for (const auto& request : tick) {
            const auto seen =
                std::find_if(pool.begin(), pool.end(), [&](const auto& p) {
                    return p.first == request.loop_seed;
                });
            if (seen == pool.end()) {
                pool.emplace_back(request.loop_seed,
                                  makeTraceLoop(request.loop_seed));
            }
        }
    }
    return pool;
}

}  // namespace veal::testing

#endif  // VEAL_TESTS_TESTING_RANDOM_WORKLOADS_H_
