#ifndef VEAL_BENCH_PERSIST_H_
#define VEAL_BENCH_PERSIST_H_

/**
 * @file
 * Cold-vs-warm-start persistence study (veal-bench --mode persist).
 *
 * One invocation runs a fixed, seed-derived service trace three ways
 * against one on-disk code cache (vm/persist/store.h):
 *
 *   1. *cold* -- a fresh cache directory; every distinct key pays full
 *      translation and the store is populated,
 *   2. *warm* -- a fresh TranslationService process-equivalent over the
 *      populated store, --runs timed passes, and
 *   3. a warm *matrix* pass across several --shards/--threads/--batch
 *      shapes, and
 *   4. a log-structured *lifecycle* pass: timed recovery opens over the
 *      populated directory, then a churn-and-compact study (every key
 *      re-saved for several generations, then compacted to a fixpoint)
 *      whose byte counts are modeled.
 *
 * The contracts this bench pins, asserted in-process every run:
 * every warm report renders byte-identical to every other warm report
 * (including the whole matrix), warm translation cycles are *zero*
 * (every key is served from the store).  tests/bench_golden_test.cc
 * pins the modeled block and holds the cold/warm translation-cycle
 * ratio to at least 10x.
 *
 * Wall-clock per-phase timings go to stderr and the envelope only;
 * every other field is modeled and byte-stable.
 */

#include "bench/report.h"

namespace veal::bench {

/**
 * Run the study against a scratch cache directory under the system temp
 * dir (created fresh, removed on exit), options.runs timed passes per
 * phase; per-phase timing prints to stderr.
 *
 * Modeled block, in order: the fixed trace shape (requests, loops,
 * tenants); cold_translation_cycles; warm_translation_cycles (asserted
 * zero); translation_cycle_ratio (cold / max(warm, 1), the warm-start
 * win); cold_persisted (store entries the cold run saved);
 * warm_persisted (requests served from the store); cold_report_digest
 * and warm_report_digest (FNV over the rendered reports); then the
 * lifecycle study: recovered_entries (entries a recovery open sees),
 * churn_rounds, churn_log_bytes (log size after churn, fully-garbage
 * segments auto-compacted), compacted_log_bytes (at the compaction
 * fixpoint), compaction_reclaimed_bytes and compactions.  Wall block:
 * cold_p50_ms, warm_p50_ms and recover_p50_ms.
 */
ModeReport runPersistBench(const ModeOptions& options);

}  // namespace veal::bench

#endif  // VEAL_BENCH_PERSIST_H_
