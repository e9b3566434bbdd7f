#ifndef VEAL_SERVICE_SERVICE_H_
#define VEAL_SERVICE_SERVICE_H_

/**
 * @file
 * Translation-as-a-service: the sharded multi-tenant VM front end.
 *
 * N tenants submit loop-translation requests under admission control:
 * per-tenant quotas, then a cap of queue_depth admitted requests per
 * tick, each rejection with its reason.  Each drainTick() serves
 * everything admitted since the last one in four phases over one
 * TickPlan:
 *
 *  - plan (sequential): consult the shared WarmTier and, on a miss,
 *    the persistent store; verify each cached image before trusting
 *    it; fix the cache taxonomy, the translation jobs and the CPU
 *    prices stored CpuProfiles cover: the warm entry's, or on a miss
 *    the blob's, when simulated on this CPU.  Every warm-tier write of
 *    the consult happens here.
 *  - execute (parallel): each worker shard, with a private CodeCache
 *    and BatchSimulator, translates its jobs and simulates its blocks
 *    of the uncovered CPU lanes.
 *  - price: each request's serving summary, its first and warm LA
 *    prices and its TLB charge.
 *  - reduce (sequential): all accounting, warm-tier publication, store
 *    saves (with the CPU profile) and CPU profile memoization.
 *
 * The fault layer is wired through: a cached serve checksums its
 * control image first, a corruption probe invalidates + re-translates,
 * and repeated strikes quarantine the (tenant, key) pair to the CPU
 * path -- tenant-scoped, so one tenant's corrupted entry never pins
 * another tenant's loop.
 *
 * Determinism contract (DESIGN.md §14): for a fixed request trace, the
 * rendered report, the metrics registry, the per-tenant digests, and
 * the cache-hit taxonomy are byte-identical at any --shards/--threads/
 * --batch.  Mechanism: every submission gets a sequence number, the
 * sequential phases decide everything observable in sequence order,
 * and the parallel phase only computes pure functions of the plan.
 * CPU lanes ride the batch engine, whose grouping-invariance guarantee
 * makes shard/batch partitioning semantically invisible.  Every LA
 * price -- fresh, coalesced, warm or persisted serve -- comes from the
 * serving translation's persist::TranslationSummary through
 * persist::servePrice(), so all serves of a key price alike.
 */

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "veal/arch/cpu_config.h"
#include "veal/arch/la_config.h"
#include "veal/fault/fault_injector.h"
#include "veal/fleet/fleet.h"
#include "veal/ir/loop.h"
#include "veal/service/trace.h"
#include "veal/sim/batch.h"
#include "veal/sim/tlb_model.h"
#include "veal/support/fnv.h"
#include "veal/support/metrics/metrics.h"
#include "veal/support/thread_pool.h"
#include "veal/vm/code_cache.h"
#include "veal/vm/persist/store.h"
#include "veal/vm/translator.h"
#include "veal/vm/warm_tier.h"

namespace veal {

/** Service configuration (mirrors the veal-serve CLI). */
struct ServiceOptions {
    /** Worker shards, each with a private CodeCache + BatchSimulator. */
    int shards = 1;

    /**
     * Pool width for the parallel shard phase.  <= 1 runs the shards
     * inline on the calling thread (required when the service itself
     * runs on a ThreadPool worker, e.g. veal-fuzz --service cases --
     * nested pool submission is rejected process-wide).  Never affects
     * results.
     */
    int threads = 1;

    /** CPU simulation lanes per BatchSimulator call.  Never affects
        results. */
    int batch = 16;

    /** Requests admitted per tick (admission control); at least 1. */
    int queue_depth = 64;

    /** Per-tenant admitted-in-flight quota per tick; 0 rejects all. */
    int tenant_quota = 8;

    /** Capacity of each shard's private CodeCache. */
    int shard_cache_entries = 16;

    /** Checksum strikes before a (tenant, key) is quarantined. */
    int quarantine_strikes = 2;

    /** Target accelerator (single-design-point mode). */
    LaConfig la = LaConfig::proposed();

    /**
     * Heterogeneous LA fleet (DESIGN.md §17).  When set and non-empty,
     * the planning phase scores every first-sight key against all
     * backends (scores cached in the warm tier, persisted in v2
     * blobs), the FleetSteerer places it under per-backend capacity,
     * and translation + pricing run against the *chosen* backend's
     * LaConfig instead of `la`.  Unset (or empty) is literally today's
     * single-design-point service.
     */
    std::optional<fleet::FleetConfig> fleet;

    /** Baseline CPU for pricing the non-accelerated path. */
    CpuConfig cpu = CpuConfig::arm11();

    /**
     * When set, every request arms a FaultInjector with
     * FaultPlan::sample(makeServicePlanSeed(*fault_seed, sequence)),
     * exercising corruption/degradation under concurrency.  The fired
     * taxonomy lands in the report and registry (sequence-ordered, so
     * still byte-identical at any shard/thread/batch count).
     */
    std::optional<std::uint64_t> fault_seed;

    /**
     * Directory of the persistent cross-run code cache; empty disables
     * persistence entirely.  When set, fresh translations are saved as
     * checksummed blobs, warm-tier misses consult the store before
     * translating (CacheOutcome::kPersisted), and checksum
     * invalidations delete the on-disk blob so a restart can never
     * resurrect a dropped image.
     */
    std::string cache_dir;

    /** Persistent-store sizing (used when cache_dir is set). */
    persist::StoreOptions store;

    /**
     * TLB cost model for stream accesses.  Off by default: every
     * report and baseline is bit-identical to the pre-TLB service.
     * When enabled, page-walk charges land in the LA invocation prices
     * (execution-side -- translation phase cycles still telescope) and
     * are metered as vm.tlb.*.
     */
    TlbConfig tlb = TlbConfig::off();

    /**
     * Cooperative stop flag (veal-serve's signal handler sets it).
     * run() checks it between ticks: when it flips, the service stops
     * submitting, drains what is already admitted, flushes the
     * persistent store, and returns early.  Null means never stop.
     */
    const std::atomic<bool>* stop = nullptr;
};

/** Why a submission was (or was not) admitted. */
enum class AdmissionOutcome : int {
    kAdmitted = 0,
    kQueueFull,      ///< Tick already admitted queue_depth, or shutdown.
    kQuotaExceeded,  ///< Tenant hit its in-flight quota.
};

/** Outcome name, e.g. "queue-full". */
const char* toString(AdmissionOutcome outcome);

/**
 * How an admitted request's translation was satisfied.  The taxonomy is
 * *logical* (fixed by the sequential planning phase), so it is
 * invariant under shard count.  Planning routes every warm and
 * persisted hit away from the shards, so the shard-private CodeCaches
 * never serve one: their hit rates are physical diagnostics exposed
 * separately via shardCacheStats().
 */
enum class CacheOutcome : int {
    kCold = 0,     ///< First sight of the key: translated this tick.
    kWarm,         ///< Served from the warm tier (earlier tick).
    kCoalesced,    ///< Same-tick duplicate: rode another request's job.
    kInvalidated,  ///< Warm image failed its checksum; re-translated.
    kQuarantined,  ///< (tenant, key) is quarantined; CPU path.
    kPersisted,    ///< Served from the persistent store (earlier run).
};

/** Outcome name, e.g. "coalesced". */
const char* toString(CacheOutcome outcome);

/** One materialized submission. */
struct ServiceRequest {
    int tenant = 0;

    /** The loop to translate. */
    Loop loop{"request"};

    /**
     * Translation identity (tenants share; e.g. traceRequestKey()).  It
     * also names the loop for CPU pricing -- one key, one loop: the
     * key's CpuProfile, in the warm tier and in its blob, prices every
     * later request of the key, whatever its iteration count, in this
     * run and the next.
     */
    std::string key;

    TranslationMode mode = TranslationMode::kFullyDynamic;

    /** Iterations per invocation (prices the CPU/LA comparison). */
    std::int64_t iterations = 12;
};

/** Everything the service decided about one submission. */
struct RequestOutcome {
    std::int64_t sequence = 0;
    int tenant = 0;
    std::string key;
    AdmissionOutcome admission = AdmissionOutcome::kAdmitted;

    /** Meaningful for admitted requests only. */
    CacheOutcome cache = CacheOutcome::kCold;

    /** Final translation verdict (kNone while rejected-at-admission). */
    bool translated_ok = false;
    TranslationReject reject = TranslationReject::kNone;

    /** Degradation rung that produced the translation (cold paths). */
    DegradationRung rung = DegradationRung::kNominal;

    int ii = 0;
    int stage_count = 0;

    /** Translation cycles charged to this request (cold paths only). */
    std::int64_t translation_cycles = 0;

    /** Baseline CPU price for this request's iterations. */
    std::int64_t cpu_cycles = 0;

    /** LA prices (0 when not applicable). */
    std::int64_t la_first_cycles = 0;
    std::int64_t la_warm_cycles = 0;

    /** True when the steady-state LA path beats the CPU baseline. */
    bool la_wins = false;

    /**
     * Fleet backend this request ran on (-1: single-design-point mode,
     * quarantined, or steered to the CPU-fallback rung).  NOT folded
     * into the tenant digest, so a one-backend fleet's digests are
     * bit-identical to the fleetless service.
     */
    int backend = -1;
};

/** The request counters a tenant and the whole service both keep. */
struct RequestCounts {
    std::int64_t submitted = 0;
    std::int64_t admitted = 0;
    std::int64_t rejected_queue = 0;
    std::int64_t rejected_quota = 0;

    /** One counter per CacheOutcome. */
    std::int64_t cold = 0;
    std::int64_t warm = 0;
    std::int64_t coalesced = 0;
    std::int64_t invalidated = 0;
    std::int64_t quarantined = 0;
    std::int64_t persisted = 0;

    std::int64_t translate_ok = 0;
};

/** Per-tenant accumulated results. */
struct TenantReport : RequestCounts {
    std::int64_t translate_reject = 0;

    /**
     * FNV-1a fold of every RequestOutcome field, updated in sequence
     * order -- the per-tenant results digest of the determinism
     * contract.  Byte-identical at any shard/thread/batch count.
     */
    std::uint64_t digest = kFnvOffsetBasis;
};

/** Whole-service accumulated results. */
struct ServiceReport : RequestCounts {
    std::int64_t ticks = 0;

    std::map<std::string, std::int64_t> rejects;  ///< By reject name.
    std::map<std::string, std::int64_t> rungs;    ///< By rung name.

    std::int64_t path_la = 0;
    std::int64_t path_cpu = 0;

    std::int64_t translation_cycles = 0;
    std::int64_t cpu_cycles = 0;
    std::int64_t la_first_cycles = 0;
    std::int64_t la_warm_cycles = 0;

    /** TLB-model charges folded into the LA prices (0 when disabled). */
    std::int64_t tlb_pages = 0;
    std::int64_t tlb_walks = 0;
    std::int64_t tlb_cycles = 0;

    /** Quarantined (tenant, key) pairs currently in force. */
    std::int64_t quarantined_pairs = 0;

    /** Fault taxonomy summed over every request's injector. */
    std::map<std::string, std::int64_t> fault_fired;
    std::map<std::string, std::int64_t> fault_probes;

    // Fleet steering (all zero / empty when fleet mode is off, and the
    // fleet render lines are omitted entirely -- a fleetless report is
    // byte-identical to the pre-fleet service).
    bool fleet_enabled = false;
    std::int64_t fleet_backends = 0;

    /** Requests served per backend name (traffic-weighted histogram). */
    std::map<std::string, std::int64_t> fleet_placed;

    std::int64_t fleet_spills = 0;         ///< Placements past rank 0.
    std::int64_t fleet_cpu_fallbacks = 0;  ///< Requests on the CPU rung.
    std::int64_t fleet_scores_computed = 0;   ///< Fresh scoring passes.
    std::int64_t fleet_scores_persisted = 0;  ///< Rehydrated from blobs.

    std::map<int, TenantReport> tenants;

    /**
     * Deterministic text report: identical at any shard/thread/batch
     * count (contains no configuration echo of those knobs).
     */
    std::string render() const;
};

/** Per-request fault-plan seed (exposed so tests can replay one). */
std::uint64_t makeServicePlanSeed(std::uint64_t fault_seed,
                                  std::int64_t sequence);

/**
 * The long-running translation front end; see file comment.
 *
 * Thread-safety: none -- call submit()/drainTick()/run() from one
 * driver thread.  The service parallelizes only its shard phase,
 * internally.
 */
class TranslationService {
  public:
    explicit TranslationService(ServiceOptions options,
                                metrics::Registry* registry = nullptr);

    /**
     * Submit @p request: assigns the next sequence number, applies the
     * tenant quota, then the per-tick queue_depth cap.  Rejected
     * submissions are still accounted (at the next drainTick(), in
     * sequence order).
     */
    AdmissionOutcome submit(ServiceRequest request);

    /**
     * Drain everything admitted since the last drain as one tick: plan,
     * execute, price and reduce (see file comment).
     */
    void drainTick();

    /**
     * Replay @p trace (submit each tick, drain it) and return report().
     * When ServiceOptions::stop flips mid-replay the remaining ticks are
     * dropped and shutdown() runs instead -- the report then covers a
     * clean prefix of the trace (every admitted request fully drained,
     * store flushed), never a half-accounted tick.
     */
    const ServiceReport& run(const ServiceTrace& trace);

    /**
     * Stop admitting: every later submit() reports kQueueFull while
     * already-admitted work stays drainable.  Idempotent.
     */
    void beginShutdown();

    /**
     * Graceful shutdown: beginShutdown(), drain the in-flight tick
     * (full accounting, persists included), then flush the store's
     * manifest snapshot.  Idempotent; the service stays readable
     * (report(), stores) afterwards.
     */
    void shutdown();

    /** True once beginShutdown()/shutdown() ran (or the stop flag hit). */
    bool shuttingDown() const { return shutting_down_; }

    const ServiceReport& report() const { return report_; }

    /** Outcomes of the most recent tick, in sequence order (tests). */
    const std::vector<RequestOutcome>& lastTickOutcomes() const
    {
        return last_tick_outcomes_;
    }

    // --- Physical diagnostics.  Shard-local cache hit rates depend on
    // the shard count by nature; they are exposed for tests and stderr
    // reporting but never enter the deterministic report or registry.

    CodeCache::Stats shardCacheStats(int shard) const;

    const WarmTier& warmTier() const { return warm_; }

    /** The persistent store, or null when cache_dir is empty. */
    const persist::PersistentStore* persistentStore() const
    {
        return persistent_.get();
    }

    /**
     * Write the store's MANIFEST now (also happens on destruction) --
     * call before handing the cache directory to another process.
     */
    void flushPersistentStore();

  private:
    struct Pending {
        ServiceRequest request;
        std::int64_t sequence = 0;
    };

    /** One submission's accounting stub (all submissions, in order). */
    struct LogEntry {
        std::int64_t sequence = 0;
        int tenant = 0;
        std::string key;
        AdmissionOutcome admission = AdmissionOutcome::kAdmitted;
    };

    /** One tick's requests, decisions and products; drainTick()
        passes it from phase to phase. */
    struct TickPlan;

    TickPlan planTick(std::vector<Pending> admitted);
    void executeTick(TickPlan& tick);
    void priceTick(TickPlan& tick) const;
    void reduceTick(TickPlan& tick);

    ServiceOptions options_;
    metrics::Registry* registry_ = nullptr;
    /** persist::cpuSignature(options_.cpu): the blobs whose CPU profile
        prices this service's baseline. */
    std::uint64_t cpu_signature_ = 0;

    std::vector<Pending> admitted_;  ///< This tick's, in sequence order.
    std::vector<LogEntry> tick_log_;
    std::map<int, int> inflight_;  ///< Tenant -> admitted this tick.
    std::int64_t next_sequence_ = 0;

    WarmTier warm_;
    std::unique_ptr<persist::PersistentStore> persistent_;
    std::vector<std::unique_ptr<CodeCache>> shard_caches_;
    std::vector<std::unique_ptr<BatchSimulator>> shard_sims_;

    /** Fleet mode (engaged when options_.fleet is set and non-empty). */
    bool fleetEnabled() const { return scorer_.has_value(); }

    /** The pricing config of @p backend (-1: the single design point). */
    const LaConfig& laFor(int backend) const;

    std::optional<fleet::BackendScorer> scorer_;
    std::optional<fleet::FleetSteerer> steerer_;

    /** Strikes per (tenant, key); quarantine at options_.quarantine_strikes. */
    std::map<std::pair<int, std::string>, int> strikes_;
    std::set<std::pair<int, std::string>> quarantined_;

    std::unique_ptr<ThreadPool> pool_;  ///< Lazy; threads > 1 only.

    bool shutting_down_ = false;

    ServiceReport report_;
    std::vector<RequestOutcome> last_tick_outcomes_;
};

}  // namespace veal

#endif  // VEAL_SERVICE_SERVICE_H_
