#include "veal/service/service.h"

#include <algorithm>
#include <array>
#include <iomanip>
#include <sstream>

#include "veal/fault/fault_plan.h"
#include "veal/support/assert.h"
#include "veal/support/fnv.h"
#include "veal/support/rng.h"

namespace veal {

namespace {

/**
 * Canonical iteration count backend scores are computed at.  Keys are
 * scored once (a key's per-request iteration counts vary, its placement
 * must not), so scores use this fixed count; blobs and the fleet
 * signature carry it.
 */
constexpr std::int64_t kFleetScoringIterations = 12;

/** Fold every field of @p outcome into @p digest (sequence-ordered). */
std::uint64_t
foldOutcome(std::uint64_t digest, const RequestOutcome& outcome)
{
    digest = fnvFold64(digest, static_cast<std::uint64_t>(outcome.sequence));
    digest = fnvFold64(digest, static_cast<std::uint64_t>(outcome.tenant));
    digest = fnvFold64(digest, static_cast<std::uint64_t>(outcome.admission));
    digest = fnvFold64(digest, static_cast<std::uint64_t>(outcome.cache));
    digest = fnvFold64(digest, outcome.translated_ok ? 1 : 0);
    digest = fnvFold64(digest, static_cast<std::uint64_t>(outcome.reject));
    digest = fnvFold64(digest, static_cast<std::uint64_t>(outcome.rung));
    digest = fnvFold64(digest, static_cast<std::uint64_t>(outcome.ii));
    digest = fnvFold64(digest, static_cast<std::uint64_t>(outcome.stage_count));
    digest = fnvFold64(digest,
                  static_cast<std::uint64_t>(outcome.translation_cycles));
    digest = fnvFold64(digest, static_cast<std::uint64_t>(outcome.cpu_cycles));
    digest = fnvFold64(digest,
                  static_cast<std::uint64_t>(outcome.la_first_cycles));
    digest = fnvFold64(digest,
                  static_cast<std::uint64_t>(outcome.la_warm_cycles));
    digest = fnvFold64(digest, outcome.la_wins ? 1 : 0);
    return digest;
}

void
renderCountMap(std::ostringstream& os, const char* label,
               const std::map<std::string, std::int64_t>& counts)
{
    os << label << ":";
    if (counts.empty()) {
        os << " none";
    } else {
        for (const auto& [name, count] : counts)
            os << " " << name << "=" << count;
    }
    os << "\n";
}

/** The RequestCounts counter of each CacheOutcome, in enum order. */
constexpr std::array<std::int64_t RequestCounts::*, 6> kCacheCounters = {
    &RequestCounts::cold,        &RequestCounts::warm,
    &RequestCounts::coalesced,   &RequestCounts::invalidated,
    &RequestCounts::quarantined, &RequestCounts::persisted,
};

/**
 * Verify-before-trust of a cached control image, as the hardened VM
 * does before a cached dispatch.  The cache-corruption probe of
 * @p injector flips one bit of a *copy* of @p words (null or empty: a
 * negative entry, nothing to verify), and the copy must still match
 * @p expected -- the checksum stored at publish, or, when unset, that
 * of the untouched words.  True when it does not.
 */
bool
corruptedOnServe(std::optional<FaultInjector>& injector,
                 const std::vector<std::uint32_t>* words,
                 std::optional<std::uint32_t> expected)
{
    if (!injector.has_value() || words == nullptr || words->empty() ||
        !injector->probe(FaultSite::kCacheCorruption))
        return false;
    ControlImage copy = ControlImage::fromWords(*words);
    const std::uint32_t stored = expected.value_or(copy.checksum());
    copy.flipBit(injector->corruptionBit(copy.words().size() * 32));
    return copy.checksum() != stored;
}

}  // namespace

const char*
toString(AdmissionOutcome outcome)
{
    switch (outcome) {
      case AdmissionOutcome::kAdmitted: return "admitted";
      case AdmissionOutcome::kQueueFull: return "queue-full";
      case AdmissionOutcome::kQuotaExceeded: return "quota-exceeded";
    }
    return "unknown";
}

const char*
toString(CacheOutcome outcome)
{
    switch (outcome) {
      case CacheOutcome::kCold: return "cold";
      case CacheOutcome::kWarm: return "warm";
      case CacheOutcome::kCoalesced: return "coalesced";
      case CacheOutcome::kInvalidated: return "invalidated";
      case CacheOutcome::kQuarantined: return "quarantined";
      case CacheOutcome::kPersisted: return "persisted";
    }
    return "unknown";
}

std::uint64_t
makeServicePlanSeed(std::uint64_t fault_seed, std::int64_t sequence)
{
    // Same index-addressable stream split as the fuzzer's mixSeed, with
    // a service-local salt so a service request never aliases a fuzz
    // case's fault plan.
    Rng rng(fault_seed ^
            (0x9e3779b97f4a7c15ull *
             (static_cast<std::uint64_t>(sequence) + 1)) ^
            0x5e47ull);
    return rng.next();
}

std::string
ServiceReport::render() const
{
    std::ostringstream os;
    os << "veal-serve: ticks=" << ticks << " submitted=" << submitted
       << " admitted=" << admitted << " rejected="
       << (rejected_queue + rejected_quota) << " tenants="
       << tenants.size() << "\n";
    os << "admission: queue-full=" << rejected_queue
       << " quota-exceeded=" << rejected_quota << "\n";
    os << "cache: cold=" << cold << " warm=" << warm << " coalesced="
       << coalesced << " invalidated=" << invalidated << " quarantined="
       << quarantined << " persisted=" << persisted << "\n";
    os << "translate: ok=" << translate_ok << "\n";
    renderCountMap(os, "rejects", rejects);
    renderCountMap(os, "rungs", rungs);
    os << "path: la=" << path_la << " cpu=" << path_cpu << "\n";
    os << "cycles: translation=" << translation_cycles << " cpu="
       << cpu_cycles << " la-first=" << la_first_cycles << " la-warm="
       << la_warm_cycles << "\n";
    os << "tlb: pages=" << tlb_pages << " walks=" << tlb_walks
       << " cycles=" << tlb_cycles << "\n";
    os << "quarantined-pairs=" << quarantined_pairs << "\n";
    // Fleet lines only in fleet mode: a fleetless report stays
    // byte-identical to the pre-fleet service.
    if (fleet_enabled) {
        os << "fleet: backends=" << fleet_backends << " spills="
           << fleet_spills << " cpu-fallback=" << fleet_cpu_fallbacks
           << " scores-computed=" << fleet_scores_computed
           << " scores-persisted=" << fleet_scores_persisted << "\n";
        renderCountMap(os, "fleet-placed", fleet_placed);
    }
    renderCountMap(os, "fault-fired", fault_fired);
    renderCountMap(os, "fault-probes", fault_probes);
    os << std::left << std::setw(8) << "tenant" << std::right
       << std::setw(10) << "submitted" << std::setw(10) << "admitted"
       << std::setw(8) << "rej-q" << std::setw(10) << "rej-quota"
       << std::setw(6) << "cold" << std::setw(6) << "warm"
       << std::setw(6) << "coal" << std::setw(7) << "inval"
       << std::setw(6) << "quar" << std::setw(6) << "pers"
       << std::setw(5) << "ok" << std::setw(5) << "rej"
       << "  digest\n";
    for (const auto& [tenant, stats] : tenants) {
        os << std::left << std::setw(8) << tenant << std::right
           << std::setw(10) << stats.submitted << std::setw(10)
           << stats.admitted << std::setw(8) << stats.rejected_queue
           << std::setw(10) << stats.rejected_quota << std::setw(6)
           << stats.cold << std::setw(6) << stats.warm << std::setw(6)
           << stats.coalesced << std::setw(7) << stats.invalidated
           << std::setw(6) << stats.quarantined << std::setw(6)
           << stats.persisted << std::setw(5)
           << stats.translate_ok << std::setw(5)
           << stats.translate_reject << "  " << std::hex
           << std::setw(16) << std::setfill('0') << stats.digest
           << std::dec << std::setfill(' ') << "\n";
    }
    return os.str();
}

TranslationService::TranslationService(ServiceOptions options,
                                       metrics::Registry* registry)
    : options_(std::move(options)),
      registry_(registry),
      cpu_signature_(persist::cpuSignature(options_.cpu))
{
    if (!options_.cache_dir.empty()) {
        persistent_ = std::make_unique<persist::PersistentStore>(
            options_.cache_dir, options_.store, registry_);
    }
    const int shards = std::max(1, options_.shards);
    shard_caches_.reserve(static_cast<std::size_t>(shards));
    shard_sims_.reserve(static_cast<std::size_t>(shards));
    for (int s = 0; s < shards; ++s) {
        shard_caches_.push_back(std::make_unique<CodeCache>(
            std::max(1, options_.shard_cache_entries)));
        shard_sims_.push_back(std::make_unique<BatchSimulator>());
    }
    if (options_.fleet.has_value() && options_.fleet->enabled()) {
        scorer_.emplace(*options_.fleet, options_.cpu, options_.tlb,
                        kFleetScoringIterations);
        steerer_.emplace(*options_.fleet);
        report_.fleet_enabled = true;
        report_.fleet_backends = options_.fleet->size();
    }
}

const LaConfig&
TranslationService::laFor(int backend) const
{
    if (backend < 0 || !fleetEnabled())
        return options_.la;
    VEAL_ASSERT(backend < options_.fleet->size());
    return options_.fleet->backends[static_cast<std::size_t>(backend)].la;
}

AdmissionOutcome
TranslationService::submit(ServiceRequest request)
{
    const std::int64_t sequence = next_sequence_++;
    LogEntry log;
    log.sequence = sequence;
    log.tenant = request.tenant;
    log.key = request.key;

    // Quota first (a hogging tenant is rejected even when the tick has
    // room), then the tick's own cap.  Every tick drains all it
    // admitted, so this is a queue of queue_depth that shutdown closes.
    const auto depth =
        static_cast<std::size_t>(std::max(1, options_.queue_depth));
    if (inflight_[request.tenant] >= options_.tenant_quota) {
        log.admission = AdmissionOutcome::kQuotaExceeded;
    } else if (shutting_down_ || admitted_.size() >= depth) {
        log.admission = AdmissionOutcome::kQueueFull;
    } else {
        log.admission = AdmissionOutcome::kAdmitted;
        ++inflight_[log.tenant];
        admitted_.push_back(Pending{std::move(request), sequence});
    }
    tick_log_.push_back(log);
    return log.admission;
}

/**
 * One tick: its admitted requests, what planning decided for each, and
 * what the later phases computed from that.  drainTick() passes it from
 * phase to phase; no other state flows between the phases.
 */
struct TranslationService::TickPlan {
    /** A fresh translation.  Its inputs -- loop, key, mode, backend and
        fault stream -- are its owner's request and plan. */
    struct Job {
        std::size_t owner = 0;  ///< Admitted index of the planning request.
        // Execute-phase products.
        LadderOutcome ladder;
        std::optional<ControlImage> image;
        /** The ladder result's summary: the store record, the warm-tier
            entry and every LA price of this job's serves. */
        persist::TranslationSummary summary;
    };

    /** What one admitted request was planned and priced at. */
    struct PlanInfo {
        CacheOutcome cache = CacheOutcome::kCold;
        /** The job serving this request: its own when it translates,
            its provider's when coalesced (-1: none). */
        int job = -1;
        WarmTier::EntryRef warm_entry;
        /** Persisted serve: the store-loaded blob (shared per tick). */
        std::shared_ptr<const persist::PersistedImage> persisted;
        /** The request's fault stream (fault_seed set, not quarantined
            at planning): the consult's verify probes it, and the job the
            request owns borrows it to translate. */
        std::optional<FaultInjector> injector;
        // Fleet steering (all no-ops when --fleet is off).
        int backend = -1;        ///< Serving backend (-1: baseline/CPU).
        bool placed_now = false; ///< Placement minted by this request.
        int spill_rank = 0;      ///< Candidate rank the placement took.
        enum class ScoreSource { kNone, kComputed, kWarm, kPersisted };
        ScoreSource score_source = ScoreSource::kNone;
        int cpu_lane = -1;  ///< Into cpu_lanes (-1: priced in planning).
        /** The stored profile that priced the CPU baseline in planning --
            the key's warm entry's or its blob's, sharing its owner. */
        std::shared_ptr<const CpuProfile> cpu_profile;
        // Price-phase products; the LA prices only for an ok summary.
        const persist::TranslationSummary* summary = nullptr;
        persist::ServePrice la_first;  ///< The job owner's only.
        persist::ServePrice la_warm;
    };

    std::int64_t epoch = 0;
    std::vector<Pending> admitted;  ///< In sequence order.
    std::vector<PlanInfo> plans;    ///< One per admitted request.
    std::vector<Job> jobs;
    std::vector<std::int64_t> cpu_cycles;   ///< One per admitted request.
    std::vector<std::size_t> cpu_lanes;     ///< Admitted indices, in order.
    std::vector<CpuProfile> lane_profiles;  ///< One per CPU lane.

    /** True when admitted request @p i owns its job (it translated). */
    bool fresh(std::size_t i) const
    {
        const int job = plans[i].job;
        return job >= 0 && jobs[static_cast<std::size_t>(job)].owner == i;
    }
};

void
TranslationService::drainTick()
{
    ++report_.ticks;
    if (registry_ != nullptr)
        registry_->add("service.ticks");
    TickPlan tick = planTick(std::exchange(admitted_, {}));
    executeTick(tick);
    priceTick(tick);
    reduceTick(tick);
}

/**
 * Plan, sequential in sequence order: take the tick and fix the logical
 * cache taxonomy (so it is shard-count invariant) and the fresh
 * translation jobs; price the baseline CPU of every request whose key's
 * warm entry -- or, without one, whose blob, simulated on this CPU --
 * holds a CpuProfile (the rest become CPU lanes); and perform every
 * warm-tier write of the consult, so the parallel phase never touches
 * the tier.
 */
TranslationService::TickPlan
TranslationService::planTick(std::vector<Pending> admitted)
{
    using PlanInfo = TickPlan::PlanInfo;
    TickPlan tick;
    tick.epoch = report_.ticks;
    tick.admitted = std::move(admitted);  // submit() appends in order.
    tick.plans.resize(tick.admitted.size());
    tick.cpu_cycles.assign(tick.admitted.size(), 0);

    const auto price_cpu = [&](std::size_t i,
                               std::shared_ptr<const CpuProfile> profile) {
        const std::int64_t iterations = tick.admitted[i].request.iterations;
        if (profile != nullptr && profile->covers(iterations)) {
            tick.cpu_cycles[i] = profile->totalAt(iterations);
            tick.plans[i].cpu_profile = std::move(profile);
        } else {
            tick.plans[i].cpu_lane = static_cast<int>(tick.cpu_lanes.size());
            tick.cpu_lanes.push_back(i);
        }
    };
    const auto entry_profile = [](const WarmTier::EntryRef& entry) {
        return entry == nullptr ? nullptr
                                : std::shared_ptr<const CpuProfile>(
                                      entry, &entry->cpu_profile);
    };
    std::map<std::string, int> tick_provider;  // key -> job index.
    // One store load per key per tick: later same-tick requests share
    // the first load's blob (and its hit accounting).
    std::map<std::string, std::shared_ptr<const persist::PersistedImage>>
        tick_persisted;
    // A cached image failed its verify: drop the key everywhere -- warm
    // tier, shard caches, the persistent store (a surviving blob would
    // resurrect the image on the next run) and this tick's loads --
    // then strike the (tenant, key) pair.  True when that quarantines
    // it; otherwise the request re-translates.
    const auto strike = [&](const std::pair<int, std::string>& qkey) {
        const std::string& key = qkey.second;
        warm_.invalidate(key);
        for (const auto& cache : shard_caches_)
            cache->erase(key);
        if (persistent_ != nullptr)
            persistent_->invalidate(key);
        tick_persisted.erase(key);
        const int strikes = ++strikes_[qkey];
        if (registry_ != nullptr)
            registry_->trace("service", "invalidate", key, strikes);
        if (strikes < options_.quarantine_strikes)
            return false;
        quarantined_.insert(qkey);
        return true;
    };

    for (std::size_t i = 0; i < tick.admitted.size(); ++i) {
        const ServiceRequest& request = tick.admitted[i].request;
        PlanInfo& plan = tick.plans[i];
        const auto qkey = std::make_pair(request.tenant, request.key);
        if (quarantined_.count(qkey) != 0) {
            plan.cache = CacheOutcome::kQuarantined;
            price_cpu(i, entry_profile(warm_.find(request.key)));
            continue;
        }
        if (options_.fault_seed.has_value()) {
            plan.injector.emplace(FaultPlan::sample(makeServicePlanSeed(
                *options_.fault_seed, tick.admitted[i].sequence)));
        }

        // Fleet steering: a key's placement is sticky for the whole
        // run -- minted on first cold scoring (or rehydrated from a
        // persisted blob) and consulted by every later serve.
        std::optional<fleet::Placement> placement;
        if (fleetEnabled())
            placement = steerer_->lookup(request.key);
        const auto place = [&](const persist::FleetScoreSet& scores,
                               PlanInfo::ScoreSource source) {
            placement = steerer_->place(request.key, scores);
            plan.placed_now = true;
            plan.spill_rank = placement->spill_rank;
            plan.score_source = source;
        };

        // Consult the warm tier, then the store on a miss: one real
        // load per key per tick, skipped when a same-tick job is
        // already translating the key.
        WarmTier::EntryRef entry = warm_.serve(request.key);
        std::shared_ptr<const CpuProfile> profile = entry_profile(entry);
        std::shared_ptr<const persist::PersistedImage> blob;
        if (entry == nullptr && persistent_ != nullptr) {
            if (const auto cached = tick_persisted.find(request.key);
                cached != tick_persisted.end()) {
                blob = cached->second;
            } else if (tick_provider.count(request.key) == 0) {
                if (auto image = persistent_->load(request.key)) {
                    blob = std::make_shared<const persist::PersistedImage>(
                        std::move(*image));
                    tick_persisted[request.key] = blob;
                }
            }
            // A blob simulated on this CPU prices the baseline with its
            // profile, also when the fleet gate below does not serve it.
            if (blob != nullptr && blob->cpu_signature == cpu_signature_)
                profile = {blob, &blob->cpu_profile};
            // Fleet gate: a blob is only fleet-servable when it carries
            // scores minted under this exact fleet AND its translation
            // targets the backend the steerer picks.  Anything else is
            // a miss; the cold retranslation overwrites the blob with
            // freshly-scored contents.
            if (blob != nullptr && fleetEnabled()) {
                const auto& s = blob->summary;
                const bool usable =
                    s.fleet.has_value() &&
                    s.fleet->signature == scorer_->signature();
                if (usable && !placement.has_value()) {
                    auto scores =
                        std::make_shared<const persist::FleetScoreSet>(
                            *s.fleet);
                    warm_.publishScores(request.key, scores);
                    place(*scores, PlanInfo::ScoreSource::kPersisted);
                }
                if (!usable || placement->backend < 0 ||
                    placement->backend != s.fleet_backend)
                    blob = nullptr;
            }
        }
        price_cpu(i, std::move(profile));

        if (entry != nullptr || blob != nullptr) {
            // Verify before trust.  A blob's FNV checksum validated on
            // load, but the image can still be corrupted between load
            // and dispatch.
            const bool corrupted =
                entry != nullptr
                    ? corruptedOnServe(plan.injector,
                                       entry->image.has_value()
                                           ? &entry->image->words()
                                           : nullptr,
                                       entry->expected_checksum)
                    : corruptedOnServe(plan.injector, &blob->image_words,
                                       std::nullopt);
            if (!corrupted && entry != nullptr) {
                plan.cache = CacheOutcome::kWarm;
                plan.backend = entry->backend;
                plan.warm_entry = std::move(entry);
                continue;
            }
            if (!corrupted) {
                plan.cache = CacheOutcome::kPersisted;
                if (fleetEnabled())
                    plan.backend = blob->summary.fleet_backend;
                plan.persisted = std::move(blob);
                continue;
            }
            if (strike(qkey)) {
                plan.cache = CacheOutcome::kQuarantined;
                continue;
            }
            plan.cache = CacheOutcome::kInvalidated;
        } else if (const auto provider = tick_provider.find(request.key);
                   provider != tick_provider.end()) {
            plan.cache = CacheOutcome::kCoalesced;
            plan.job = provider->second;
            const std::size_t owner =
                tick.jobs[static_cast<std::size_t>(plan.job)].owner;
            plan.backend = tick.plans[owner].backend;
            continue;
        } else {
            plan.cache = CacheOutcome::kCold;
        }

        if (fleetEnabled()) {
            // Score-and-place before committing to a translation job.
            // Scores are a pure function of (loop, mode, fleet) at the
            // canonical scoring iteration count, so they are cached in
            // the warm tier's side table and survive invalidations.
            if (!placement.has_value()) {
                WarmTier::ScoreRef scores = warm_.findScores(request.key);
                auto source = PlanInfo::ScoreSource::kWarm;
                if (scores == nullptr) {
                    scores =
                        std::make_shared<const persist::FleetScoreSet>(
                            scorer_->score(request.loop, request.mode));
                    warm_.publishScores(request.key, scores);
                    source = PlanInfo::ScoreSource::kComputed;
                }
                place(*scores, source);
            }
            plan.backend = placement->backend;
            // Every viable backend is saturated: steer this key to the
            // CPU without burning a translation job.  The reduction
            // accounts it as a fleet CPU fallback.
            if (plan.backend < 0)
                continue;
        }
        plan.job = static_cast<int>(tick.jobs.size());
        tick_provider[request.key] = plan.job;
        tick.jobs.emplace_back().owner = i;
    }
    return tick;
}

/**
 * Execute, in parallel: jobs round-robin over shards by index, CPU
 * lanes by --batch block.  A shard touches only its own CodeCache and
 * BatchSimulator, and writes only its jobs' products, their owners'
 * fault streams, and its lanes' cpu_cycles and lane_profiles slots.
 * Everything computed here is a pure function of the plan, and the
 * batch engine's grouping invariance makes the shard/batch partition of
 * the CPU lanes semantically invisible.
 */
void
TranslationService::executeTick(TickPlan& tick)
{
    if (tick.jobs.empty() && tick.cpu_lanes.empty())
        return;
    const int shards = std::max(1, options_.shards);
    const std::size_t batch =
        static_cast<std::size_t>(std::max(1, options_.batch));
    tick.lane_profiles.resize(tick.cpu_lanes.size());
    const auto run_shard = [&](int shard) {
        BatchSimulator& sim =
            *shard_sims_[static_cast<std::size_t>(shard)];
        CodeCache& cache =
            *shard_caches_[static_cast<std::size_t>(shard)];

        // (a) Translate this shard's jobs.
        for (std::size_t j = static_cast<std::size_t>(shard);
             j < tick.jobs.size(); j += static_cast<std::size_t>(shards)) {
            TickPlan::Job& job = tick.jobs[j];
            const ServiceRequest& request = tick.admitted[job.owner].request;
            TickPlan::PlanInfo& owner = tick.plans[job.owner];
            cache.lookup(request.key);
            job.ladder = climbTranslationLadder(
                request.loop, laFor(owner.backend), request.mode, nullptr,
                owner.injector.has_value() ? &*owner.injector : nullptr);
            job.summary = persist::summarize(job.ladder.translation);
            if (job.ladder.translation.ok) {
                job.image = ControlImage::encode(request.loop,
                                                 job.ladder.translation);
                cache.insert(request.key);
            }
        }

        // (b) Simulate this shard's --batch blocks of the uncovered CPU
        // lanes, keeping each run's profile for the reduction.
        std::vector<CpuProfile> profiles;
        for (std::size_t begin = static_cast<std::size_t>(shard) * batch;
             begin < tick.cpu_lanes.size();
             begin += static_cast<std::size_t>(shards) * batch) {
            const std::size_t end =
                std::min(begin + batch, tick.cpu_lanes.size());
            std::vector<CpuSimRequest> lanes;
            lanes.reserve(end - begin);
            for (std::size_t l = begin; l < end; ++l) {
                const ServiceRequest& request =
                    tick.admitted[tick.cpu_lanes[l]].request;
                lanes.push_back({&request.loop, request.iterations});
            }
            const auto timings =
                sim.simulateCpuBatch(options_.cpu, lanes, &profiles);
            for (std::size_t l = begin; l < end; ++l) {
                tick.cpu_cycles[tick.cpu_lanes[l]] =
                    timings[l - begin].total_cycles;
                tick.lane_profiles[l] = std::move(profiles[l - begin]);
            }
        }
    };
    if (options_.threads > 1) {
        if (pool_ == nullptr)
            pool_ = std::make_unique<ThreadPool>(options_.threads);
        parallelFor(*pool_, shards, run_shard);
    } else {
        for (int shard = 0; shard < shards; ++shard)
            run_shard(shard);
    }
}

/**
 * Price: each admitted request's serving summary -- its own or its
 * provider's job, its warm entry or its persisted blob -- and, when that
 * translation is ok, its LA prices at its own iteration count on its
 * serving backend: the first invocation only for the request that
 * translated, the warm one for every serve.  TLB page-walk charges
 * (opt-in) ride on top -- execution-side, so translation phase cycles
 * still telescope.
 */
void
TranslationService::priceTick(TickPlan& tick) const
{
    for (std::size_t i = 0; i < tick.plans.size(); ++i) {
        TickPlan::PlanInfo& plan = tick.plans[i];
        if (plan.job >= 0) {
            plan.summary =
                &tick.jobs[static_cast<std::size_t>(plan.job)].summary;
        } else if (plan.warm_entry != nullptr) {
            plan.summary = &plan.warm_entry->summary;
        } else if (plan.persisted != nullptr) {
            plan.summary = &plan.persisted->summary;
        }
        if (plan.summary == nullptr || !plan.summary->ok)
            continue;
        const auto price = [&](bool first_invocation) {
            return persist::servePrice(
                *plan.summary, laFor(plan.backend), options_.tlb,
                tick.admitted[i].request.iterations, first_invocation);
        };
        if (tick.fresh(i))
            plan.la_first = price(true);
        plan.la_warm = price(false);
    }
}

/**
 * Reduce, sequential over the full submission log (rejections included)
 * in sequence order.  ALL accounting -- registry counters, tenant
 * digests, warm-tier publication and CPU profile memoization -- lives
 * here, which is the whole determinism argument: nothing observable
 * depends on how the execute phase was partitioned.
 */
void
TranslationService::reduceTick(TickPlan& tick)
{
    last_tick_outcomes_.clear();
    std::int64_t audited_cycles = 0;
    std::int64_t charged_cycles = 0;
    std::array<std::int64_t, kNumFaultSites> fired{};
    std::array<std::int64_t, kNumFaultSites> probed{};
    std::size_t admitted_cursor = 0;
    // Add @p delta to a report counter and to its registry twin.
    const auto tally = [&](std::int64_t& counter, const std::string& name,
                           std::int64_t delta = 1) {
        counter += delta;
        if (registry_ != nullptr)
            registry_->add(name, delta);
    };

    for (const LogEntry& log : tick_log_) {
        RequestOutcome out;
        out.sequence = log.sequence;
        out.tenant = log.tenant;
        out.key = log.key;
        out.admission = log.admission;

        TenantReport& tenant = report_.tenants[log.tenant];
        const auto count = [&](std::int64_t RequestCounts::*counter) {
            ++(tenant.*counter);
            ++(report_.*counter);
        };
        const std::string tenant_prefix =
            "service.tenant." + std::to_string(log.tenant);
        count(&RequestCounts::submitted);
        if (registry_ != nullptr) {
            registry_->add("service.requests.submitted");
            registry_->add(tenant_prefix + ".submitted");
        }

        if (log.admission != AdmissionOutcome::kAdmitted) {
            count(log.admission == AdmissionOutcome::kQueueFull
                      ? &RequestCounts::rejected_queue
                      : &RequestCounts::rejected_quota);
            if (registry_ != nullptr) {
                registry_->add(std::string("service.requests.rejected.") +
                               toString(log.admission));
                registry_->add(tenant_prefix + ".rejected");
            }
            tenant.digest = foldOutcome(tenant.digest, out);
            last_tick_outcomes_.push_back(std::move(out));
            continue;
        }

        VEAL_ASSERT(admitted_cursor < tick.admitted.size() &&
                        tick.admitted[admitted_cursor].sequence ==
                            log.sequence,
                    "tick log / admission order diverged");
        const std::size_t i = admitted_cursor++;
        TickPlan::PlanInfo& plan = tick.plans[i];

        count(&RequestCounts::admitted);
        if (registry_ != nullptr) {
            registry_->add("service.requests.admitted");
            registry_->add(tenant_prefix + ".admitted");
        }

        out.cache = plan.cache;
        count(kCacheCounters[static_cast<std::size_t>(plan.cache)]);
        if (registry_ != nullptr) {
            registry_->add(std::string("service.cache.") +
                           toString(plan.cache));
        }

        out.backend = plan.backend;
        // Quarantined requests never reach the steerer; everything
        // else in fleet mode either landed on a backend or fell back.
        if (fleetEnabled() &&
            plan.cache != CacheOutcome::kQuarantined) {
            using ScoreSource = TickPlan::PlanInfo::ScoreSource;
            if (out.backend >= 0) {
                const std::string& la_name = laFor(out.backend).name;
                tally(report_.fleet_placed[la_name],
                      "fleet.placed." + la_name);
            } else {
                tally(report_.fleet_cpu_fallbacks, "fleet.cpu_fallback");
            }
            if (plan.placed_now && plan.spill_rank > 0)
                tally(report_.fleet_spills, "fleet.spills");
            if (plan.score_source == ScoreSource::kComputed) {
                tally(report_.fleet_scores_computed,
                      "fleet.scores.computed");
            } else if (plan.score_source == ScoreSource::kPersisted) {
                tally(report_.fleet_scores_persisted,
                      "fleet.scores.persisted");
            }
        }

        out.cpu_cycles = tick.cpu_cycles[i];
        report_.cpu_cycles += out.cpu_cycles;

        // The profile that priced this request's CPU baseline: its lane's
        // run, or the stored one planning read (null: neither).
        const CpuProfile* profile =
            plan.cpu_lane >= 0 ? &tick.lane_profiles[static_cast<std::size_t>(
                                     plan.cpu_lane)]
                               : plan.cpu_profile.get();

        // Charge and publish a fresh translation; rehydrate a persisted
        // serve's key.
        if (plan.job >= 0) {
            out.rung =
                tick.jobs[static_cast<std::size_t>(plan.job)].ladder.rung;
        }
        if (tick.fresh(i)) {
            TickPlan::Job& job = tick.jobs[static_cast<std::size_t>(plan.job)];
            const auto charge = [&](const TranslationResult& attempt) {
                const bool metered =
                    attempt.mode != TranslationMode::kStatic;
                const auto cycles = static_cast<std::int64_t>(
                    metered ? attempt.meter.totalInstructions() : 0.0);
                charged_cycles += cycles;
                out.translation_cycles += cycles;
                if (registry_ != nullptr && metered) {
                    audited_cycles += metrics::chargePhaseCycles(
                        *registry_, "service.phase_cycles",
                        attempt.meter, 1);
                }
            };
            for (const auto& attempt : job.ladder.failed_attempts)
                charge(attempt);
            charge(job.ladder.translation);

            tally(report_.rungs[toString(job.ladder.rung)],
                  std::string("service.rung.") + toString(job.ladder.rung));
            // Persist first (the blob copies the image words before the
            // warm tier takes ownership of the image), then
            // publish -- success or negative either way -- at this
            // request's sequence; later ticks serve it from the warm
            // tier, later *runs* from the store.  Both take a copy of
            // the summary: same-tick coalesced serves priced from the
            // job's own.  The record carries the CPU profile too (after
            // a strike, the struck entry's), so a later run prices the
            // key without simulating it.
            if (persistent_ != nullptr) {
                persist::PersistedImage record;
                record.key = log.key;
                record.summary = job.summary;
                if (profile != nullptr) {
                    record.cpu_profile = *profile;
                    record.cpu_signature = cpu_signature_;
                }
                if (fleetEnabled()) {
                    // Fleet section: carry the chosen backend and the
                    // full score set so the next run rehydrates
                    // placements without re-scoring.
                    record.summary.fleet_backend = plan.backend;
                    if (const auto scores = warm_.findScores(log.key))
                        record.summary.fleet = *scores;
                }
                if (job.image.has_value())
                    record.image_words = job.image->words();
                persistent_->save(record);
            }
            warm_.publishSummary(log.key, job.summary,
                                 std::move(job.image), tick.epoch,
                                 log.sequence, plan.backend);
        } else if (plan.persisted != nullptr &&
                   warm_.find(log.key) == nullptr) {
            // Rehydrate the warm tier once per key: the rest of the run
            // serves from memory (kWarm) instead of re-reading the blob.
            std::optional<ControlImage> image;
            if (!plan.persisted->image_words.empty())
                image = ControlImage::fromWords(plan.persisted->image_words);
            warm_.publishSummary(log.key, plan.persisted->summary,
                                 std::move(image), tick.epoch,
                                 log.sequence, plan.backend);
        }
        // Memoize the profile on the key's entry (just published,
        // rehydrated or long resident) for later requests, unless it is
        // that entry's own.
        if (profile != nullptr &&
            (plan.cpu_lane >= 0 || plan.warm_entry == nullptr))
            warm_.offerCpuProfile(log.key, *profile);

        const persist::TranslationSummary* summary = plan.summary;
        if (summary != nullptr) {
            out.translated_ok = summary->ok;
            out.reject = summary->reject;
        }
        if (out.translated_ok) {
            out.ii = summary->ii;
            out.stage_count = summary->stage_count;
            count(&RequestCounts::translate_ok);
            if (registry_ != nullptr) {
                registry_->add("service.translate.ok");
                registry_->observe("service.ii", out.ii);
            }
            out.la_first_cycles = plan.la_first.cycles;
            out.la_warm_cycles = plan.la_warm.cycles;
            if (options_.tlb.enabled) {
                const TlbCharge& first = plan.la_first.tlb;
                const TlbCharge& warm = plan.la_warm.tlb;
                tally(report_.tlb_pages, "vm.tlb.pages",
                      first.pages + warm.pages);
                tally(report_.tlb_walks, "vm.tlb.walks",
                      first.walks + warm.walks);
                tally(report_.tlb_cycles, "vm.tlb.cycles",
                      first.cycles + warm.cycles);
            }
            report_.la_first_cycles += out.la_first_cycles;
            report_.la_warm_cycles += out.la_warm_cycles;
            out.la_wins = out.la_warm_cycles < out.cpu_cycles;
        } else if (summary != nullptr) {
            ++tenant.translate_reject;
            tally(report_.rejects[toString(out.reject)],
                  std::string("service.translate.reject.") +
                      toString(out.reject));
        }
        if (out.la_wins)
            tally(report_.path_la, "service.path.la");
        else
            tally(report_.path_cpu, "service.path.cpu");

        if (plan.injector.has_value()) {
            for (int site = 0; site < kNumFaultSites; ++site) {
                fired[static_cast<std::size_t>(site)] +=
                    plan.injector->fired(static_cast<FaultSite>(site));
                probed[static_cast<std::size_t>(site)] +=
                    plan.injector->probes(static_cast<FaultSite>(site));
            }
        }

        tenant.digest = foldOutcome(tenant.digest, out);
        last_tick_outcomes_.push_back(std::move(out));
    }
    VEAL_ASSERT(admitted_cursor == tick.admitted.size(),
                "tick log lost admitted requests");

    report_.translation_cycles += charged_cycles;
    if (registry_ != nullptr) {
        registry_->add("service.cycles.translation", charged_cycles);
        registry_->add("service.cycles.cpu_baseline", [&] {
            std::int64_t total = 0;
            for (const auto value : tick.cpu_cycles)
                total += value;
            return total;
        }());
        // The phase split must telescope exactly (the PR-3 contract).
        VEAL_ASSERT(audited_cycles == charged_cycles,
                    "service phase charges diverged: ", audited_cycles,
                    " != ", charged_cycles);
    }
    for (int site = 0; site < kNumFaultSites; ++site) {
        const auto fired_count = fired[static_cast<std::size_t>(site)];
        const auto probe_count = probed[static_cast<std::size_t>(site)];
        const auto* name = toString(static_cast<FaultSite>(site));
        if (fired_count > 0) {
            tally(report_.fault_fired[name],
                  std::string("service.fault.fired.") + name, fired_count);
        }
        if (probe_count > 0) {
            tally(report_.fault_probes[name],
                  std::string("service.fault.probes.") + name,
                  probe_count);
        }
    }
    report_.quarantined_pairs =
        static_cast<std::int64_t>(quarantined_.size());

    tick_log_.clear();
    inflight_.clear();
}

const ServiceReport&
TranslationService::run(const ServiceTrace& trace)
{
    // Materialized loops are memoized per seed: traces draw from small
    // pools, so most requests reuse an already-built loop.
    std::map<std::uint64_t, Loop> loops;
    for (const auto& tick : trace.ticks) {
        // Cooperative stop: checked only at tick boundaries, so a
        // stopped run still ends on a fully-accounted tick.
        if (options_.stop != nullptr &&
            options_.stop->load(std::memory_order_relaxed)) {
            shutdown();
            return report_;
        }
        for (const auto& trace_request : tick) {
            auto it = loops.find(trace_request.loop_seed);
            if (it == loops.end()) {
                it = loops
                         .emplace(trace_request.loop_seed,
                                  makeTraceLoop(trace_request.loop_seed))
                         .first;
            }
            ServiceRequest request;
            request.tenant = trace_request.tenant;
            request.loop = it->second;
            request.key = traceRequestKey(trace_request);
            request.mode = trace_request.mode;
            request.iterations = trace_request.iterations;
            submit(std::move(request));
        }
        drainTick();
    }
    return report_;
}

void
TranslationService::flushPersistentStore()
{
    if (persistent_ != nullptr)
        persistent_->flush();
}

void
TranslationService::beginShutdown()
{
    if (shutting_down_)
        return;
    // Every later submit() reports kQueueFull -- the normal
    // backpressure path, so callers need no new handling -- while
    // already-admitted work stays for the drain.
    shutting_down_ = true;
    if (registry_ != nullptr)
        registry_->add("service.shutdowns");
}

void
TranslationService::shutdown()
{
    beginShutdown();
    // Drain whatever was admitted (or merely logged as rejected) since
    // the last tick so no submission goes unaccounted...
    if (!tick_log_.empty())
        drainTick();
    // ...and leave the store directory ready for the next process.
    flushPersistentStore();
}

CodeCache::Stats
TranslationService::shardCacheStats(int shard) const
{
    VEAL_ASSERT(shard >= 0 &&
                shard < static_cast<int>(shard_caches_.size()));
    return shard_caches_[static_cast<std::size_t>(shard)]->stats();
}

}  // namespace veal
