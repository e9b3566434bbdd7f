#include "veal/service/service.h"

#include <algorithm>
#include <array>
#include <iomanip>
#include <sstream>

#include "veal/fault/fault_plan.h"
#include "veal/support/assert.h"
#include "veal/support/rng.h"

namespace veal {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/** FNV-1a fold of one 64-bit value, byte by byte. */
std::uint64_t
fold(std::uint64_t digest, std::uint64_t value)
{
    for (int byte = 0; byte < 8; ++byte) {
        digest ^= (value >> (byte * 8)) & 0xffull;
        digest *= kFnvPrime;
    }
    return digest;
}

/** Fold every field of @p outcome into @p digest (sequence-ordered). */
std::uint64_t
foldOutcome(std::uint64_t digest, const RequestOutcome& outcome)
{
    digest = fold(digest, static_cast<std::uint64_t>(outcome.sequence));
    digest = fold(digest, static_cast<std::uint64_t>(outcome.tenant));
    digest = fold(digest, static_cast<std::uint64_t>(outcome.admission));
    digest = fold(digest, static_cast<std::uint64_t>(outcome.cache));
    digest = fold(digest, outcome.translated_ok ? 1 : 0);
    digest = fold(digest, static_cast<std::uint64_t>(outcome.reject));
    digest = fold(digest, static_cast<std::uint64_t>(outcome.rung));
    digest = fold(digest, static_cast<std::uint64_t>(outcome.ii));
    digest = fold(digest, static_cast<std::uint64_t>(outcome.stage_count));
    digest = fold(digest,
                  static_cast<std::uint64_t>(outcome.translation_cycles));
    digest = fold(digest, static_cast<std::uint64_t>(outcome.cpu_cycles));
    digest = fold(digest,
                  static_cast<std::uint64_t>(outcome.la_first_cycles));
    digest = fold(digest,
                  static_cast<std::uint64_t>(outcome.la_warm_cycles));
    digest = fold(digest, outcome.la_wins ? 1 : 0);
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
      queue_(static_cast<std::size_t>(std::max(1, options_.queue_depth)))
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
                        options_.fleet_scoring_iterations);
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

    // Quota first (a hogging tenant is rejected even when the queue has
    // room), then the bounded queue's own capacity.
    if (inflight_[request.tenant] >= options_.tenant_quota) {
        log.admission = AdmissionOutcome::kQuotaExceeded;
    } else if (!queue_.tryPush(Pending{std::move(request), sequence})) {
        log.admission = AdmissionOutcome::kQueueFull;
    } else {
        log.admission = AdmissionOutcome::kAdmitted;
        ++inflight_[log.tenant];
    }
    tick_log_.push_back(log);
    return log.admission;
}

void
TranslationService::drainTick()
{
    ++report_.ticks;
    const std::int64_t epoch = report_.ticks;
    if (registry_ != nullptr)
        registry_->add("service.ticks");

    // Pull this tick's admitted requests back out of the queue.  The
    // queue is FIFO and filled from the sequenced submit() path, so the
    // pop order *is* the sequence order.
    std::vector<Pending> admitted;
    while (auto item = queue_.tryPop())
        admitted.push_back(std::move(*item));

    const int shards = std::max(1, options_.shards);
    const std::size_t batch =
        static_cast<std::size_t>(std::max(1, options_.batch));

    // ---- Phase 1: sequential planning, in sequence order.  Fixes the
    // logical cache taxonomy (which is therefore shard-count invariant)
    // and the fresh-translation work list; prices the baseline CPU of
    // every request whose key's warm entry holds a covering CpuProfile
    // (the rest become phase-2 CPU lanes); performs every warm-tier
    // WRITE of the consult path (invalidations) so the parallel phase
    // below only ever reads.
    struct Job {
        std::size_t admitted_index = 0;
        const Loop* loop = nullptr;
        std::string key;
        TranslationMode mode = TranslationMode::kFullyDynamic;
        std::optional<FaultInjector> injector;
        /** Design point to translate against (fleet steering). */
        const LaConfig* la = nullptr;
        int backend = -1;  ///< Fleet backend index (-1: single design).
        // Parallel-phase products.
        LadderOutcome ladder;
        std::optional<ControlImage> image;
        /** The ladder result's summary: the store record, the warm-tier
            entry and every LA price of this job's serves. */
        persist::TranslationSummary summary;
    };
    struct PlanInfo {
        CacheOutcome cache = CacheOutcome::kCold;
        int job = -1;           ///< Own fresh translation.
        int provider_job = -1;  ///< Coalesced: the provider's job.
        WarmTier::EntryRef warm_entry;
        /** Persisted serve: the store-loaded blob (shared per tick). */
        std::shared_ptr<const persist::PersistedImage> persisted;
        std::optional<FaultInjector> injector;  ///< Warm-verify probes.
        // Fleet steering (all no-ops when --fleet is off).
        int backend = -1;        ///< Serving backend (-1: baseline/CPU).
        bool placed_now = false; ///< Placement minted by this request.
        int spill_rank = 0;      ///< Candidate rank the placement took.
        enum class ScoreSource { kNone, kComputed, kWarm, kPersisted };
        ScoreSource score_source = ScoreSource::kNone;
        int cpu_lane = -1;  ///< Into cpu_lanes (-1: priced in planning).
    };
    std::vector<PlanInfo> plans(admitted.size());
    std::vector<std::int64_t> cpu_cycles(admitted.size(), 0);
    std::vector<std::size_t> cpu_lanes;  // Admitted indices, in order.
    const auto price_cpu = [&](std::size_t i,
                               const WarmTier::Entry* entry) {
        const std::int64_t iterations = admitted[i].request.iterations;
        if (entry != nullptr && entry->cpu_profile.covers(iterations)) {
            cpu_cycles[i] = entry->cpu_profile.totalAt(iterations);
        } else {
            plans[i].cpu_lane = static_cast<int>(cpu_lanes.size());
            cpu_lanes.push_back(i);
        }
    };
    std::vector<Job> jobs;
    std::map<std::string, int> tick_provider;  // key -> job index.
    // One store load per key per tick: later same-tick requests share
    // the first load's blob (and its hit accounting).
    std::map<std::string, std::shared_ptr<const persist::PersistedImage>>
        tick_persisted;

    for (std::size_t i = 0; i < admitted.size(); ++i) {
        const ServiceRequest& request = admitted[i].request;
        PlanInfo& plan = plans[i];
        const auto qkey = std::make_pair(request.tenant, request.key);
        if (quarantined_.count(qkey) != 0) {
            plan.cache = CacheOutcome::kQuarantined;
            price_cpu(i, warm_.find(request.key).get());
            continue;
        }

        // Fleet steering: a key's placement is sticky for the whole
        // run -- minted on first cold scoring (or rehydrated from a
        // persisted blob) and consulted by every later serve.
        std::optional<fleet::Placement> placement;
        if (fleetEnabled())
            placement = steerer_->lookup(request.key);

        WarmTier::EntryRef entry = warm_.serve(request.key);
        price_cpu(i, entry.get());
        bool translate_needed = false;
        if (entry != nullptr) {
            // Warm consult: verify the control image first, exactly as
            // the hardened VM does before a cached dispatch.
            bool corrupted = false;
            if (options_.fault_seed.has_value()) {
                plan.injector.emplace(FaultPlan::sample(
                    makeServicePlanSeed(*options_.fault_seed,
                                        admitted[i].sequence)));
                if (entry->image.has_value() &&
                    plan.injector->probe(FaultSite::kCacheCorruption)) {
                    const auto target = warm_.mutableEntry(request.key);
                    target->image->flipBit(plan.injector->corruptionBit(
                        target->image->words().size() * 32));
                    corrupted = target->image->checksum() !=
                                target->expected_checksum;
                }
            }
            if (!corrupted) {
                plan.cache = CacheOutcome::kWarm;
                plan.warm_entry = std::move(entry);
                plan.backend = plan.warm_entry->backend;
                continue;
            }
            // Checksum mismatch: drop the entry everywhere -- warm
            // tier, shard caches, AND the persistent store (the third
            // owner: leaving the blob would resurrect the image on the
            // next run) -- strike the (tenant, key) pair, and either
            // quarantine it or queue a re-translation for this very
            // request.
            warm_.invalidate(request.key);
            for (const auto& cache : shard_caches_)
                cache->erase(request.key);
            if (persistent_ != nullptr)
                persistent_->invalidate(request.key);
            tick_persisted.erase(request.key);
            const int strikes = ++strikes_[qkey];
            if (registry_ != nullptr) {
                registry_->trace("service", "invalidate", request.key,
                                 strikes);
            }
            if (strikes >= options_.quarantine_strikes) {
                quarantined_.insert(qkey);
                plan.cache = CacheOutcome::kQuarantined;
                continue;
            }
            plan.cache = CacheOutcome::kInvalidated;
            translate_needed = true;
        } else if (auto loaded = [&] {
                       // Persistent consult on a warm-tier miss: one
                       // real load per key per tick, skipped when a
                       // same-tick job is already translating the key.
                       std::shared_ptr<const persist::PersistedImage>
                           blob;
                       if (persistent_ == nullptr)
                           return blob;
                       if (const auto cached =
                               tick_persisted.find(request.key);
                           cached != tick_persisted.end()) {
                           blob = cached->second;
                       } else if (tick_provider.count(request.key) ==
                                  0) {
                           if (auto image =
                                   persistent_->load(request.key)) {
                               blob = std::make_shared<
                                   const persist::PersistedImage>(
                                   std::move(*image));
                               tick_persisted[request.key] = blob;
                           }
                       }
                       // Fleet gate: a blob is only fleet-servable
                       // when it carries scores minted under this
                       // exact fleet AND its translation targets the
                       // backend the steerer picks.  Anything else is
                       // a miss; the cold retranslation overwrites the
                       // blob with freshly-scored v2 contents.
                       if (blob != nullptr && fleetEnabled()) {
                           const auto& s = blob->summary;
                           const bool usable =
                               s.fleet.has_value() &&
                               s.fleet->signature ==
                                   scorer_->signature();
                           if (usable && !placement.has_value()) {
                               auto scores = std::make_shared<
                                   const persist::FleetScoreSet>(
                                   *s.fleet);
                               warm_.publishScores(request.key, scores);
                               placement = steerer_->place(request.key,
                                                           *scores);
                               plan.placed_now = true;
                               plan.spill_rank = placement->spill_rank;
                               plan.score_source =
                                   PlanInfo::ScoreSource::kPersisted;
                           }
                           if (!usable ||
                               placement->backend < 0 ||
                               placement->backend != s.fleet_backend) {
                               blob = nullptr;
                           }
                       }
                       return blob;
                   }()) {
            // Persisted serve: same verify-before-trust discipline as a
            // warm serve.  The blob's FNV checksum already validated on
            // load; the fault layer can still corrupt the image between
            // load and dispatch, which the rotate-XOR image checksum
            // catches.
            bool corrupted = false;
            if (options_.fault_seed.has_value()) {
                plan.injector.emplace(FaultPlan::sample(
                    makeServicePlanSeed(*options_.fault_seed,
                                        admitted[i].sequence)));
                if (!loaded->image_words.empty() &&
                    plan.injector->probe(FaultSite::kCacheCorruption)) {
                    ControlImage probe =
                        ControlImage::fromWords(loaded->image_words);
                    const std::uint32_t expected = probe.checksum();
                    probe.flipBit(plan.injector->corruptionBit(
                        probe.words().size() * 32));
                    corrupted = probe.checksum() != expected;
                }
            }
            if (!corrupted) {
                plan.cache = CacheOutcome::kPersisted;
                plan.persisted = std::move(loaded);
                if (fleetEnabled())
                    plan.backend = plan.persisted->summary.fleet_backend;
                continue;
            }
            // Corrupted persisted image: delete the blob (degrade to a
            // fresh translation, never crash), strike, and follow the
            // same quarantine ladder as a warm corruption.
            persistent_->invalidate(request.key);
            tick_persisted.erase(request.key);
            for (const auto& cache : shard_caches_)
                cache->erase(request.key);
            const int strikes = ++strikes_[qkey];
            if (registry_ != nullptr) {
                registry_->trace("service", "invalidate", request.key,
                                 strikes);
            }
            if (strikes >= options_.quarantine_strikes) {
                quarantined_.insert(qkey);
                plan.cache = CacheOutcome::kQuarantined;
                continue;
            }
            plan.cache = CacheOutcome::kInvalidated;
            translate_needed = true;
        } else if (const auto provider = tick_provider.find(request.key);
                   provider != tick_provider.end()) {
            plan.cache = CacheOutcome::kCoalesced;
            plan.provider_job = provider->second;
            plan.backend =
                jobs[static_cast<std::size_t>(provider->second)].backend;
            continue;
        } else {
            plan.cache = CacheOutcome::kCold;
            if (options_.fault_seed.has_value()) {
                plan.injector.emplace(FaultPlan::sample(
                    makeServicePlanSeed(*options_.fault_seed,
                                        admitted[i].sequence)));
            }
            translate_needed = true;
        }

        VEAL_ASSERT(translate_needed);
        if (fleetEnabled()) {
            // Score-and-place before committing to a translation job.
            // Scores are a pure function of (loop, mode, fleet) at the
            // canonical scoring iteration count, so they are cached in
            // the warm tier's side table and survive invalidations.
            if (!placement.has_value()) {
                WarmTier::ScoreRef scores = warm_.findScores(request.key);
                if (scores == nullptr) {
                    scores =
                        std::make_shared<const persist::FleetScoreSet>(
                            scorer_->score(request.loop, request.mode));
                    warm_.publishScores(request.key, scores);
                    plan.score_source = PlanInfo::ScoreSource::kComputed;
                } else {
                    plan.score_source = PlanInfo::ScoreSource::kWarm;
                }
                placement = steerer_->place(request.key, *scores);
                plan.placed_now = true;
                plan.spill_rank = placement->spill_rank;
            }
            plan.backend = placement->backend;
            if (plan.backend < 0) {
                // Every viable backend is saturated: steer this key to
                // the CPU without burning a translation job.  The
                // reduction accounts it as a fleet CPU fallback.
                continue;
            }
        }
        Job job;
        job.admitted_index = i;
        job.loop = &request.loop;
        job.key = request.key;
        job.mode = request.mode;
        job.la = &laFor(plan.backend);
        job.backend = plan.backend;
        job.injector = std::move(plan.injector);
        plan.injector.reset();
        plan.job = static_cast<int>(jobs.size());
        tick_provider[request.key] = plan.job;
        jobs.push_back(std::move(job));
    }

    // ---- Phase 2: parallel shard phase.  Jobs round-robin over shards
    // by index, CPU lanes by --batch block; every shard touches only its
    // own CodeCache and BatchSimulator, writes only its own jobs' fields
    // and its lanes' cpu_cycles and lane_profiles slots, and reads the
    // warm tier without mutating it.  Everything computed here is a pure
    // function of the planned inputs, and the batch engine's
    // grouping-invariance makes the shard/batch partition of the CPU
    // lanes semantically invisible.  LA prices are not computed here:
    // the reduction reads them off each job's summary.
    std::vector<CpuProfile> lane_profiles(cpu_lanes.size());
    const auto run_shard = [&](int shard) {
        BatchSimulator& sim =
            *shard_sims_[static_cast<std::size_t>(shard)];
        CodeCache& cache =
            *shard_caches_[static_cast<std::size_t>(shard)];

        // (a) Translate this shard's jobs.
        for (std::size_t j = static_cast<std::size_t>(shard);
             j < jobs.size(); j += static_cast<std::size_t>(shards)) {
            Job& job = jobs[j];
            // Physical cache walk: shard-local miss, then the shared
            // warm tier (read-only here; the planning pass already
            // decided this key needs a fresh translation).
            cache.lookup(job.key);
            (void)warm_.find(job.key);
            job.ladder = climbTranslationLadder(
                *job.loop, *job.la, job.mode, nullptr,
                job.injector.has_value() ? &*job.injector : nullptr);
            job.summary = persist::summarize(job.ladder.translation);
            if (job.ladder.translation.ok) {
                job.image = ControlImage::encode(*job.loop,
                                                 job.ladder.translation);
                cache.insert(job.key);
            }
        }

        // (b) Simulate this shard's --batch blocks of the uncovered CPU
        // lanes, keeping each run's profile for the reduction.
        std::vector<CpuProfile> profiles;
        for (std::size_t begin = static_cast<std::size_t>(shard) * batch;
             begin < cpu_lanes.size();
             begin += static_cast<std::size_t>(shards) * batch) {
            const std::size_t end =
                std::min(begin + batch, cpu_lanes.size());
            std::vector<CpuSimRequest> lanes;
            lanes.reserve(end - begin);
            for (std::size_t l = begin; l < end; ++l) {
                const ServiceRequest& request =
                    admitted[cpu_lanes[l]].request;
                lanes.push_back({&request.loop, request.iterations});
            }
            const auto timings =
                sim.simulateCpuBatch(options_.cpu, lanes, &profiles);
            for (std::size_t l = begin; l < end; ++l) {
                cpu_cycles[cpu_lanes[l]] = timings[l - begin].total_cycles;
                lane_profiles[l] = std::move(profiles[l - begin]);
            }
        }
    };
    if (!jobs.empty() || !cpu_lanes.empty()) {
        if (options_.threads > 1) {
            if (pool_ == nullptr) {
                pool_ =
                    std::make_unique<ThreadPool>(options_.threads);
            }
            parallelFor(*pool_, shards, run_shard);
        } else {
            for (int shard = 0; shard < shards; ++shard)
                run_shard(shard);
        }
    }

    // ---- Phase 3: index-ordered reduction over the full submission
    // log (rejections included), in sequence order.  ALL accounting --
    // registry counters, tenant digests, warm-tier publication and CPU
    // profile memoization, LA pricing from the serving summary -- lives
    // here, which is the whole determinism argument: nothing observable
    // depends on how phase 2 was partitioned.
    last_tick_outcomes_.clear();
    std::int64_t audited_cycles = 0;
    std::int64_t charged_cycles = 0;
    std::array<std::int64_t, kNumFaultSites> fired{};
    std::array<std::int64_t, kNumFaultSites> probed{};
    std::size_t admitted_cursor = 0;

    for (const LogEntry& log : tick_log_) {
        RequestOutcome out;
        out.sequence = log.sequence;
        out.tenant = log.tenant;
        out.key = log.key;
        out.admission = log.admission;

        TenantReport& tenant = report_.tenants[log.tenant];
        const std::string tenant_prefix =
            "service.tenant." + std::to_string(log.tenant);
        ++tenant.submitted;
        ++report_.submitted;
        if (registry_ != nullptr) {
            registry_->add("service.requests.submitted");
            registry_->add(tenant_prefix + ".submitted");
        }

        if (log.admission != AdmissionOutcome::kAdmitted) {
            if (log.admission == AdmissionOutcome::kQueueFull) {
                ++tenant.rejected_queue;
                ++report_.rejected_queue;
            } else {
                ++tenant.rejected_quota;
                ++report_.rejected_quota;
            }
            if (registry_ != nullptr) {
                registry_->add(std::string("service.requests.rejected.") +
                               toString(log.admission));
                registry_->add(tenant_prefix + ".rejected");
            }
            tenant.digest = foldOutcome(tenant.digest, out);
            last_tick_outcomes_.push_back(std::move(out));
            continue;
        }

        VEAL_ASSERT(admitted_cursor < admitted.size() &&
                        admitted[admitted_cursor].sequence ==
                            log.sequence,
                    "tick log / queue order diverged");
        const std::size_t i = admitted_cursor++;
        const PlanInfo& plan = plans[i];

        ++tenant.admitted;
        ++report_.admitted;
        if (registry_ != nullptr) {
            registry_->add("service.requests.admitted");
            registry_->add(tenant_prefix + ".admitted");
        }

        out.cache = plan.cache;
        switch (plan.cache) {
          case CacheOutcome::kCold:
            ++tenant.cold;
            ++report_.cold;
            break;
          case CacheOutcome::kWarm:
            ++tenant.warm;
            ++report_.warm;
            break;
          case CacheOutcome::kCoalesced:
            ++tenant.coalesced;
            ++report_.coalesced;
            break;
          case CacheOutcome::kInvalidated:
            ++tenant.invalidated;
            ++report_.invalidated;
            break;
          case CacheOutcome::kQuarantined:
            ++tenant.quarantined;
            ++report_.quarantined;
            break;
          case CacheOutcome::kPersisted:
            ++tenant.persisted;
            ++report_.persisted;
            break;
        }
        if (registry_ != nullptr) {
            registry_->add(std::string("service.cache.") +
                           toString(plan.cache));
        }

        out.backend = plan.backend;
        // Quarantined requests never reach the steerer; everything
        // else in fleet mode either landed on a backend or fell back.
        if (fleetEnabled() &&
            plan.cache != CacheOutcome::kQuarantined) {
            if (out.backend >= 0) {
                const std::string& la_name = laFor(out.backend).name;
                ++report_.fleet_placed[la_name];
                if (registry_ != nullptr)
                    registry_->add("fleet.placed." + la_name);
            } else {
                ++report_.fleet_cpu_fallbacks;
                if (registry_ != nullptr)
                    registry_->add("fleet.cpu_fallback");
            }
            if (plan.placed_now && plan.spill_rank > 0) {
                ++report_.fleet_spills;
                if (registry_ != nullptr)
                    registry_->add("fleet.spills");
            }
            if (plan.score_source ==
                PlanInfo::ScoreSource::kComputed) {
                ++report_.fleet_scores_computed;
                if (registry_ != nullptr)
                    registry_->add("fleet.scores.computed");
            } else if (plan.score_source ==
                       PlanInfo::ScoreSource::kPersisted) {
                ++report_.fleet_scores_persisted;
                if (registry_ != nullptr)
                    registry_->add("fleet.scores.persisted");
            }
        }

        out.cpu_cycles = cpu_cycles[i];
        report_.cpu_cycles += out.cpu_cycles;

        // Resolve the serving summary and charge/publish fresh ones.
        const persist::TranslationSummary* summary = nullptr;
        const bool fresh = plan.job >= 0;
        if (fresh) {
            Job& job = jobs[static_cast<std::size_t>(plan.job)];
            summary = &job.summary;
            out.rung = job.ladder.rung;

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

            ++report_.rungs[toString(job.ladder.rung)];
            if (registry_ != nullptr) {
                registry_->add(std::string("service.rung.") +
                               toString(job.ladder.rung));
            }
            // Persist first (the blob captures the pristine image words
            // before the warm tier takes ownership of the image), then
            // publish -- success or negative either way -- at this
            // request's sequence; later ticks serve it from the warm
            // tier, later *runs* from the store.  Both take a copy of
            // the summary: same-tick coalesced serves still price from
            // the job's own.
            if (persistent_ != nullptr) {
                persist::PersistedImage record;
                record.key = job.key;
                record.summary = job.summary;
                if (fleetEnabled()) {
                    // v2 blob: carry the chosen backend and the full
                    // score set so the next run rehydrates placements
                    // without re-scoring.
                    record.summary.fleet_backend = job.backend;
                    if (const auto scores = warm_.findScores(job.key))
                        record.summary.fleet = *scores;
                }
                if (job.image.has_value())
                    record.image_words = job.image->words();
                persistent_->save(record);
            }
            warm_.publishSummary(job.key, job.summary,
                                 std::move(job.image), epoch,
                                 log.sequence, job.backend);
        } else if (plan.cache == CacheOutcome::kWarm) {
            summary = &plan.warm_entry->summary;
        } else if (plan.cache == CacheOutcome::kPersisted) {
            summary = &plan.persisted->summary;
            // Rehydrate the warm tier once per key: the rest of the run
            // serves from memory (kWarm) instead of re-reading the blob.
            if (warm_.find(log.key) == nullptr) {
                std::optional<ControlImage> image;
                if (!plan.persisted->image_words.empty()) {
                    image = ControlImage::fromWords(
                        plan.persisted->image_words);
                }
                warm_.publishSummary(log.key, *summary, std::move(image),
                                     epoch, log.sequence, plan.backend);
            }
        } else if (plan.cache == CacheOutcome::kCoalesced) {
            const auto& provider =
                jobs[static_cast<std::size_t>(plan.provider_job)];
            summary = &provider.summary;
            out.rung = provider.ladder.rung;
        }
        // Memoize this request's CPU run on the key's entry (just
        // published, rehydrated or long resident) for later requests.
        if (plan.cpu_lane >= 0) {
            warm_.offerCpuProfile(
                log.key, std::move(lane_profiles[static_cast<std::size_t>(
                             plan.cpu_lane)]));
        }

        if (summary != nullptr) {
            out.translated_ok = summary->ok;
            out.reject = summary->reject;
        }
        if (out.translated_ok) {
            out.ii = summary->ii;
            out.stage_count = summary->stage_count;
            ++tenant.translate_ok;
            ++report_.translate_ok;
            if (registry_ != nullptr) {
                registry_->add("service.translate.ok");
                registry_->observe("service.ii", out.ii);
            }
            // LA prices at this request's own iteration count on its
            // serving backend: the first invocation only for the
            // request that translated, the warm one for every serve.
            // TLB page-walk charges (opt-in) ride on top --
            // execution-side, so translation phase cycles still
            // telescope.
            const LaConfig& la = laFor(plan.backend);
            const std::int64_t iterations =
                admitted[i].request.iterations;
            TlbCharge first_charge;
            if (fresh) {
                first_charge = streamTlbCharge(
                    summary->load_strides, summary->store_strides,
                    options_.tlb, iterations, /*first_invocation=*/true);
                out.la_first_cycles =
                    persist::summaryLoopCost(*summary, la, iterations,
                                             /*first_invocation=*/true)
                        .total() +
                    first_charge.cycles;
            }
            const TlbCharge warm_charge = streamTlbCharge(
                summary->load_strides, summary->store_strides,
                options_.tlb, iterations, /*first_invocation=*/false);
            out.la_warm_cycles =
                persist::summaryLoopCost(*summary, la, iterations,
                                         /*first_invocation=*/false)
                    .total() +
                warm_charge.cycles;
            if (options_.tlb.enabled) {
                const std::int64_t pages =
                    first_charge.pages + warm_charge.pages;
                const std::int64_t walks =
                    first_charge.walks + warm_charge.walks;
                const std::int64_t cycles =
                    first_charge.cycles + warm_charge.cycles;
                report_.tlb_pages += pages;
                report_.tlb_walks += walks;
                report_.tlb_cycles += cycles;
                if (registry_ != nullptr) {
                    registry_->add("vm.tlb.pages", pages);
                    registry_->add("vm.tlb.walks", walks);
                    registry_->add("vm.tlb.cycles", cycles);
                }
            }
            report_.la_first_cycles += out.la_first_cycles;
            report_.la_warm_cycles += out.la_warm_cycles;
            out.la_wins = out.la_warm_cycles < out.cpu_cycles;
        } else if (summary != nullptr) {
            ++tenant.translate_reject;
            ++report_.rejects[toString(out.reject)];
            if (registry_ != nullptr) {
                registry_->add(std::string("service.translate.reject.") +
                               toString(out.reject));
            }
        }
        if (out.la_wins) {
            ++report_.path_la;
        } else {
            ++report_.path_cpu;
        }
        if (registry_ != nullptr) {
            registry_->add(out.la_wins ? "service.path.la"
                                       : "service.path.cpu");
        }

        // Fault taxonomy: this request's injector lives in its job (it
        // translated) or in its plan (warm verify only).
        const FaultInjector* injector = nullptr;
        if (fresh) {
            const auto& job =
                jobs[static_cast<std::size_t>(plan.job)];
            injector =
                job.injector.has_value() ? &*job.injector : nullptr;
        } else if (plan.injector.has_value()) {
            injector = &*plan.injector;
        }
        if (injector != nullptr) {
            for (int site = 0; site < kNumFaultSites; ++site) {
                fired[static_cast<std::size_t>(site)] +=
                    injector->fired(static_cast<FaultSite>(site));
                probed[static_cast<std::size_t>(site)] +=
                    injector->probes(static_cast<FaultSite>(site));
            }
        }

        tenant.digest = foldOutcome(tenant.digest, out);
        last_tick_outcomes_.push_back(std::move(out));
    }
    VEAL_ASSERT(admitted_cursor == admitted.size(),
                "tick log lost admitted requests");

    report_.translation_cycles += charged_cycles;
    if (registry_ != nullptr) {
        registry_->add("service.cycles.translation", charged_cycles);
        registry_->add("service.cycles.cpu_baseline", [&] {
            std::int64_t total = 0;
            for (const auto value : cpu_cycles)
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
            report_.fault_fired[name] += fired_count;
            if (registry_ != nullptr) {
                registry_->add(std::string("service.fault.fired.") + name,
                               fired_count);
            }
        }
        if (probe_count > 0) {
            report_.fault_probes[name] += probe_count;
            if (registry_ != nullptr) {
                registry_->add(std::string("service.fault.probes.") +
                                   name,
                               probe_count);
            }
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
    shutting_down_ = true;
    // A closed queue makes every later submit() report kQueueFull --
    // the normal backpressure path, so callers need no new handling --
    // while already-admitted work stays poppable by the drain.
    queue_.close();
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
