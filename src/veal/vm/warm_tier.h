#ifndef VEAL_VM_WARM_TIER_H_
#define VEAL_VM_WARM_TIER_H_

/**
 * @file
 * The translation service's shared warm tier.
 *
 * Once the service (veal/service) finishes a translation, its summary
 * (and its encoded control image + checksum) is published here, and
 * each later tick's planning phase consults the tier before it queues
 * a translation, so no shard translates a resident key again.
 * Planning routes every warm hit away from the shards, so a shard
 * never consults the tier itself.  Negative results are published
 * too -- a key that rejected translation stays rejected until
 * invalidated, instead of burning a re-translation every time a
 * different tenant resubmits it.
 *
 * Like the paper's code cache, which keeps only the translated loop
 * control, an entry holds no schedule or dataflow graph: just the
 * persist::TranslationSummary the LA cost model prices from, the
 * control image, and the key's CpuProfile -- its baseline-CPU price at
 * every trip count, from one full-window simulation (a key names one
 * loop, so one profile prices every request of it).  In-process
 * translations and entries rehydrated from the persistent store are the
 * same kind of entry; a rehydrated entry takes its blob's profile when
 * the blob was priced on the service's CPU.  An entry is immutable
 * after publish, except that an entry without a CPU profile may adopt
 * one, once.
 *
 * Concurrency discipline (how the service keeps byte-identical output
 * at any shard/thread count): all writes -- publish(),
 * offerCpuProfile() and invalidate() -- happen in the service's
 * *sequential* phases, ordered by request sequence number.  The tier
 * therefore needs no locking, and the epoch/sequence tags on every
 * entry make "who translated this, when" auditable in tests.
 *
 * Entries are handed out as shared_ptr: a request served early in a
 * tick keeps its entry alive for pricing even if a later request in the
 * same tick invalidates the key (fault-layer checksum mismatch).
 * Invalidation drops the key, not the outstanding readers.
 */

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "veal/sim/cpu_sim.h"
#include "veal/vm/control_image.h"
#include "veal/vm/persist/blob.h"
#include "veal/vm/translator.h"

namespace veal {

/** Shared second-level translation cache; see file comment. */
class WarmTier {
  public:
    /** One published translation outcome. */
    struct Entry {
        /** The pricing authority; `summary.ok == false` is a negative
            entry. */
        persist::TranslationSummary summary;

        /** Encoded image (successful entries only).  Serves verify a
            copy of it; the image itself never changes. */
        std::optional<ControlImage> image;

        /** image->checksum() at publish time, validated on serves. */
        std::uint32_t expected_checksum = 0;

        /** Baseline-CPU prices of the key's loop (empty until a
            profile is offered; never replaced once set). */
        CpuProfile cpu_profile;

        /** Service tick that published this entry. */
        std::int64_t epoch = 0;

        /** Sequence number of the publishing request (audit trail). */
        std::int64_t sequence = 0;

        /**
         * Fleet backend index this entry was translated for, or -1 in
         * single-design-point mode.  A warm serve is only valid when
         * the steerer's placement matches: an entry translated for
         * backend 2 cannot price an invocation on backend 0.
         */
        int backend = -1;
    };

    using EntryRef = std::shared_ptr<const Entry>;

    /** Accounting snapshot (all values shard-count invariant). */
    struct Stats {
        std::int64_t publishes = 0;
        std::int64_t republishes = 0;  ///< Publish over an existing key.
        std::int64_t serves = 0;
        std::int64_t invalidations = 0;
        std::int64_t size = 0;
    };

    /** publishSummary() of persist::summarize(@p translation). */
    void publish(const std::string& key,
                 const TranslationResult& translation,
                 std::optional<ControlImage> image, std::int64_t epoch,
                 std::int64_t sequence, int backend = -1);

    /**
     * Publish @p summary (with its encoded @p image when ok) for @p key
     * at (@p epoch, @p sequence).  Re-publishing an existing key (a
     * re-translation after invalidation) replaces the entry.
     */
    void publishSummary(const std::string& key,
                        persist::TranslationSummary summary,
                        std::optional<ControlImage> image,
                        std::int64_t epoch, std::int64_t sequence,
                        int backend = -1);

    /** Entry for @p key, or null.  Never mutates (parallel-phase safe). */
    EntryRef find(const std::string& key) const;

    /**
     * As find(), also counting a serve -- call from sequential phases
     * only (mutates statistics).
     */
    EntryRef serve(const std::string& key);

    /**
     * Give @p key's entry @p profile when the entry holds none; no-op
     * when the key is not resident.  Sequential phases only.
     */
    void offerCpuProfile(const std::string& key, const CpuProfile& profile);

    /**
     * Drop @p key (checksum mismatch); true when it was resident.
     * Outstanding EntryRefs stay valid.
     */
    bool invalidate(const std::string& key);

    Stats stats() const;

    std::int64_t size() const
    {
        return static_cast<std::int64_t>(entries_.size());
    }

    using ScoreRef = std::shared_ptr<const persist::FleetScoreSet>;

    /**
     * Fleet-score side table (DESIGN.md §17): scoring a key against
     * every backend is the expensive part of steering, so the verdict
     * is cached here beside the translations.  Scores are pure derived
     * data (loop shape x fleet signature), so invalidate() -- which
     * exists for image corruption -- leaves them resident.  Same write
     * discipline as entries: sequential phases only.
     */
    void publishScores(const std::string& key, ScoreRef scores);

    /** Cached score set for @p key, or null.  Parallel-phase safe. */
    ScoreRef findScores(const std::string& key) const;

  private:
    std::unordered_map<std::string, std::shared_ptr<Entry>> entries_;
    std::unordered_map<std::string, ScoreRef> scores_;
    std::int64_t publishes_ = 0;
    std::int64_t republishes_ = 0;
    std::int64_t serves_ = 0;
    std::int64_t invalidations_ = 0;
};

}  // namespace veal

#endif  // VEAL_VM_WARM_TIER_H_
