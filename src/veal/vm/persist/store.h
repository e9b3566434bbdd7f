#ifndef VEAL_VM_PERSIST_STORE_H_
#define VEAL_VM_PERSIST_STORE_H_

/**
 * @file
 * The log-structured persistent code cache behind the warm tier.
 *
 * One directory holds packed segment files (persist/segment_log.h)
 * whose records are PR-8 checksummed blobs, an append-only commit log
 * (persist/manifest_log.h), and a LOCK file.  A save is: append the
 * blob to the active segment, then append an `add` record to the
 * manifest log -- the manifest append is the commit point, so a crash
 * anywhere leaves either both (durable) or a manifest-less orphan in
 * the segment (truncated on the next open).  Recovery is a replay:
 * apply manifest records to the last valid line, truncate torn tails
 * (the manifest's, and the highest segment's past its committed end),
 * drop refs the segment bytes can no longer back, and fall back to
 * scanning the segment files themselves when the manifest is gone --
 * the PR-8 scan-rebuild, now over records instead of files.  Only the
 * highest segment ever grows, so only it can hold uncommitted bytes;
 * every manifest snapshot records its committed end, so a clean
 * restart truncates nothing.  Recovery is total by construction: every
 * acked save is present, every unacked one is cleanly absent, and a warm
 * veal-serve run over a recovered store renders byte-identical reports
 * (the `veal-faultsim --mode persist` campaign enumerates every crash
 * point and asserts exactly this).
 *
 * Re-saving, evicting, invalidating, or compacting a key turns its old
 * record into garbage; a compactor rewrites live records out of the
 * most-garbage sealed segment and deletes the file.  Eviction policy
 * is unchanged from PR 8: an epoch-stamped segmented LRU (probation +
 * protected) over a flat slot array, O(1) per operation.
 *
 * Multi-process safety: opening takes a non-blocking flock on
 * `<dir>/LOCK`.  Losing the race -- or any I/O failure later -- drops
 * the store to a *read-only tier* (PR-4 degradation-ladder lineage):
 * loads keep serving, saves/invalidates are skipped and counted
 * (`vm.persist.readonly`, `vm.persist.io_error`), nothing ever
 * crashes, and a read-only open performs no disk mutation at all (no
 * truncation, no sweep, no eviction deletes).
 *
 * Thread-safety: none by design, exactly like CodeCache -- the service
 * touches the store only from its sequential phases, which is also what
 * keeps warm-started reports byte-identical at any shard/thread count.
 */

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "veal/vm/persist/blob.h"
#include "veal/vm/persist/manifest_log.h"
#include "veal/vm/persist/segment_log.h"
#include "veal/vm/persist/vfs.h"

namespace veal {
namespace metrics {
class Registry;
}  // namespace metrics
}  // namespace veal

namespace veal::persist {

/** Store sizing knobs (mirrors the veal-serve CLI). */
struct StoreOptions {
    /** Maximum resident entries; the probation tail evicts beyond it. */
    int max_entries = 4096;

    /** Segment file size that seals the active segment. */
    std::int64_t segment_bytes = 256 * 1024;

    /** Sealed-segment garbage percent that triggers compaction. */
    int compact_garbage_percent = 50;

    /** Filesystem seam; null means the real filesystem. */
    std::shared_ptr<Vfs> vfs;
};

/** Event counters (all deterministic for a fixed request sequence). */
struct StoreStats {
    std::int64_t saves = 0;  ///< Acked (committed to the manifest log).
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t evictions = 0;
    std::int64_t invalidations = 0;
    std::int64_t corrupt = 0;       ///< Blob checksum/decode failures.
    std::int64_t version_skew = 0;  ///< Blobs from another format version.
    std::int64_t manifest_rebuilds = 0;  ///< Scan-rebuild fallbacks.

    // --- The I/O-failure taxonomy (distinct from corruption).
    std::int64_t io_errors = 0;      ///< Failed writes/renames/reads.
    std::int64_t readonly = 0;       ///< 1 once degraded to read-only.
    std::int64_t readonly_skips = 0; ///< Saves/invalidates skipped.

    // --- Recovery accounting.
    std::int64_t tmp_swept = 0;         ///< Stale *.tmp files deleted.
    std::int64_t tail_truncations = 0;  ///< Torn manifest/segment tails.
    std::int64_t orphans_dropped = 0;   ///< Unacked segment bytes cut.
    std::int64_t lost_records = 0;      ///< Refs the bytes can't back.

    // --- Log upkeep.
    std::int64_t compactions = 0;
    std::int64_t reclaimed_bytes = 0;   ///< Garbage deleted by compaction.
    std::int64_t manifest_rewrites = 0;

    std::int64_t size = 0;
    std::int64_t segments = 0;    ///< Segment files resident.
    std::int64_t live_bytes = 0;  ///< Referenced record bytes.
    std::int64_t log_bytes = 0;   ///< Total segment file bytes.
};

/** Where one key's payload currently lives (tests corrupt bytes here). */
struct RecordLocation {
    std::string path;          ///< Segment file.
    std::int64_t offset = 0;   ///< Of the *payload* (header skipped).
    std::int64_t length = 0;   ///< Payload bytes.
};

/** The persistent, shareable code cache; see file comment. */
class PersistentStore {
  public:
    /**
     * Open (creating @p directory if needed), lock, recover, and index
     * the store.  Losing the flock opens read-only.  When @p registry
     * is non-null, every event also bumps a "vm.persist.*" counter.
     */
    PersistentStore(std::string directory, StoreOptions options,
                    metrics::Registry* registry = nullptr);

    /** Flushes a manifest snapshot (same as flush()). */
    ~PersistentStore();

    PersistentStore(const PersistentStore&) = delete;
    PersistentStore& operator=(const PersistentStore&) = delete;

    /**
     * Load @p key: reads + validates its record.  A hit promotes the
     * entry toward the protected segment.  Corrupt bytes drop the
     * entry and report a miss (the caller re-translates); a transient
     * I/O failure keeps the entry and reports a miss (io_errors, not
     * corrupt).
     */
    std::optional<PersistedImage> load(const std::string& key);

    /** True without touching recency, statistics, or the files. */
    bool contains(const std::string& key) const;

    /**
     * Persist @p image: segment append, then manifest commit.  True
     * when acked (both appends landed); false when skipped (read-only
     * tier) or failed (degrades to read-only).  May evict and may
     * trigger compaction.
     */
    bool save(const PersistedImage& image);

    /**
     * Drop @p key and commit the removal -- the on-disk half of the
     * checksum-invalidation path; true when it was resident.  Not an
     * eviction (counted separately, like CodeCache::erase()).
     */
    bool invalidate(const std::string& key);

    /** Rewrite the manifest log as a snapshot (bounds replay time). */
    void flush();

    /**
     * Compact the worst sealed segment now regardless of threshold;
     * true when a segment was rewritten (tests and benches).
     */
    bool compactNow();

    StoreStats stats() const;

    std::int64_t
    size() const
    {
        return static_cast<std::int64_t>(index_.size());
    }

    /** True once degraded (lock lost at open, or I/O failure later). */
    bool readOnly() const { return read_only_; }

    /** Resident keys in sorted order (tests and the crash campaign). */
    std::vector<std::string> keys() const;

    /** Current payload location of @p key, or nullopt. */
    std::optional<RecordLocation> recordLocation(
        const std::string& key) const;

  private:
    /** LRU segment ids double as list indices. */
    enum Segment : int { kProbation = 0, kProtected = 1 };

    /** One flat-array slot; free slots chain through `next`. */
    struct Slot {
        std::string key;
        RecordRef ref;           ///< Where the payload lives.
        std::int64_t epoch = 0;  ///< Stamp of the last touch.
        int segment = kProbation;
        int prev = -1;
        int next = -1;
        bool live = false;
    };

    /** Doubly-linked list head/tail over slot indices. */
    struct List {
        int head = -1;
        int tail = -1;
        int count = 0;
    };

    int allocSlot();
    void freeSlot(int slot);
    void pushFront(List& list, int slot);
    void unlink(List& list, int slot);
    void touch(int slot);
    void evictOne();
    void dropEntry(int slot);
    void removeEntry(int slot, bool count_as_eviction);
    void insertIndexed(const std::string& key, const RecordRef& ref,
                       std::int64_t epoch, int segment);
    void count(const char* name, std::int64_t delta = 1);
    void countIoError();
    void enterReadOnly();

    void openIndex();
    void sweepTmpFiles(const std::vector<std::string>& names);
    void replayManifest(const ManifestReplay& replay);
    /** Index the segment records themselves; returns each segment's
        valid-prefix end. */
    std::unordered_map<std::int64_t, std::int64_t> scanRebuild(
        const std::vector<std::string>& names);
    /** Truncate uncommitted tails (the highest segment's only, after a
        manifest replay) and drop refs the bytes cannot back. */
    void reconcileSegments(
        const std::vector<std::string>& names,
        const std::unordered_map<std::int64_t, std::int64_t>& high_water,
        bool highest_only);
    void compactIfNeeded();
    bool compactSegment(std::int64_t victim);
    void maybeRewriteManifest();
    bool rewriteManifest();
    std::vector<ManifestRecord> snapshotRecords() const;

    std::string directory_;
    StoreOptions options_;
    metrics::Registry* registry_ = nullptr;

    std::shared_ptr<Vfs> vfs_;
    std::unique_ptr<VfsLock> lock_;
    SegmentLog segments_;
    ManifestLog manifest_;
    bool read_only_ = false;

    std::vector<Slot> slots_;
    int free_head_ = -1;
    List lists_[2];  ///< Probation, protected.
    std::unordered_map<std::string, int> index_;  ///< key -> slot.
    std::int64_t epoch_ = 0;

    StoreStats stats_;
};

}  // namespace veal::persist

#endif  // VEAL_VM_PERSIST_STORE_H_
