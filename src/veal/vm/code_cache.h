#ifndef VEAL_VM_CODE_CACHE_H_
#define VEAL_VM_CODE_CACHE_H_

/**
 * @file
 * The software-managed code cache holding translated loop control
 * (paper §4.2/§4.3: 16 entries, LRU, ~48 KB for the proposed LA).
 */

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>

namespace veal {

/**
 * LRU cache of translated-loop identities.
 *
 * Thread-safety: none by design -- even lookup() mutates recency and
 * statistics.  A CodeCache models the software cache of *one* VM
 * instance, so the parallel sweep engine keeps each instance confined to
 * the thread evaluating that cell; never share one across threads.
 */
class CodeCache {
  public:
    /** What insert() actually did (re-inserts are legal, not silent). */
    enum class InsertOutcome {
        kInserted,   ///< New entry (possibly after evicting the LRU one).
        kRefreshed,  ///< Key was already resident; recency touched only.
    };

    /** Accounting snapshot. */
    struct Stats {
        std::int64_t hits = 0;
        std::int64_t misses = 0;
        std::int64_t evictions = 0;
        int size = 0;
        int capacity = 0;
    };

    /** @param capacity maximum number of resident translations (>= 1). */
    explicit CodeCache(int capacity);

    /**
     * Look up @p key; a hit refreshes its recency.  A miss does *not*
     * insert -- call insert() once the translation completes.
     */
    bool lookup(const std::string& key);

    /**
     * Insert @p key, evicting the least recently used entry if full.
     * Re-inserting a resident key is a recency refresh (kRefreshed) and
     * never evicts; the return value makes the distinction auditable.
     */
    InsertOutcome insert(const std::string& key);

    /**
     * As insert(); when an eviction occurs and @p evicted_key is
     * non-null, the evicted key is written there so the owner can drop
     * the entry's payload (the hardened VM stores control images beside
     * the cache and must not leak them past eviction; the persistent
     * store must delete the blob so a restart cannot resurrect it).
     *
     * Contract: @p evicted_key is *always* written -- cleared to empty
     * on every non-evicting path (kRefreshed, or an insert with spare
     * capacity).  Callers may therefore reuse one buffer across calls;
     * a stale key left over from a previous insert must never be
     * mistaken for a fresh eviction, or the owner would drop a live
     * payload and later serve (or crash on) a resident key without one.
     */
    InsertOutcome insert(const std::string& key,
                         std::string* evicted_key);

    /**
     * Drop @p key (checksum invalidation); true when it was resident.
     * Not an eviction -- the entry is removed because its payload is no
     * longer trustworthy, so the eviction counter is untouched.
     */
    bool erase(const std::string& key);

    /** Number of resident entries. */
    int size() const { return static_cast<int>(entries_.size()); }

    Stats stats() const;

  private:
    int capacity_;
    std::list<std::string> lru_;  ///< Front = most recent.
    std::unordered_map<std::string, std::list<std::string>::iterator>
        entries_;
    std::int64_t hits_ = 0;
    std::int64_t misses_ = 0;
    std::int64_t evictions_ = 0;
};

}  // namespace veal

#endif  // VEAL_VM_CODE_CACHE_H_
