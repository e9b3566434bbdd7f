#include "veal/vm/persist/store.h"

#include <algorithm>
#include <filesystem>

#include "veal/support/assert.h"
#include "veal/support/metrics/metrics.h"

namespace veal::persist {

namespace fs = std::filesystem;

namespace {

/**
 * Protected-segment share of max_entries, in percent.  The rest is
 * probation (scan-resistance: new keys must prove reuse to enter the
 * protected segment).
 */
constexpr int kProtectedPercent = 50;

constexpr const char* kLockName = "LOCK";
constexpr const char* kTmpSuffix = ".tmp";

bool
hasSuffix(const std::string& name, const char* suffix)
{
    const std::size_t n = std::char_traits<char>::length(suffix);
    return name.size() > n &&
           name.compare(name.size() - n, n, suffix) == 0;
}

}  // namespace

PersistentStore::PersistentStore(std::string directory,
                                 StoreOptions options,
                                 metrics::Registry* registry)
    : directory_(std::move(directory)),
      options_(options),
      registry_(registry),
      vfs_(options.vfs != nullptr ? options.vfs : realVfs()),
      segments_(directory_, vfs_, options.segment_bytes),
      manifest_(directory_, vfs_)
{
    VEAL_ASSERT(options_.max_entries >= 1,
                "persistent store needs at least one entry");
    options_.compact_garbage_percent =
        std::clamp(options_.compact_garbage_percent, 1, 100);
    if (!vfs_->createDirectories(directory_)) {
        countIoError();
        enterReadOnly();
    } else {
        lock_ = vfs_->tryLockExclusive(
            (fs::path(directory_) / kLockName).string());
        if (lock_ == nullptr) {
            // Another store (process or instance) owns the directory:
            // serve what is there, write nothing -- the read-only
            // cache tier.
            enterReadOnly();
        }
    }
    openIndex();
}

PersistentStore::~PersistentStore()
{
    flush();
}

void
PersistentStore::count(const char* name, std::int64_t delta)
{
    if (registry_ != nullptr && delta != 0)
        registry_->add(std::string("vm.persist.") + name, delta);
}

void
PersistentStore::countIoError()
{
    ++stats_.io_errors;
    count("io_error");
}

void
PersistentStore::enterReadOnly()
{
    if (read_only_)
        return;
    read_only_ = true;
    stats_.readonly = 1;
    count("readonly");
}

int
PersistentStore::allocSlot()
{
    if (free_head_ >= 0) {
        const int slot = free_head_;
        free_head_ = slots_[static_cast<std::size_t>(slot)].next;
        slots_[static_cast<std::size_t>(slot)] = Slot{};
        return slot;
    }
    slots_.emplace_back();
    return static_cast<int>(slots_.size()) - 1;
}

void
PersistentStore::freeSlot(int slot)
{
    Slot& s = slots_[static_cast<std::size_t>(slot)];
    s = Slot{};
    s.next = free_head_;
    free_head_ = slot;
}

void
PersistentStore::pushFront(List& list, int slot)
{
    Slot& s = slots_[static_cast<std::size_t>(slot)];
    s.prev = -1;
    s.next = list.head;
    if (list.head >= 0)
        slots_[static_cast<std::size_t>(list.head)].prev = slot;
    list.head = slot;
    if (list.tail < 0)
        list.tail = slot;
    ++list.count;
}

void
PersistentStore::unlink(List& list, int slot)
{
    Slot& s = slots_[static_cast<std::size_t>(slot)];
    if (s.prev >= 0)
        slots_[static_cast<std::size_t>(s.prev)].next = s.next;
    else
        list.head = s.next;
    if (s.next >= 0)
        slots_[static_cast<std::size_t>(s.next)].prev = s.prev;
    else
        list.tail = s.prev;
    s.prev = -1;
    s.next = -1;
    --list.count;
}

void
PersistentStore::touch(int slot)
{
    Slot& s = slots_[static_cast<std::size_t>(slot)];
    s.epoch = ++epoch_;
    // A touched entry moves to the protected front; probation is only
    // for keys that have not proven reuse yet.  Recency moves are
    // in-memory only -- the manifest log records the epoch at save
    // time and flush() snapshots the final order, so hits stay reads.
    unlink(lists_[s.segment], slot);
    s.segment = kProtected;
    pushFront(lists_[kProtected], slot);
    // Keep the protected segment within its share by demoting its tail
    // back to probation (not evicting -- it keeps its record).
    const int protected_cap = options_.max_entries * kProtectedPercent / 100;
    while (lists_[kProtected].count > protected_cap) {
        const int demoted = lists_[kProtected].tail;
        unlink(lists_[kProtected], demoted);
        slots_[static_cast<std::size_t>(demoted)].segment = kProbation;
        pushFront(lists_[kProbation], demoted);
    }
}

void
PersistentStore::insertIndexed(const std::string& key,
                               const RecordRef& ref, std::int64_t epoch,
                               int segment)
{
    const int slot = allocSlot();
    Slot& s = slots_[static_cast<std::size_t>(slot)];
    s.key = key;
    s.ref = ref;
    s.epoch = epoch;
    s.segment = segment;
    s.live = true;
    pushFront(lists_[segment], slot);
    index_[key] = slot;
}

void
PersistentStore::dropEntry(int slot)
{
    Slot& s = slots_[static_cast<std::size_t>(slot)];
    VEAL_ASSERT(s.live, "dropping a dead store slot");
    segments_.markDead(s.ref);
    index_.erase(s.key);
    unlink(lists_[s.segment], slot);
    freeSlot(slot);
}

void
PersistentStore::removeEntry(int slot, bool count_as_eviction)
{
    const std::string key = slots_[static_cast<std::size_t>(slot)].key;
    // Commit the removal so a restart cannot resurrect the entry; a
    // failed append degrades to read-only but the in-memory removal
    // still happens (this instance stops serving the entry either way).
    if (!read_only_) {
        const bool ok = count_as_eviction
                            ? manifest_.appendEvict(key)
                            : manifest_.appendInvalidate(key);
        if (!ok) {
            countIoError();
            enterReadOnly();
        }
    }
    dropEntry(slot);
    if (count_as_eviction) {
        ++stats_.evictions;
        count("evictions");
    }
}

void
PersistentStore::evictOne()
{
    // Probation tail first (the entry with the least proven reuse);
    // an all-protected store falls back to the protected tail.
    int victim = lists_[kProbation].tail;
    if (victim < 0)
        victim = lists_[kProtected].tail;
    VEAL_ASSERT(victim >= 0, "evicting from an empty store");
    removeEntry(victim, /*count_as_eviction=*/true);
}

// --- Recovery -------------------------------------------------------

void
PersistentStore::openIndex()
{
    const std::vector<std::string> names = vfs_->listDir(directory_);
    if (!read_only_)
        sweepTmpFiles(names);

    // High-water per segment: the end of the last *committed* record.
    // Collected from the snapshot's `end` record and every manifest add
    // (superseded ones too -- their bytes were committed even if later
    // garbage) or from a scan, then used to truncate uncommitted tail
    // bytes.
    std::unordered_map<std::int64_t, std::int64_t> high_water;
    bool needs_rewrite = false;

    const ManifestReplay replay = manifest_.replay();
    if (replay.header_ok) {
        for (const auto& record : replay.records) {
            const bool end = record.kind == ManifestRecord::Kind::kEnd;
            if (!end && record.kind != ManifestRecord::Kind::kAdd)
                continue;
            auto& hw = high_water[record.ref.segment];
            hw = std::max(hw, end ? record.ref.offset
                                  : record.ref.offset + kSegmentRecordHeader +
                                        record.ref.length);
        }
        replayManifest(replay);
        if (replay.torn_tail) {
            ++stats_.tail_truncations;
            count("tail_truncations");
            if (!read_only_ && !manifest_.truncateTo(replay.valid_bytes))
                countIoError();
        }
        if (replay.corrupt_lines > 0) {
            stats_.corrupt += replay.corrupt_lines;
            count("corrupt", replay.corrupt_lines);
            needs_rewrite = true;
        }
    } else {
        // Missing, or not our format (or the header itself tore): set
        // a present one aside for post-mortem and fall back to the
        // scan.  The scan trusts whole records wherever they sit, so
        // the high-water of each segment is everything it accepted.
        if (replay.present && !read_only_ &&
            !vfs_->renameFile(manifest_.path(),
                              manifest_.path() + ".corrupt"))
            countIoError();
        high_water = scanRebuild(names);
        needs_rewrite = true;
    }

    reconcileSegments(names, high_water,
                      /*highest_only=*/replay.header_ok);

    // Seed segment occupancy from the entries that survived.
    for (const Slot& s : slots_) {
        if (s.live)
            segments_.addLiveRef(s.ref);
    }

    // A shrunk --cache-capacity evicts the excess immediately, so the
    // on-disk footprint always respects the configured bound.
    while (static_cast<int>(index_.size()) > options_.max_entries)
        evictOne();

    if (needs_rewrite && !read_only_)
        rewriteManifest();
    stats_.size = size();
}

void
PersistentStore::sweepTmpFiles(const std::vector<std::string>& names)
{
    for (const std::string& name : names) {
        if (!hasSuffix(name, kTmpSuffix))
            continue;
        if (vfs_->removeFile((fs::path(directory_) / name).string())) {
            ++stats_.tmp_swept;
            count("tmp_swept");
        } else {
            countIoError();
        }
    }
}

void
PersistentStore::replayManifest(const ManifestReplay& replay)
{
    // Last writer wins; evict/invalidate drop the key (an `end` record
    // names none).  First-seen order is kept so the epoch sort below
    // has a deterministic tie order.
    struct Final {
        std::string key;
        RecordRef ref;
        std::int64_t epoch = 0;
        int lru_segment = kProbation;
        bool live = false;
    };
    std::vector<Final> finals;
    std::unordered_map<std::string, std::size_t> by_key;
    for (const auto& record : replay.records) {
        const auto it = by_key.find(record.key);
        if (record.kind == ManifestRecord::Kind::kAdd) {
            Final entry;
            entry.key = record.key;
            entry.ref = record.ref;
            entry.epoch = record.epoch;
            entry.lru_segment = record.lru_segment == 1 ? kProtected
                                                        : kProbation;
            entry.live = true;
            if (it == by_key.end()) {
                by_key.emplace(record.key, finals.size());
                finals.push_back(std::move(entry));
            } else {
                finals[it->second] = std::move(entry);
            }
        } else if (it != by_key.end()) {
            finals[it->second].live = false;
        }
    }

    // Oldest-first insertion rebuilds the exact recency order (each
    // insert lands at its segment's front).
    std::vector<const Final*> alive;
    for (const Final& entry : finals) {
        if (entry.live)
            alive.push_back(&entry);
    }
    std::stable_sort(alive.begin(), alive.end(),
                     [](const Final* a, const Final* b) {
                         return a->epoch < b->epoch;
                     });
    for (const Final* entry : alive) {
        insertIndexed(entry->key, entry->ref, entry->epoch,
                      entry->lru_segment);
        epoch_ = std::max(epoch_, entry->epoch);
    }
}

std::unordered_map<std::int64_t, std::int64_t>
PersistentStore::scanRebuild(const std::vector<std::string>& names)
{
    // No (or untrustworthy) manifest log: re-derive the index from the
    // segment records themselves, oldest segment first so a later
    // record for the same key wins -- the same last-writer-wins rule
    // as the replay.  Every payload re-validates on the way in.
    std::unordered_map<std::int64_t, std::int64_t> valid_bytes;
    std::vector<std::int64_t> segs;
    for (const std::string& name : names) {
        if (const auto seg = SegmentLog::parseSegmentName(name))
            segs.push_back(*seg);
    }
    std::sort(segs.begin(), segs.end());
    if (segs.empty())
        return valid_bytes;

    for (const std::int64_t seg : segs) {
        const SegmentScan scan =
            segments_.scanFile(segments_.segmentPath(seg));
        valid_bytes[seg] = scan.valid_bytes;
        if (scan.corrupt_records > 0) {
            stats_.corrupt += scan.corrupt_records;
            count("corrupt", scan.corrupt_records);
        }
        for (const ScannedRecord& record : scan.records) {
            auto decoded =
                decodeBlob(record.payload.data(), record.payload.size());
            if (const auto* error = std::get_if<BlobError>(&decoded)) {
                if (*error == BlobError::kVersionSkew) {
                    ++stats_.version_skew;
                    count("version_skew");
                } else {
                    ++stats_.corrupt;
                    count("corrupt");
                }
                continue;
            }
            const auto& image = std::get<PersistedImage>(decoded);
            RecordRef ref;
            ref.segment = seg;
            ref.offset = record.offset;
            ref.length = static_cast<std::int64_t>(record.payload.size());
            const auto it = index_.find(image.key);
            if (it != index_.end()) {
                // Later record supersedes: retarget in place.
                slots_[static_cast<std::size_t>(it->second)].ref = ref;
            } else {
                insertIndexed(image.key, ref, ++epoch_, kProbation);
            }
        }
    }
    ++stats_.manifest_rebuilds;
    count("manifest_rebuilds");
    return valid_bytes;
}

void
PersistentStore::reconcileSegments(
    const std::vector<std::string>& names,
    const std::unordered_map<std::int64_t, std::int64_t>& high_water,
    bool highest_only)
{
    // Which segments actually exist, and how big they really are.
    std::unordered_map<std::int64_t, std::int64_t> on_disk;
    std::int64_t max_seg = -1;
    for (const std::string& name : names) {
        const auto seg = SegmentLog::parseSegmentName(name);
        if (!seg.has_value())
            continue;
        const auto size =
            vfs_->fileSize(segments_.segmentPath(*seg));
        on_disk[*seg] = size.value_or(0);
        max_seg = std::max(max_seg, *seg);
    }

    // Uncommitted tail bytes (a record whose manifest commit never
    // landed, or a torn final append) get truncated so the file ends
    // at its last committed record.  Only the highest segment ever
    // grows, so after a manifest replay the sealed segments keep their
    // bytes -- records later invalidated or evicted included.  A scan
    // cuts every segment after its last whole record.
    for (auto& [seg, size] : on_disk) {
        if (highest_only && seg != max_seg)
            continue;
        std::int64_t hw = 0;
        if (const auto it = high_water.find(seg); it != high_water.end())
            hw = it->second;
        if (size > hw) {
            if (!read_only_) {
                if (vfs_->truncateFile(segments_.segmentPath(seg), hw)) {
                    ++stats_.tail_truncations;
                    count("tail_truncations");
                    stats_.orphans_dropped += size - hw;
                    count("orphans_dropped", size - hw);
                    size = hw;
                } else {
                    countIoError();
                }
            } else {
                // A reader must not mutate; refs never point past the
                // high-water anyway, so just account the bounded size.
                size = hw;
            }
        }
    }

    // Entries whose bytes the segments can no longer back (externally
    // truncated or deleted files) are lost: drop them so loads miss
    // cleanly instead of flailing on reads.
    std::vector<int> doomed;
    for (int slot = 0; slot < static_cast<int>(slots_.size()); ++slot) {
        const Slot& s = slots_[static_cast<std::size_t>(slot)];
        if (!s.live)
            continue;
        const auto it = on_disk.find(s.ref.segment);
        const std::int64_t end =
            s.ref.offset + kSegmentRecordHeader + s.ref.length;
        if (it == on_disk.end() || it->second < end)
            doomed.push_back(slot);
    }
    for (const int slot : doomed) {
        // Not dropEntry(): occupancy is not seeded yet during open.
        Slot& s = slots_[static_cast<std::size_t>(slot)];
        index_.erase(s.key);
        unlink(lists_[s.segment], slot);
        freeSlot(slot);
        ++stats_.lost_records;
        count("lost_records");
    }

    // Referenced segments join the log's accounting; unreferenced
    // sealed segments (fully compacted, or orphaned by a crash between
    // compaction's copy and delete) are removed.  The highest id stays
    // as the active segment even when empty of live records, so new
    // appends never reuse an id.
    std::unordered_map<std::int64_t, bool> referenced;
    for (const Slot& s : slots_) {
        if (s.live)
            referenced[s.ref.segment] = true;
    }
    for (const auto& [seg, size] : on_disk) {
        if (referenced.count(seg) != 0 || seg == max_seg) {
            segments_.adoptSegment(seg, size);
        } else if (!read_only_) {
            if (!vfs_->removeFile(segments_.segmentPath(seg)))
                countIoError();
        }
    }
}

// --- Serving --------------------------------------------------------

std::optional<PersistedImage>
PersistentStore::load(const std::string& key)
{
    const auto it = index_.find(key);
    if (it == index_.end()) {
        ++stats_.misses;
        count("misses");
        return std::nullopt;
    }
    const int slot = it->second;

    auto miss = [&]() {
        ++stats_.misses;
        count("misses");
        return std::optional<PersistedImage>();
    };
    auto drop_corrupt = [&](const char* counter, std::int64_t* stat) {
        // Degrade, never crash: commit the removal (a restart must not
        // resurrect the bytes), drop the entry, report a miss so the
        // caller re-translates.  The garbage bytes stay in the segment
        // for post-mortem until compaction reclaims them.
        removeEntry(slot, /*count_as_eviction=*/false);
        ++*stat;
        count(counter);
        stats_.size = size();
        return miss();
    };

    auto result =
        segments_.read(slots_[static_cast<std::size_t>(slot)].ref);
    if (const auto* error = std::get_if<RecordError>(&result)) {
        if (*error == RecordError::kIo) {
            // Transient I/O trouble is not corruption: keep the entry
            // (a later load may succeed), count it apart.
            countIoError();
            return miss();
        }
        return drop_corrupt("corrupt", &stats_.corrupt);
    }
    const auto& payload = std::get<std::vector<std::uint8_t>>(result);
    auto decoded = decodeBlob(payload.data(), payload.size());
    if (const auto* error = std::get_if<BlobError>(&decoded)) {
        if (*error == BlobError::kVersionSkew)
            return drop_corrupt("version_skew", &stats_.version_skew);
        return drop_corrupt("corrupt", &stats_.corrupt);
    }
    auto image = std::move(std::get<PersistedImage>(decoded));
    if (image.key != key)
        return drop_corrupt("corrupt", &stats_.corrupt);
    touch(slot);
    ++stats_.hits;
    count("hits");
    return image;
}

bool
PersistentStore::contains(const std::string& key) const
{
    return index_.count(key) != 0;
}

bool
PersistentStore::save(const PersistedImage& image)
{
    if (read_only_) {
        // The read-only tier serves hits and skips persists -- the
        // caller keeps its translation, nothing is lost but reuse.
        ++stats_.readonly_skips;
        count("readonly_skips");
        return false;
    }
    auto it = index_.find(image.key);
    if (it == index_.end()) {
        while (static_cast<int>(index_.size()) >= options_.max_entries)
            evictOne();
        if (read_only_)
            return false;  // The eviction commit failed.
        it = index_.end();  // Iterators may have been invalidated.
    }

    const auto blob = encodeBlob(image);
    const auto ref = segments_.append(blob);
    if (!ref.has_value()) {
        countIoError();
        enterReadOnly();
        return false;
    }

    // The manifest append is the commit point: only after it lands is
    // the save acked.  A crash in between leaves an orphan record that
    // recovery truncates -- the acked state is exactly preserved.
    it = index_.find(image.key);
    if (it != index_.end()) {
        Slot& s = slots_[static_cast<std::size_t>(it->second)];
        const RecordRef old = s.ref;
        s.ref = *ref;
        touch(it->second);
        if (!manifest_.appendAdd(image.key, *ref, s.epoch,
                                 s.segment == kProtected ? 1 : 0)) {
            countIoError();
            enterReadOnly();
            return false;
        }
        segments_.markDead(old);
    } else {
        const std::int64_t epoch = ++epoch_;
        if (!manifest_.appendAdd(image.key, *ref, epoch, kProbation)) {
            countIoError();
            enterReadOnly();
            return false;
        }
        insertIndexed(image.key, *ref, epoch, kProbation);
    }
    ++stats_.saves;
    count("saves");
    stats_.size = size();
    compactIfNeeded();
    maybeRewriteManifest();
    return true;
}

bool
PersistentStore::invalidate(const std::string& key)
{
    const auto it = index_.find(key);
    if (it == index_.end())
        return false;
    if (read_only_) {
        // No disk write allowed; drop from this instance's view so the
        // caller's re-translation is served fresh.
        ++stats_.readonly_skips;
        count("readonly_skips");
        dropEntry(it->second);
    } else {
        removeEntry(it->second, /*count_as_eviction=*/false);
    }
    ++stats_.invalidations;
    count("invalidations");
    stats_.size = size();
    return true;
}

// --- Log upkeep -----------------------------------------------------

void
PersistentStore::compactIfNeeded()
{
    const auto victim =
        segments_.compactionCandidate(options_.compact_garbage_percent);
    if (victim.has_value())
        compactSegment(*victim);
}

bool
PersistentStore::compactNow()
{
    if (read_only_)
        return false;
    const auto victim = segments_.compactionCandidate(1);
    if (!victim.has_value())
        return false;
    return compactSegment(*victim);
}

bool
PersistentStore::compactSegment(std::int64_t victim)
{
    if (read_only_)
        return false;
    const auto info_it = segments_.segments().find(victim);
    if (info_it == segments_.segments().end())
        return false;
    const std::int64_t garbage =
        info_it->second.bytes - info_it->second.live_bytes;

    // Live records of the victim, in file order (deterministic).
    std::vector<int> movers;
    for (int slot = 0; slot < static_cast<int>(slots_.size()); ++slot) {
        const Slot& s = slots_[static_cast<std::size_t>(slot)];
        if (s.live && s.ref.segment == victim)
            movers.push_back(slot);
    }
    std::sort(movers.begin(), movers.end(), [this](int a, int b) {
        return slots_[static_cast<std::size_t>(a)].ref.offset <
               slots_[static_cast<std::size_t>(b)].ref.offset;
    });

    for (const int slot : movers) {
        Slot& s = slots_[static_cast<std::size_t>(slot)];
        auto result = segments_.read(s.ref);
        if (const auto* error = std::get_if<RecordError>(&result)) {
            if (*error == RecordError::kIo) {
                countIoError();
                enterReadOnly();
                return false;  // Half-compacted is still consistent:
                               // every ref points at a valid copy.
            }
            // Corrupt live record: it was going to fail its next load
            // anyway; commit the removal now instead of copying rot.
            removeEntry(slot, /*count_as_eviction=*/false);
            ++stats_.corrupt;
            count("corrupt");
            stats_.size = size();
            if (read_only_)
                return false;
            continue;
        }
        const auto& payload = std::get<std::vector<std::uint8_t>>(result);
        const auto moved = segments_.append(payload);
        if (!moved.has_value()) {
            countIoError();
            enterReadOnly();
            return false;
        }
        if (!manifest_.appendAdd(s.key, *moved, s.epoch,
                                 s.segment == kProtected ? 1 : 0)) {
            countIoError();
            enterReadOnly();
            return false;
        }
        const RecordRef old = s.ref;
        s.ref = *moved;
        segments_.markDead(old);
    }

    // Every live record moved; the file is garbage.  A crash before
    // this delete leaves an unreferenced segment that the next open
    // removes.
    if (!vfs_->removeFile(segments_.segmentPath(victim))) {
        countIoError();
        enterReadOnly();
        return false;
    }
    segments_.dropSegment(victim);
    ++stats_.compactions;
    count("compactions");
    stats_.reclaimed_bytes += garbage;
    count("reclaimed_bytes", garbage);
    maybeRewriteManifest();
    return true;
}

std::vector<ManifestRecord>
PersistentStore::snapshotRecords() const
{
    // First the active segment's committed end (every byte of it is
    // committed whenever a snapshot is taken), so recovery truncates
    // only past it.  Then tail-to-head (oldest first) per LRU segment;
    // replay re-sorts by epoch stamp anyway, so the order is cosmetic
    // but deterministic.
    std::vector<ManifestRecord> records;
    records.reserve(index_.size() + 1);
    ManifestRecord end;
    end.kind = ManifestRecord::Kind::kEnd;
    end.ref.segment = segments_.activeSegment();
    if (const auto it = segments_.segments().find(end.ref.segment);
        it != segments_.segments().end())
        end.ref.offset = it->second.bytes;
    records.push_back(std::move(end));
    for (const int segment : {kProbation, kProtected}) {
        for (int slot = lists_[segment].tail; slot >= 0;
             slot = slots_[static_cast<std::size_t>(slot)].prev) {
            const Slot& s = slots_[static_cast<std::size_t>(slot)];
            ManifestRecord record;
            record.kind = ManifestRecord::Kind::kAdd;
            record.key = s.key;
            record.ref = s.ref;
            record.epoch = s.epoch;
            record.lru_segment = segment == kProtected ? 1 : 0;
            records.push_back(std::move(record));
        }
    }
    return records;
}

bool
PersistentStore::rewriteManifest()
{
    if (read_only_)
        return false;
    if (!manifest_.rewrite(snapshotRecords())) {
        countIoError();
        enterReadOnly();
        return false;
    }
    ++stats_.manifest_rewrites;
    count("manifest_rewrites");
    return true;
}

void
PersistentStore::maybeRewriteManifest()
{
    if (read_only_)
        return;
    const std::int64_t threshold = std::max<std::int64_t>(
        256, 4 * static_cast<std::int64_t>(index_.size()));
    if (manifest_.appendsSinceRewrite() > threshold)
        rewriteManifest();
}

void
PersistentStore::flush()
{
    if (read_only_)
        return;
    rewriteManifest();
}

// --- Introspection --------------------------------------------------

StoreStats
PersistentStore::stats() const
{
    StoreStats stats = stats_;
    stats.size = size();
    stats.segments =
        static_cast<std::int64_t>(segments_.segments().size());
    stats.live_bytes = segments_.liveBytes();
    stats.log_bytes = segments_.totalBytes();
    return stats;
}

std::vector<std::string>
PersistentStore::keys() const
{
    std::vector<std::string> keys;
    keys.reserve(index_.size());
    for (const auto& [key, slot] : index_)
        keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    return keys;
}

std::optional<RecordLocation>
PersistentStore::recordLocation(const std::string& key) const
{
    const auto it = index_.find(key);
    if (it == index_.end())
        return std::nullopt;
    const Slot& s = slots_[static_cast<std::size_t>(it->second)];
    RecordLocation location;
    location.path = segments_.segmentPath(s.ref.segment);
    location.offset = s.ref.offset + kSegmentRecordHeader;
    location.length = s.ref.length;
    return location;
}

}  // namespace veal::persist
