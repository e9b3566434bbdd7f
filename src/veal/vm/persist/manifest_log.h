#ifndef VEAL_VM_PERSIST_MANIFEST_LOG_H_
#define VEAL_VM_PERSIST_MANIFEST_LOG_H_

/**
 * @file
 * The store's append-only commit log (replaces the rewritten MANIFEST).
 *
 * `MANIFEST.log` is a text file: a header line, then one checksummed
 * record per line:
 *
 *   veal-persist-log-v2
 *   <crc> end <segment> <bytes>
 *   <crc> add <segment> <offset> <length> <epoch> <lru> <key>
 *   <crc> evict <key>
 *   <crc> invalidate <key>
 *
 * <crc> is the low 32 bits of FNV-1a over the body (everything after
 * "<crc> "), in hex.  A save commits by appending an `add` line *after*
 * its segment append, so recovery is a replay: apply records in order,
 * last writer wins, stop at the first torn line (a crash can only tear
 * the tail; the tail is truncated and the segment bytes past the last
 * committed record are orphans, dropped by the store).  A mid-file line
 * that fails its crc (bit flip, not a crash artifact) is skipped, and
 * the remaining lines still apply -- line framing survives because
 * newlines inside keys are percent-escaped.
 *
 * Compaction moves are plain `add` records for the new location --
 * replay order makes them supersede the old one, so no extra record
 * type is needed and a crash mid-compaction leaves every key pointing
 * at a valid copy (old or new, both checksummed).
 *
 * flush() rewrites the log as a snapshot via temp-then-rename,
 * bounding replay time; the store also rewrites opportunistically when
 * the log grows well past the live-entry count.  A snapshot opens with
 * one `end` record, the active segment's committed length (the store
 * truncates only that segment on recovery, only past it), then holds
 * one `add` per live entry.
 *
 * Keys are percent-escaped (%, space, control, non-ASCII) so hostile
 * keys -- including embedded newlines -- round-trip exactly.
 */

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "veal/vm/persist/segment_log.h"
#include "veal/vm/persist/vfs.h"

namespace veal::persist {

/** Manifest-log format header. */
constexpr const char* kManifestLogHeader = "veal-persist-log-v2";

/** One replayed record. */
struct ManifestRecord {
    enum class Kind : int { kAdd = 0, kEvict, kInvalidate, kEnd };

    Kind kind = Kind::kAdd;
    std::string key;  ///< Empty for kEnd.

    /**
     * kAdd: where the payload lives.  kEnd: `segment` and, in
     * `offset`, its committed length.
     */
    RecordRef ref;

    // kAdd only.
    std::int64_t epoch = 0;
    int lru_segment = 0;  ///< PersistentStore::kProbation / kProtected.
};

/** Everything replay() learned. */
struct ManifestReplay {
    /** False when the file exists but the header is not ours. */
    bool header_ok = false;

    /** True when MANIFEST.log exists at all. */
    bool present = false;

    std::vector<ManifestRecord> records;

    /** Byte offset just past the last good line (truncation target). */
    std::int64_t valid_bytes = 0;

    /** True when damaged bytes follow valid_bytes (torn final append). */
    bool torn_tail = false;

    /** Bad lines *before* the last good line (bit flips, skipped). */
    std::int64_t corrupt_lines = 0;
};

/** Percent-escape @p key for single-line storage. */
std::string escapeManifestKey(const std::string& key);

/** Inverse of escapeManifestKey(); nullopt on malformed escapes. */
std::optional<std::string> unescapeManifestKey(const std::string& text);

/** The commit-log half of the store; see file doc. */
class ManifestLog {
  public:
    ManifestLog(std::string directory, std::shared_ptr<Vfs> vfs);

    std::string path() const;

    /** Parse the log (never throws; see ManifestReplay). */
    ManifestReplay replay();

    /** Append one record; false on I/O failure (caller goes read-only). */
    bool appendAdd(const std::string& key, const RecordRef& ref,
                   std::int64_t epoch, int lru_segment);
    bool appendEvict(const std::string& key);
    bool appendInvalidate(const std::string& key);

    /**
     * Replace the log with a snapshot of @p records (a kEnd, then
     * kAdds), temp-then-rename; false on I/O failure.  Resets the
     * append counter.
     */
    bool rewrite(const std::vector<ManifestRecord>& records);

    /** Truncate the on-disk log to @p bytes (torn-tail repair). */
    bool truncateTo(std::int64_t bytes);

    /** Records appended since open/rewrite (rewrite-policy input). */
    std::int64_t appendsSinceRewrite() const
    {
        return appends_since_rewrite_;
    }

  private:
    bool appendLine(const std::string& body);

    std::string directory_;
    std::shared_ptr<Vfs> vfs_;
    std::int64_t appends_since_rewrite_ = 0;
};

}  // namespace veal::persist

#endif  // VEAL_VM_PERSIST_MANIFEST_LOG_H_
