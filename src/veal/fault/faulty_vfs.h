#ifndef VEAL_FAULT_FAULTY_VFS_H_
#define VEAL_FAULT_FAULTY_VFS_H_

/**
 * @file
 * Crash-point injection under the persistent store's Vfs seam.
 *
 * FaultyVfs wraps a real Vfs and counts *mutating* operations (append,
 * writeFile, rename, remove, truncate, sync, mkdir).  At the Nth
 * mutation it injects one of four storage faults:
 *
 *  - kCrash: the process "dies" mid-operation.  The triggering write
 *    lands only a deterministic prefix (torn tail), a triggering
 *    rename/remove/truncate does not happen at all, and every later
 *    call -- reads included -- fails.  This is kill -9: the store
 *    degrades to read-only for the rest of its (doomed) life, and the
 *    interesting assertion happens on the next clean open.
 *  - kShortWrite: the triggering write lands a prefix and reports
 *    failure; later operations succeed.  Models a transient full/
 *    interrupted write the store must survive in-line.
 *  - kBitFlip: one deterministic bit of the triggering write's buffer
 *    flips; the write "succeeds".  Models silent media corruption --
 *    nothing fails until a checksum catches it.
 *  - kEnospc: the triggering mutation and every later one fail cleanly
 *    with nothing written; reads keep working.  Models a full disk.
 *
 * All draws (cut points, bit positions) are pure functions of
 * (seed, trigger_op), so a campaign run is exactly reproducible.
 *
 * The campaign counts a workload's mutations with trigger_op = -1
 * (pass-through), then replays the workload once per crash point.
 */

#include <cstdint>
#include <memory>

#include "veal/vm/persist/vfs.h"

namespace veal::fault {

/** Which storage fault fires at the trigger op. */
enum class VfsFaultMode : int {
    kCrash = 0,
    kShortWrite,
    kBitFlip,
    kEnospc,
};

/** Mode name, e.g. "short-write". */
const char* toString(VfsFaultMode mode);

struct FaultyVfsOptions {
    VfsFaultMode mode = VfsFaultMode::kCrash;

    /** Mutation index (0-based) at which the fault fires; -1 = never. */
    std::int64_t trigger_op = -1;

    /** Seeds the cut-point / bit-position draws. */
    std::uint64_t seed = 1;
};

/** The fault-injecting Vfs decorator; see file doc. */
class FaultyVfs : public persist::Vfs {
  public:
    FaultyVfs(std::shared_ptr<persist::Vfs> base,
              FaultyVfsOptions options);

    /** Mutations attempted so far (the crash-point space). */
    std::int64_t mutationOps() const { return mutation_ops_; }

    /** True once a kCrash trigger fired. */
    bool died() const { return dead_; }

    /** True once the trigger op (any mode) fired. */
    bool fired() const { return fired_; }

    std::optional<std::vector<std::uint8_t>> readFile(
        const std::string& path) override;
    std::optional<std::vector<std::uint8_t>> readRange(
        const std::string& path, std::int64_t offset,
        std::int64_t size) override;
    bool exists(const std::string& path) override;
    std::optional<std::int64_t> fileSize(const std::string& path) override;
    std::vector<std::string> listDir(const std::string& dir) override;
    bool append(const std::string& path,
                const std::vector<std::uint8_t>& bytes) override;
    bool writeFile(const std::string& path,
                   const std::vector<std::uint8_t>& bytes) override;
    bool renameFile(const std::string& from,
                    const std::string& to) override;
    bool removeFile(const std::string& path) override;
    bool truncateFile(const std::string& path, std::int64_t size) override;
    bool syncFile(const std::string& path) override;
    bool createDirectories(const std::string& dir) override;
    std::unique_ptr<persist::VfsLock> tryLockExclusive(
        const std::string& path) override;

  private:
    /** What a mutation should do at this point in the fault's life. */
    enum class Verdict : int {
        kPass = 0,   ///< Run the real operation.
        kTornWrite,  ///< Write a prefix; crash (kCrash) or fail once.
        kFlip,       ///< Flip a bit, run the operation, report success.
        kDropOp,     ///< Do nothing; crash (kCrash) or fail.
        kFail,       ///< Do nothing, report failure (dead / ENOSPC).
    };
    Verdict classifyMutation(bool is_write);

    /** Deterministic draw for the trigger op. */
    std::uint64_t draw() const;

    std::shared_ptr<persist::Vfs> base_;
    FaultyVfsOptions options_;
    std::int64_t mutation_ops_ = 0;
    bool fired_ = false;
    bool dead_ = false;
    bool enospc_ = false;
};

}  // namespace veal::fault

#endif  // VEAL_FAULT_FAULTY_VFS_H_
