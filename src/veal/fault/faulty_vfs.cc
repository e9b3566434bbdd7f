#include "veal/fault/faulty_vfs.h"

namespace veal::fault {

namespace {

/** splitmix64: the repo-standard cheap deterministic mixer. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

}  // namespace

const char*
toString(VfsFaultMode mode)
{
    switch (mode) {
      case VfsFaultMode::kCrash: return "crash";
      case VfsFaultMode::kShortWrite: return "short-write";
      case VfsFaultMode::kBitFlip: return "bit-flip";
      case VfsFaultMode::kEnospc: return "enospc";
    }
    return "unknown";
}

FaultyVfs::FaultyVfs(std::shared_ptr<persist::Vfs> base,
                     FaultyVfsOptions options)
    : base_(std::move(base)), options_(options)
{
}

std::uint64_t
FaultyVfs::draw() const
{
    return mix(options_.seed ^
               mix(static_cast<std::uint64_t>(options_.trigger_op)));
}

FaultyVfs::Verdict
FaultyVfs::classifyMutation(bool is_write)
{
    if (dead_)
        return Verdict::kFail;
    if (enospc_)
        return Verdict::kFail;
    const std::int64_t op = mutation_ops_++;
    const bool trigger =
        options_.trigger_op >= 0 && op == options_.trigger_op;
    if (!trigger)
        return Verdict::kPass;
    fired_ = true;
    switch (options_.mode) {
        case VfsFaultMode::kCrash:
            dead_ = true;
            return is_write ? Verdict::kTornWrite : Verdict::kDropOp;
        case VfsFaultMode::kShortWrite:
            return is_write ? Verdict::kTornWrite : Verdict::kDropOp;
        case VfsFaultMode::kBitFlip:
            // Only writes carry bytes to flip; a non-write trigger
            // passes through untouched (the campaign still covers the
            // point -- it just has no payload to corrupt).
            return is_write ? Verdict::kFlip : Verdict::kPass;
        case VfsFaultMode::kEnospc:
            enospc_ = true;
            return Verdict::kFail;
    }
    return Verdict::kPass;
}

std::optional<std::vector<std::uint8_t>>
FaultyVfs::readFile(const std::string& path)
{
    if (dead_)
        return std::nullopt;
    return base_->readFile(path);
}

std::optional<std::vector<std::uint8_t>>
FaultyVfs::readRange(const std::string& path, std::int64_t offset,
                     std::int64_t size)
{
    if (dead_)
        return std::nullopt;
    return base_->readRange(path, offset, size);
}

bool
FaultyVfs::exists(const std::string& path)
{
    if (dead_)
        return false;
    return base_->exists(path);
}

std::optional<std::int64_t>
FaultyVfs::fileSize(const std::string& path)
{
    if (dead_)
        return std::nullopt;
    return base_->fileSize(path);
}

std::vector<std::string>
FaultyVfs::listDir(const std::string& dir)
{
    if (dead_)
        return {};
    return base_->listDir(dir);
}

bool
FaultyVfs::append(const std::string& path,
                  const std::vector<std::uint8_t>& bytes)
{
    switch (classifyMutation(/*is_write=*/true)) {
        case Verdict::kPass:
            return base_->append(path, bytes);
        case Verdict::kTornWrite: {
            // A deterministic strict prefix lands -- the torn tail the
            // recovery path must truncate.  An empty prefix is a valid
            // draw (the crash beat the first byte).
            const std::size_t cut =
                bytes.empty()
                    ? 0
                    : static_cast<std::size_t>(draw() % bytes.size());
            if (cut > 0) {
                base_->append(path, std::vector<std::uint8_t>(
                                        bytes.begin(),
                                        bytes.begin() +
                                            static_cast<std::ptrdiff_t>(
                                                cut)));
            }
            return false;
        }
        case Verdict::kFlip: {
            std::vector<std::uint8_t> flipped = bytes;
            if (!flipped.empty()) {
                const std::uint64_t bit = draw() % (flipped.size() * 8);
                flipped[bit / 8] ^=
                    static_cast<std::uint8_t>(1u << (bit % 8));
            }
            return base_->append(path, flipped);
        }
        case Verdict::kDropOp:
        case Verdict::kFail:
            return false;
    }
    return false;
}

bool
FaultyVfs::writeFile(const std::string& path,
                     const std::vector<std::uint8_t>& bytes)
{
    switch (classifyMutation(/*is_write=*/true)) {
        case Verdict::kPass:
            return base_->writeFile(path, bytes);
        case Verdict::kTornWrite: {
            const std::size_t cut =
                bytes.empty()
                    ? 0
                    : static_cast<std::size_t>(draw() % bytes.size());
            // The truncating open happened before the crash: the file
            // holds only the prefix.
            base_->writeFile(path, std::vector<std::uint8_t>(
                                       bytes.begin(),
                                       bytes.begin() +
                                           static_cast<std::ptrdiff_t>(
                                               cut)));
            return false;
        }
        case Verdict::kFlip: {
            std::vector<std::uint8_t> flipped = bytes;
            if (!flipped.empty()) {
                const std::uint64_t bit = draw() % (flipped.size() * 8);
                flipped[bit / 8] ^=
                    static_cast<std::uint8_t>(1u << (bit % 8));
            }
            return base_->writeFile(path, flipped);
        }
        case Verdict::kDropOp:
        case Verdict::kFail:
            return false;
    }
    return false;
}

bool
FaultyVfs::renameFile(const std::string& from, const std::string& to)
{
    switch (classifyMutation(/*is_write=*/false)) {
        case Verdict::kPass:
        case Verdict::kFlip:
            return base_->renameFile(from, to);
        default:
            return false;  // rename(2) is atomic: it happened or not.
    }
}

bool
FaultyVfs::removeFile(const std::string& path)
{
    switch (classifyMutation(/*is_write=*/false)) {
        case Verdict::kPass:
        case Verdict::kFlip:
            return base_->removeFile(path);
        default:
            return false;
    }
}

bool
FaultyVfs::truncateFile(const std::string& path, std::int64_t size)
{
    switch (classifyMutation(/*is_write=*/false)) {
        case Verdict::kPass:
        case Verdict::kFlip:
            return base_->truncateFile(path, size);
        default:
            return false;
    }
}

bool
FaultyVfs::syncFile(const std::string& path)
{
    switch (classifyMutation(/*is_write=*/false)) {
        case Verdict::kPass:
        case Verdict::kFlip:
            return base_->syncFile(path);
        default:
            return false;
    }
}

bool
FaultyVfs::createDirectories(const std::string& dir)
{
    switch (classifyMutation(/*is_write=*/false)) {
        case Verdict::kPass:
        case Verdict::kFlip:
            return base_->createDirectories(dir);
        default:
            return false;
    }
}

std::unique_ptr<persist::VfsLock>
FaultyVfs::tryLockExclusive(const std::string& path)
{
    if (dead_)
        return nullptr;
    return base_->tryLockExclusive(path);
}

}  // namespace veal::fault
