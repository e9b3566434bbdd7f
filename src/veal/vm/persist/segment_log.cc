#include "veal/vm/persist/segment_log.h"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <sstream>

#include "veal/support/fnv.h"
#include "veal/support/parse.h"

namespace veal::persist {

namespace {

void
putU32(std::vector<std::uint8_t>& out, std::uint32_t value)
{
    out.push_back(static_cast<std::uint8_t>(value & 0xffu));
    out.push_back(static_cast<std::uint8_t>((value >> 8) & 0xffu));
    out.push_back(static_cast<std::uint8_t>((value >> 16) & 0xffu));
    out.push_back(static_cast<std::uint8_t>((value >> 24) & 0xffu));
}

void
putU64(std::vector<std::uint8_t>& out, std::uint64_t value)
{
    putU32(out, static_cast<std::uint32_t>(value & 0xffffffffu));
    putU32(out, static_cast<std::uint32_t>(value >> 32));
}

std::uint32_t
getU32(const std::uint8_t* data)
{
    return static_cast<std::uint32_t>(data[0]) |
           (static_cast<std::uint32_t>(data[1]) << 8) |
           (static_cast<std::uint32_t>(data[2]) << 16) |
           (static_cast<std::uint32_t>(data[3]) << 24);
}

std::uint64_t
getU64(const std::uint8_t* data)
{
    return static_cast<std::uint64_t>(getU32(data)) |
           (static_cast<std::uint64_t>(getU32(data + 4)) << 32);
}

}  // namespace

std::vector<std::uint8_t>
encodeSegmentRecord(const std::vector<std::uint8_t>& payload)
{
    std::vector<std::uint8_t> record;
    record.reserve(static_cast<std::size_t>(kSegmentRecordHeader) +
                   payload.size());
    putU32(record, kSegmentRecordMagic);
    putU32(record, static_cast<std::uint32_t>(payload.size()));
    putU64(record, fnvBytes(payload.data(), payload.size()));
    record.insert(record.end(), payload.begin(), payload.end());
    return record;
}

SegmentLog::SegmentLog(std::string directory, std::shared_ptr<Vfs> vfs,
                       std::int64_t segment_bytes)
    : directory_(std::move(directory)),
      vfs_(std::move(vfs)),
      segment_bytes_(std::max<std::int64_t>(segment_bytes,
                                            kSegmentRecordHeader + 1))
{
}

std::string
SegmentLog::segmentPath(std::int64_t segment) const
{
    std::ostringstream os;
    os << "seg-" << segment << ".vlog";
    return (std::filesystem::path(directory_) / os.str()).string();
}

std::optional<std::int64_t>
SegmentLog::parseSegmentName(const std::string& name)
{
    constexpr const char* kPrefix = "seg-";
    constexpr const char* kSuffix = ".vlog";
    const std::size_t prefix_len = 4;
    const std::size_t suffix_len = 5;
    if (name.size() <= prefix_len + suffix_len ||
        name.compare(0, prefix_len, kPrefix) != 0 ||
        name.compare(name.size() - suffix_len, suffix_len, kSuffix) != 0)
        return std::nullopt;
    const std::string digits =
        name.substr(prefix_len, name.size() - prefix_len - suffix_len);
    const auto parsed = parseU64Strict(digits);
    if (!parsed.has_value() ||
        *parsed > static_cast<std::uint64_t>(
                      std::numeric_limits<std::int64_t>::max()))
        return std::nullopt;
    return static_cast<std::int64_t>(*parsed);
}

void
SegmentLog::adoptSegment(std::int64_t segment, std::int64_t bytes)
{
    segments_[segment].bytes = bytes;
    active_ = std::max(active_, segment);
}

void
SegmentLog::addLiveRef(const RecordRef& ref)
{
    SegmentInfo& info = segments_[ref.segment];
    info.live_bytes += kSegmentRecordHeader + ref.length;
    ++info.live_records;
}

std::optional<RecordRef>
SegmentLog::append(const std::vector<std::uint8_t>& payload)
{
    const std::int64_t record_bytes =
        kSegmentRecordHeader + static_cast<std::int64_t>(payload.size());
    SegmentInfo* info = &segments_[active_];
    if (info->bytes > 0 && info->bytes + record_bytes > segment_bytes_) {
        ++active_;
        info = &segments_[active_];
    }
    RecordRef ref;
    ref.segment = active_;
    ref.offset = info->bytes;
    ref.length = static_cast<std::int64_t>(payload.size());
    if (!vfs_->append(segmentPath(active_), encodeSegmentRecord(payload)))
        return std::nullopt;
    info->bytes += record_bytes;
    info->live_bytes += record_bytes;
    ++info->live_records;
    return ref;
}

std::variant<std::vector<std::uint8_t>, RecordError>
SegmentLog::read(const RecordRef& ref)
{
    const auto bytes =
        vfs_->readRange(segmentPath(ref.segment), ref.offset,
                        kSegmentRecordHeader + ref.length);
    if (!bytes.has_value()) {
        // Distinguish "file unreadable / vanished record" (corrupt
        // store state) from a transient read failure: if the file
        // still covers the record, the read itself failed.
        const auto size = vfs_->fileSize(segmentPath(ref.segment));
        if (size.has_value() &&
            *size >= ref.offset + kSegmentRecordHeader + ref.length)
            return RecordError::kIo;
        return RecordError::kCorrupt;
    }
    const std::uint8_t* data = bytes->data();
    if (getU32(data) != kSegmentRecordMagic ||
        getU32(data + 4) != static_cast<std::uint32_t>(ref.length))
        return RecordError::kCorrupt;
    const std::uint64_t checksum = getU64(data + 8);
    std::vector<std::uint8_t> payload(
        bytes->begin() + kSegmentRecordHeader, bytes->end());
    if (fnvBytes(payload.data(), payload.size()) != checksum)
        return RecordError::kCorrupt;
    return payload;
}

void
SegmentLog::markDead(const RecordRef& ref)
{
    const auto it = segments_.find(ref.segment);
    if (it == segments_.end())
        return;
    it->second.live_bytes -= kSegmentRecordHeader + ref.length;
    --it->second.live_records;
}

void
SegmentLog::dropSegment(std::int64_t segment)
{
    segments_.erase(segment);
}

std::optional<std::int64_t>
SegmentLog::compactionCandidate(int min_garbage_percent) const
{
    std::optional<std::int64_t> best;
    std::int64_t best_garbage_x100 = -1;
    for (const auto& [segment, info] : segments_) {
        if (segment == active_ || info.bytes <= 0)
            continue;
        const std::int64_t garbage = info.bytes - info.live_bytes;
        const std::int64_t garbage_x100 = garbage * 100 / info.bytes;
        if (garbage_x100 < min_garbage_percent)
            continue;
        if (garbage_x100 > best_garbage_x100) {
            best_garbage_x100 = garbage_x100;
            best = segment;
        }
    }
    return best;
}

SegmentScan
SegmentLog::scanFile(const std::string& path)
{
    SegmentScan scan;
    const auto bytes = vfs_->readFile(path);
    if (!bytes.has_value())
        return scan;
    const std::uint8_t* data = bytes->data();
    const std::int64_t size = static_cast<std::int64_t>(bytes->size());
    std::int64_t offset = 0;
    while (offset + kSegmentRecordHeader <= size) {
        if (getU32(data + offset) != kSegmentRecordMagic)
            break;  // Torn or trashed header: the tail ends here.
        const std::int64_t length = getU32(data + offset + 4);
        if (offset + kSegmentRecordHeader + length > size)
            break;  // Payload runs past EOF: torn tail.
        const std::uint64_t checksum = getU64(data + offset + 8);
        const std::uint8_t* payload = data + offset + kSegmentRecordHeader;
        if (fnvBytes(payload, static_cast<std::size_t>(length)) == checksum) {
            ScannedRecord record;
            record.offset = offset;
            record.payload.assign(payload, payload + length);
            scan.records.push_back(std::move(record));
        } else {
            // Length prefix intact but payload flipped: skip this
            // record, keep scanning -- later records are still framed.
            ++scan.corrupt_records;
        }
        offset += kSegmentRecordHeader + length;
    }
    scan.valid_bytes = offset;
    scan.torn_tail = offset < size;
    return scan;
}

std::int64_t
SegmentLog::liveBytes() const
{
    std::int64_t total = 0;
    for (const auto& [segment, info] : segments_)
        total += info.live_bytes;
    return total;
}

std::int64_t
SegmentLog::totalBytes() const
{
    std::int64_t total = 0;
    for (const auto& [segment, info] : segments_)
        total += info.bytes;
    return total;
}

}  // namespace veal::persist
