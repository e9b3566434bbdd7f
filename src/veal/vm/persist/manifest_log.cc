#include "veal/vm/persist/manifest_log.h"

#include <filesystem>
#include <limits>
#include <sstream>

#include "veal/support/fnv.h"
#include "veal/support/parse.h"

namespace veal::persist {

namespace {

constexpr const char* kManifestLogName = "MANIFEST.log";

std::uint32_t
lineCrc(const std::string& body)
{
    return static_cast<std::uint32_t>(fnvBytes(body.data(), body.size()) &
                                      0xffffffffu);
}

std::string
crcHex(std::uint32_t crc)
{
    std::ostringstream os;
    os << std::hex << crc;
    return os.str();
}

int
hexDigit(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

/** Strict signed parse via the shared u64 parser (no sign needed). */
std::optional<std::int64_t>
parseI64Field(const std::string& text)
{
    const auto parsed = parseU64Strict(text);
    if (!parsed.has_value() ||
        *parsed > static_cast<std::uint64_t>(
                      std::numeric_limits<std::int64_t>::max()))
        return std::nullopt;
    return static_cast<std::int64_t>(*parsed);
}

/** Parse one record body (after the crc); nullopt when malformed. */
std::optional<ManifestRecord>
parseBody(const std::string& body)
{
    std::istringstream tokens(body);
    std::string word;
    if (!(tokens >> word))
        return std::nullopt;
    ManifestRecord record;
    if (word == "add") {
        record.kind = ManifestRecord::Kind::kAdd;
        std::string segment, offset, length, epoch, lru, key;
        if (!(tokens >> segment >> offset >> length >> epoch >> lru >>
              key))
            return std::nullopt;
        std::string extra;
        if (tokens >> extra)
            return std::nullopt;
        const auto seg = parseI64Field(segment);
        const auto off = parseI64Field(offset);
        const auto len = parseI64Field(length);
        const auto ep = parseI64Field(epoch);
        if (!seg || !off || !len || !ep ||
            (lru != "probation" && lru != "protected"))
            return std::nullopt;
        const auto unescaped = unescapeManifestKey(key);
        if (!unescaped.has_value() || unescaped->empty())
            return std::nullopt;
        record.ref.segment = *seg;
        record.ref.offset = *off;
        record.ref.length = *len;
        record.epoch = *ep;
        record.lru_segment = lru == "protected" ? 1 : 0;
        record.key = *unescaped;
        return record;
    }
    if (word == "end") {
        record.kind = ManifestRecord::Kind::kEnd;
        std::string segment, bytes, extra;
        if (!(tokens >> segment >> bytes) || (tokens >> extra))
            return std::nullopt;
        const auto seg = parseI64Field(segment);
        const auto end = parseI64Field(bytes);
        if (!seg || !end)
            return std::nullopt;
        record.ref.segment = *seg;
        record.ref.offset = *end;
        return record;
    }
    if (word == "evict" || word == "invalidate") {
        record.kind = word == "evict"
                          ? ManifestRecord::Kind::kEvict
                          : ManifestRecord::Kind::kInvalidate;
        std::string key;
        if (!(tokens >> key))
            return std::nullopt;
        std::string extra;
        if (tokens >> extra)
            return std::nullopt;
        const auto unescaped = unescapeManifestKey(key);
        if (!unescaped.has_value() || unescaped->empty())
            return std::nullopt;
        record.key = *unescaped;
        return record;
    }
    return std::nullopt;
}

std::string
formatBody(const ManifestRecord& record)
{
    std::ostringstream os;
    switch (record.kind) {
        case ManifestRecord::Kind::kAdd:
            os << "add " << record.ref.segment << " " << record.ref.offset
               << " " << record.ref.length << " " << record.epoch << " "
               << (record.lru_segment == 1 ? "protected" : "probation")
               << " " << escapeManifestKey(record.key);
            break;
        case ManifestRecord::Kind::kEvict:
            os << "evict " << escapeManifestKey(record.key);
            break;
        case ManifestRecord::Kind::kInvalidate:
            os << "invalidate " << escapeManifestKey(record.key);
            break;
        case ManifestRecord::Kind::kEnd:
            os << "end " << record.ref.segment << " " << record.ref.offset;
            break;
    }
    return os.str();
}

}  // namespace

std::string
escapeManifestKey(const std::string& key)
{
    static const char* kHex = "0123456789abcdef";
    std::string out;
    out.reserve(key.size());
    for (const char c : key) {
        const auto byte = static_cast<std::uint8_t>(c);
        // Space and below, DEL and above, and '%' itself all escape:
        // record bodies are whitespace-tokenized lines.
        if (byte <= 0x20 || byte >= 0x7f || c == '%') {
            out.push_back('%');
            out.push_back(kHex[byte >> 4]);
            out.push_back(kHex[byte & 0xf]);
        } else {
            out.push_back(c);
        }
    }
    return out;
}

std::optional<std::string>
unescapeManifestKey(const std::string& text)
{
    std::string out;
    out.reserve(text.size());
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] != '%') {
            out.push_back(text[i]);
            continue;
        }
        if (i + 2 >= text.size())
            return std::nullopt;
        const int hi = hexDigit(text[i + 1]);
        const int lo = hexDigit(text[i + 2]);
        if (hi < 0 || lo < 0)
            return std::nullopt;
        out.push_back(static_cast<char>((hi << 4) | lo));
        i += 2;
    }
    return out;
}

ManifestLog::ManifestLog(std::string directory, std::shared_ptr<Vfs> vfs)
    : directory_(std::move(directory)), vfs_(std::move(vfs))
{
}

std::string
ManifestLog::path() const
{
    return (std::filesystem::path(directory_) / kManifestLogName)
        .string();
}

ManifestReplay
ManifestLog::replay()
{
    ManifestReplay replay;
    if (!vfs_->exists(path()))
        return replay;
    replay.present = true;
    const auto bytes = vfs_->readFile(path());
    if (!bytes.has_value())
        return replay;
    const std::string text(bytes->begin(), bytes->end());

    std::size_t pos = 0;
    // Header line first; anything else means "not our format" and the
    // store falls back to a segment scan.
    {
        const std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            return replay;  // Torn before the header completed.
        if (text.substr(pos, eol - pos) != kManifestLogHeader)
            return replay;
        replay.header_ok = true;
        pos = eol + 1;
        replay.valid_bytes = static_cast<std::int64_t>(pos);
    }

    // valid_bytes tracks the byte right after the LAST good line: the
    // truncation target when everything beyond it is damaged.  With a
    // single appender, a crash can only tear the final line, so bad
    // bytes after the last good line are the torn tail; bad lines
    // *before* a later good line can only be bit flips (counted, kept
    // in place -- truncating would lose the good records behind them;
    // the store schedules a snapshot rewrite instead).
    std::int64_t bad_before_last_good = 0;
    std::int64_t bad_pending = 0;  ///< Bad lines since the last good one.
    while (pos < text.size()) {
        const std::size_t eol = text.find('\n', pos);
        const bool unterminated = eol == std::string::npos;
        const std::string line =
            unterminated ? text.substr(pos)
                         : text.substr(pos, eol - pos);
        bool line_ok = false;
        const std::size_t space = line.find(' ');
        if (!unterminated && space != std::string::npos && space > 0) {
            const std::string crc_text = line.substr(0, space);
            const std::string body = line.substr(space + 1);
            bool crc_valid = !crc_text.empty() && crc_text.size() <= 8;
            std::uint32_t crc = 0;
            for (const char c : crc_text) {
                const int digit = hexDigit(c);
                if (digit < 0) {
                    crc_valid = false;
                    break;
                }
                crc = (crc << 4) | static_cast<std::uint32_t>(digit);
            }
            if (crc_valid && crc == lineCrc(body)) {
                auto record = parseBody(body);
                if (record.has_value()) {
                    replay.records.push_back(std::move(*record));
                    line_ok = true;
                }
            }
        }
        if (line_ok) {
            replay.valid_bytes = static_cast<std::int64_t>(eol + 1);
            bad_before_last_good += bad_pending;
            bad_pending = 0;
        } else {
            ++bad_pending;
        }
        if (unterminated)
            break;
        pos = eol + 1;
    }
    replay.corrupt_lines = bad_before_last_good;
    replay.torn_tail =
        replay.valid_bytes < static_cast<std::int64_t>(text.size());
    return replay;
}

bool
ManifestLog::appendLine(const std::string& body)
{
    const std::string line =
        crcHex(lineCrc(body)) + " " + body + "\n";
    std::vector<std::uint8_t> bytes(line.begin(), line.end());
    if (!vfs_->append(path(), bytes))
        return false;
    ++appends_since_rewrite_;
    return true;
}

bool
ManifestLog::appendAdd(const std::string& key, const RecordRef& ref,
                       std::int64_t epoch, int lru_segment)
{
    ManifestRecord record;
    record.kind = ManifestRecord::Kind::kAdd;
    record.key = key;
    record.ref = ref;
    record.epoch = epoch;
    record.lru_segment = lru_segment;
    return appendLine(formatBody(record));
}

bool
ManifestLog::appendEvict(const std::string& key)
{
    ManifestRecord record;
    record.kind = ManifestRecord::Kind::kEvict;
    record.key = key;
    return appendLine(formatBody(record));
}

bool
ManifestLog::appendInvalidate(const std::string& key)
{
    ManifestRecord record;
    record.kind = ManifestRecord::Kind::kInvalidate;
    record.key = key;
    return appendLine(formatBody(record));
}

bool
ManifestLog::rewrite(const std::vector<ManifestRecord>& records)
{
    std::ostringstream os;
    os << kManifestLogHeader << "\n";
    for (const auto& record : records) {
        const std::string body = formatBody(record);
        os << crcHex(lineCrc(body)) << " " << body << "\n";
    }
    const std::string text = os.str();
    const std::string temp = path() + ".tmp";
    std::vector<std::uint8_t> bytes(text.begin(), text.end());
    if (!vfs_->writeFile(temp, bytes))
        return false;
    if (!vfs_->renameFile(temp, path()))
        return false;
    appends_since_rewrite_ = 0;
    return true;
}

bool
ManifestLog::truncateTo(std::int64_t bytes)
{
    return vfs_->truncateFile(path(), bytes);
}

}  // namespace veal::persist
