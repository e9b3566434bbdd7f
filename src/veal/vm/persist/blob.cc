#include "veal/vm/persist/blob.h"

#include <limits>

#include "veal/support/assert.h"
#include "veal/support/fnv.h"

namespace veal::persist {

namespace {

void
appendU32(std::vector<std::uint8_t>& out, std::uint32_t value)
{
    for (int byte = 0; byte < 4; ++byte)
        out.push_back(static_cast<std::uint8_t>(value >> (byte * 8)));
}

void
appendU64(std::vector<std::uint8_t>& out, std::uint64_t value)
{
    for (int byte = 0; byte < 8; ++byte)
        out.push_back(static_cast<std::uint8_t>(value >> (byte * 8)));
}

void
appendI64(std::vector<std::uint8_t>& out, std::int64_t value)
{
    appendU64(out, static_cast<std::uint64_t>(value));
}

/** Unsigned LEB128: seven bits a byte, least significant first. */
void
appendLeb128(std::vector<std::uint8_t>& out, std::uint32_t value)
{
    while (value >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(value | 0x80));
        value >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(value));
}

/** Bounds-checked little-endian reader; ok() goes false, never UB. */
class Reader {
  public:
    Reader(const std::uint8_t* data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    bool
    ok() const
    {
        return ok_;
    }

    std::size_t
    remaining() const
    {
        return size_ - cursor_;
    }

    std::uint32_t
    u32()
    {
        if (!take(4))
            return 0;
        std::uint32_t value = 0;
        for (int byte = 0; byte < 4; ++byte) {
            value |= static_cast<std::uint32_t>(data_[cursor_ + byte])
                     << (byte * 8);
        }
        cursor_ += 4;
        return value;
    }

    std::uint64_t
    u64()
    {
        if (!take(8))
            return 0;
        std::uint64_t value = 0;
        for (int byte = 0; byte < 8; ++byte) {
            value |= static_cast<std::uint64_t>(data_[cursor_ + byte])
                     << (byte * 8);
        }
        cursor_ += 8;
        return value;
    }

    std::int64_t
    i64()
    {
        return static_cast<std::int64_t>(u64());
    }

    std::uint8_t
    u8()
    {
        if (!take(1))
            return 0;
        return data_[cursor_++];
    }

    /** An unsigned LEB128 of at most five bytes; one whose fifth byte
        continues reads as UINT64_MAX, past any 32-bit field. */
    std::uint64_t
    leb128()
    {
        std::uint64_t value = 0;
        for (int shift = 0; shift < 35; shift += 7) {
            const std::uint8_t byte = u8();
            value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
            if ((byte & 0x80) == 0)
                return value;
        }
        return std::numeric_limits<std::uint64_t>::max();
    }

    std::string
    bytes(std::size_t count)
    {
        if (!take(count))
            return {};
        std::string value(reinterpret_cast<const char*>(data_ + cursor_),
                          count);
        cursor_ += count;
        return value;
    }

  private:
    bool
    take(std::size_t count)
    {
        if (!ok_ || size_ - cursor_ < count) {
            ok_ = false;
            return false;
        }
        return true;
    }

    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t cursor_ = 0;
    bool ok_ = true;
};

/** Enum range guards: a checksummed-but-hostile blob stays typed. */
bool
validReject(std::int32_t value)
{
    return value >= static_cast<std::int32_t>(TranslationReject::kNone) &&
           value <=
               static_cast<std::int32_t>(TranslationReject::kBudgetExhausted);
}

bool
validMode(std::int32_t value)
{
    return value >= static_cast<std::int32_t>(TranslationMode::kStatic) &&
           value <= static_cast<std::int32_t>(
                        TranslationMode::kHybridStaticCcaPriority);
}

}  // namespace

const char*
toString(BlobError error)
{
    switch (error) {
      case BlobError::kTruncated: return "truncated";
      case BlobError::kBadMagic: return "bad-magic";
      case BlobError::kVersionSkew: return "version-skew";
      case BlobError::kChecksum: return "checksum";
      case BlobError::kMalformed: return "malformed";
    }
    return "unknown";
}

std::uint64_t
cpuSignature(const CpuConfig& cpu)
{
    std::uint64_t signature = kFnvOffsetBasis;
    for (const int field :
         {cpu.issue_width, cpu.branch_penalty, cpu.load_latency})
        signature = fnvFold64(signature, static_cast<std::uint64_t>(field));
    for (int op = 0; op < kNumOpcodes; ++op) {
        signature = fnvFold64(
            signature, static_cast<std::uint64_t>(cpu.latencies.latency(
                           static_cast<Opcode>(op))));
    }
    return signature;
}

TranslationSummary
summarize(const TranslationResult& translation)
{
    TranslationSummary summary;
    summary.ok = translation.ok;
    summary.reject = translation.reject;
    summary.mode = translation.mode;
    if (!translation.ok)
        return summary;

    VEAL_ASSERT(translation.graph != nullptr,
                "ok translation without a graph");
    const LaCostScalars scalars =
        laCostScalars(translation.schedule, *translation.graph,
                      translation.analysis, translation.registers);
    summary.ii = static_cast<std::int32_t>(scalars.ii);
    summary.stage_count = translation.schedule.stage_count;
    summary.length = static_cast<std::int32_t>(scalars.length);
    summary.fu_units = static_cast<std::int32_t>(scalars.fu_units);
    summary.live_in_regs = static_cast<std::int32_t>(scalars.live_in_regs);
    summary.live_outs = static_cast<std::int32_t>(scalars.live_outs);
    summary.load_strides.reserve(translation.analysis.load_streams.size());
    for (const auto& stream : translation.analysis.load_streams)
        summary.load_strides.push_back(stream.stride);
    summary.store_strides.reserve(
        translation.analysis.store_streams.size());
    for (const auto& stream : translation.analysis.store_streams)
        summary.store_strides.push_back(stream.stride);
    return summary;
}

LaInvocationCost
summaryLoopCost(const TranslationSummary& summary, const LaConfig& config,
                std::int64_t iterations, bool first_invocation)
{
    VEAL_ASSERT(summary.ok, "pricing a rejected summary");
    LaCostScalars scalars;
    scalars.fu_units = summary.fu_units;
    scalars.streams = static_cast<std::int64_t>(
        summary.load_strides.size() + summary.store_strides.size());
    scalars.live_in_regs = summary.live_in_regs;
    scalars.live_outs = summary.live_outs;
    scalars.ii = summary.ii;
    scalars.length = summary.length;
    return laInvocationCost(scalars, config, iterations, first_invocation);
}

ServePrice
servePrice(const TranslationSummary& summary, const LaConfig& la,
           const TlbConfig& tlb, std::int64_t iterations,
           bool first_invocation)
{
    ServePrice price;
    price.tlb = streamTlbCharge(summary.load_strides, summary.store_strides,
                                tlb, iterations, first_invocation);
    price.cycles =
        summaryLoopCost(summary, la, iterations, first_invocation).total() +
        price.tlb.cycles;
    return price;
}

std::vector<std::uint8_t>
encodeBlob(const PersistedImage& image)
{
    // Payload first; the header (magic, version, checksum-of-payload)
    // goes in front so corruption anywhere in the payload is caught by
    // one FNV pass and header damage by the magic/version fields.
    std::vector<std::uint8_t> payload;
    const TranslationSummary& s = image.summary;
    appendU32(payload, static_cast<std::uint32_t>(image.key.size()));
    for (const char c : image.key)
        payload.push_back(static_cast<std::uint8_t>(c));
    appendU32(payload, s.ok ? 1u : 0u);
    appendU32(payload, static_cast<std::uint32_t>(s.reject));
    appendU32(payload, static_cast<std::uint32_t>(s.mode));
    appendU32(payload, static_cast<std::uint32_t>(s.ii));
    appendU32(payload, static_cast<std::uint32_t>(s.stage_count));
    appendU32(payload, static_cast<std::uint32_t>(s.length));
    appendU32(payload, static_cast<std::uint32_t>(s.fu_units));
    appendU32(payload, static_cast<std::uint32_t>(s.live_in_regs));
    appendU32(payload, static_cast<std::uint32_t>(s.live_outs));
    appendU32(payload, static_cast<std::uint32_t>(s.load_strides.size()));
    for (const std::int64_t stride : s.load_strides)
        appendI64(payload, stride);
    appendU32(payload, static_cast<std::uint32_t>(s.store_strides.size()));
    for (const std::int64_t stride : s.store_strides)
        appendI64(payload, stride);
    appendU32(payload,
              static_cast<std::uint32_t>(image.image_words.size()));
    for (const std::uint32_t word : image.image_words)
        appendU32(payload, word);

    // Optional sections follow the v1 payload, so every v1 field keeps
    // its offset: the fleet scores (version 2), then the CPU profile
    // (version 3, which first says whether fleet scores follow).
    const bool profiled = !image.cpu_profile.empty();
    if (profiled)
        payload.push_back(s.fleet.has_value() ? 1 : 0);
    if (s.fleet.has_value()) {
        const FleetScoreSet& fleet = *s.fleet;
        appendU32(payload, static_cast<std::uint32_t>(s.fleet_backend));
        appendU64(payload, fleet.signature);
        appendI64(payload, fleet.scoring_iterations);
        appendI64(payload, fleet.cpu_cycles);
        appendU32(payload,
                  static_cast<std::uint32_t>(fleet.backends.size()));
        for (const FleetBackendScore& score : fleet.backends) {
            appendU32(payload, score.ok ? 1u : 0u);
            appendU32(payload, static_cast<std::uint32_t>(score.reject));
            appendU32(payload, static_cast<std::uint32_t>(score.ii));
            appendU32(payload,
                      static_cast<std::uint32_t>(score.stage_count));
            appendI64(payload, score.first_cycles);
            appendI64(payload, score.warm_cycles);
        }
    }

    // The profile: the signature, the running totals as the first one
    // and then each one's rise over the last, and the tail.
    if (profiled) {
        appendU64(payload, image.cpu_signature);
        std::int32_t last = 0;
        for (const std::int32_t total : image.cpu_profile.totals()) {
            appendLeb128(payload, static_cast<std::uint32_t>(total - last));
            last = total;
        }
        appendLeb128(payload,
                     static_cast<std::uint32_t>(image.cpu_profile.tail()));
    }

    std::vector<std::uint8_t> blob;
    blob.reserve(payload.size() + 16);
    appendU32(blob, kBlobMagic);
    appendU32(blob, profiled               ? kBlobVersionProfile
                    : s.fleet.has_value() ? kBlobVersionFleet
                                          : kBlobVersion);
    appendU64(blob, fnvBytes(payload.data(), payload.size()));
    blob.insert(blob.end(), payload.begin(), payload.end());
    return blob;
}

std::variant<PersistedImage, BlobError>
decodeBlob(const std::uint8_t* data, std::size_t size)
{
    if (size < 16)
        return BlobError::kTruncated;
    Reader header(data, 16);
    if (header.u32() != kBlobMagic)
        return BlobError::kBadMagic;
    const std::uint32_t version = header.u32();
    if (version < kBlobVersion || version > kBlobVersionProfile)
        return BlobError::kVersionSkew;
    const std::uint64_t expected = header.u64();
    const std::uint8_t* payload = data + 16;
    const std::size_t payload_size = size - 16;
    if (fnvBytes(payload, payload_size) != expected)
        return BlobError::kChecksum;

    Reader in(payload, payload_size);
    PersistedImage image;
    const std::uint32_t key_size = in.u32();
    if (!in.ok() || key_size > in.remaining())
        return BlobError::kTruncated;
    image.key = in.bytes(key_size);
    TranslationSummary& s = image.summary;
    const std::uint32_t ok_flag = in.u32();
    const auto reject = static_cast<std::int32_t>(in.u32());
    const auto mode = static_cast<std::int32_t>(in.u32());
    s.ii = static_cast<std::int32_t>(in.u32());
    s.stage_count = static_cast<std::int32_t>(in.u32());
    s.length = static_cast<std::int32_t>(in.u32());
    s.fu_units = static_cast<std::int32_t>(in.u32());
    s.live_in_regs = static_cast<std::int32_t>(in.u32());
    s.live_outs = static_cast<std::int32_t>(in.u32());
    const std::uint32_t num_load = in.u32();
    if (!in.ok() || static_cast<std::size_t>(num_load) * 8 > in.remaining())
        return BlobError::kTruncated;
    s.load_strides.reserve(num_load);
    for (std::uint32_t i = 0; i < num_load; ++i)
        s.load_strides.push_back(in.i64());
    const std::uint32_t num_store = in.u32();
    if (!in.ok() ||
        static_cast<std::size_t>(num_store) * 8 > in.remaining())
        return BlobError::kTruncated;
    s.store_strides.reserve(num_store);
    for (std::uint32_t i = 0; i < num_store; ++i)
        s.store_strides.push_back(in.i64());
    const std::uint32_t num_words = in.u32();
    if (!in.ok() ||
        static_cast<std::size_t>(num_words) * 4 > in.remaining())
        return BlobError::kTruncated;
    image.image_words.reserve(num_words);
    for (std::uint32_t i = 0; i < num_words; ++i)
        image.image_words.push_back(in.u32());
    if (!in.ok())
        return BlobError::kTruncated;
    bool fleet_section = version == kBlobVersionFleet;
    if (version == kBlobVersionProfile) {
        const std::uint8_t flag = in.u8();
        if (!in.ok())
            return BlobError::kTruncated;
        if (flag > 1)
            return BlobError::kMalformed;
        fleet_section = flag == 1;
    }
    if (fleet_section) {
        s.fleet_backend = static_cast<std::int32_t>(in.u32());
        FleetScoreSet fleet;
        fleet.signature = in.u64();
        fleet.scoring_iterations = in.i64();
        fleet.cpu_cycles = in.i64();
        const std::uint32_t num_backends = in.u32();
        if (!in.ok() ||
            static_cast<std::size_t>(num_backends) * 32 > in.remaining())
            return BlobError::kTruncated;
        fleet.backends.reserve(num_backends);
        for (std::uint32_t i = 0; i < num_backends; ++i) {
            FleetBackendScore score;
            const std::uint32_t score_ok = in.u32();
            const auto score_reject = static_cast<std::int32_t>(in.u32());
            score.ii = static_cast<std::int32_t>(in.u32());
            score.stage_count = static_cast<std::int32_t>(in.u32());
            score.first_cycles = in.i64();
            score.warm_cycles = in.i64();
            if (!in.ok())
                return BlobError::kTruncated;
            if (score_ok > 1 || !validReject(score_reject))
                return BlobError::kMalformed;
            score.ok = score_ok == 1;
            score.reject = static_cast<TranslationReject>(score_reject);
            if (score.ok && (score.ii < 1 || score.stage_count < 1 ||
                             score.first_cycles < 0 ||
                             score.warm_cycles < 0))
                return BlobError::kMalformed;
            fleet.backends.push_back(score);
        }
        if (fleet.scoring_iterations < 1 || fleet.cpu_cycles < 0)
            return BlobError::kMalformed;
        if (s.fleet_backend < -1 ||
            s.fleet_backend >=
                static_cast<std::int32_t>(fleet.backends.size()))
            return BlobError::kMalformed;
        s.fleet = std::move(fleet);
    }
    if (version == kBlobVersionProfile) {
        // Totals rise by unsigned deltas, so they never fall; the first
        // is at least 1 and none, nor the tail, exceeds 32 bits (what a
        // simulated profile holds).
        constexpr std::uint64_t kMax =
            std::numeric_limits<std::int32_t>::max();
        image.cpu_signature = in.u64();
        std::int64_t totals[kCpuSimIterations];
        std::uint64_t total = 0;
        for (std::int64_t& cell : totals) {
            const std::uint64_t rise = in.leb128();
            if (rise > kMax - total)
                return in.ok() ? BlobError::kMalformed
                               : BlobError::kTruncated;
            total += rise;
            cell = static_cast<std::int64_t>(total);
        }
        const std::uint64_t tail = in.leb128();
        if (!in.ok())
            return BlobError::kTruncated;
        if (totals[0] < 1 || tail > kMax)
            return BlobError::kMalformed;
        image.cpu_profile =
            CpuProfile(totals, static_cast<std::int64_t>(tail));
    }
    if (!in.ok())
        return BlobError::kTruncated;
    if (in.remaining() != 0)
        return BlobError::kMalformed;  // Checksummed trailing garbage.

    if (ok_flag > 1 || !validReject(reject) || !validMode(mode))
        return BlobError::kMalformed;
    s.ok = ok_flag == 1;
    s.reject = static_cast<TranslationReject>(reject);
    s.mode = static_cast<TranslationMode>(mode);
    if (s.ok && image.image_words.empty())
        return BlobError::kMalformed;  // Successful entries carry code.
    if (!s.ok && !image.image_words.empty())
        return BlobError::kMalformed;
    if (s.ok && (s.ii < 1 || s.stage_count < 1 || s.length < 0 ||
                 s.fu_units < 0 || s.live_in_regs < 0 || s.live_outs < 0))
        return BlobError::kMalformed;
    return image;
}

}  // namespace veal::persist
