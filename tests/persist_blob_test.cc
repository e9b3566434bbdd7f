#include "veal/vm/persist/blob.h"

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "veal/arch/cpu_config.h"
#include "veal/arch/la_config.h"
#include "veal/fleet/fleet.h"
#include "veal/ir/random_loop.h"
#include "veal/sim/cpu_sim.h"
#include "veal/sim/reference.h"
#include "veal/sim/tlb_model.h"
#include "veal/support/fnv.h"
#include "veal/vm/control_image.h"
#include "veal/vm/translator.h"

namespace veal::persist {
namespace {

/** FNV-1a of the encodings ProfilelessBlobsStayVersionOneAndTwo pins,
    as the encoder wrote them before blobs carried CPU profiles. */
constexpr std::uint64_t kPinnedV1Digest = 0xf13c83f5a8ab6e18ull;
constexpr std::uint64_t kPinnedV2Digest = 0x5d52db7e31706165ull;

struct Sample {
    Loop loop;
    TranslationResult translation;
};

Sample
translateSample(std::uint64_t seed)
{
    Sample sample{makeRandomLoop(RandomLoopParams{}, seed), {}};
    sample.translation = translateLoop(sample.loop, LaConfig::proposed(),
                                       TranslationMode::kFullyDynamic);
    return sample;
}

PersistedImage
makeSample(std::uint64_t seed)
{
    // Walk seeds until one translates; random loops translate often
    // enough that this terminates immediately in practice.
    for (std::uint64_t s = seed;; ++s) {
        const Sample sample = translateSample(s);
        if (!sample.translation.ok)
            continue;
        PersistedImage image;
        image.key = "sample-" + std::to_string(s);
        image.summary = summarize(sample.translation);
        image.image_words =
            ControlImage::encode(sample.loop, sample.translation).words();
        return image;
    }
}

TEST(PersistBlob, RoundTripsLosslessly)
{
    const PersistedImage original = makeSample(1);
    const std::vector<std::uint8_t> bytes = encodeBlob(original);
    const auto decoded = decodeBlob(bytes.data(), bytes.size());
    ASSERT_TRUE(std::holds_alternative<PersistedImage>(decoded))
        << toString(std::get<BlobError>(decoded));

    const PersistedImage& image = std::get<PersistedImage>(decoded);
    EXPECT_EQ(image.key, original.key);
    EXPECT_EQ(image.summary.ok, original.summary.ok);
    EXPECT_EQ(image.summary.reject, original.summary.reject);
    EXPECT_EQ(image.summary.mode, original.summary.mode);
    EXPECT_EQ(image.summary.ii, original.summary.ii);
    EXPECT_EQ(image.summary.stage_count, original.summary.stage_count);
    EXPECT_EQ(image.summary.length, original.summary.length);
    EXPECT_EQ(image.summary.fu_units, original.summary.fu_units);
    EXPECT_EQ(image.summary.live_in_regs, original.summary.live_in_regs);
    EXPECT_EQ(image.summary.live_outs, original.summary.live_outs);
    EXPECT_EQ(image.summary.load_strides, original.summary.load_strides);
    EXPECT_EQ(image.summary.store_strides, original.summary.store_strides);
    EXPECT_EQ(image.image_words, original.image_words);
}

TEST(PersistBlob, NegativeResultRoundTrips)
{
    // Rejections persist too (no image words), so a key that cannot
    // translate stays settled across restarts.
    PersistedImage original;
    original.key = "rejected/key with spaces";
    original.summary.ok = false;
    original.summary.reject = TranslationReject::kScheduleFailed;
    const std::vector<std::uint8_t> bytes = encodeBlob(original);
    const auto decoded = decodeBlob(bytes.data(), bytes.size());
    ASSERT_TRUE(std::holds_alternative<PersistedImage>(decoded));
    const PersistedImage& image = std::get<PersistedImage>(decoded);
    EXPECT_FALSE(image.summary.ok);
    EXPECT_EQ(image.summary.reject, TranslationReject::kScheduleFailed);
    EXPECT_TRUE(image.image_words.empty());
}

TEST(PersistBlob, SummaryCostMatchesAcceleratorCostBitExactly)
{
    // The equality the whole persistence design leans on: pricing from
    // the persisted summary reproduces the frozen reference cost model
    // exactly, for many random translated loops, at several iteration
    // counts, first and warm, on two bus latencies.  servePrice(), the
    // one LA price, must add exactly the TLB charge of the analysis
    // streams, with the model off, at its default and at one entry.
    // Any divergence would make every service price drift from the
    // paper's model.
    const LaConfig configs[] = {LaConfig::proposed(),
                                fleet::tinyIiConfig()};
    ASSERT_NE(configs[0].bus_latency, configs[1].bus_latency);
    TlbConfig one_entry = TlbConfig::proposed();
    one_entry.entries = 1;
    const TlbConfig tlbs[] = {TlbConfig::off(), TlbConfig::proposed(),
                              one_entry};
    int checked = 0;
    std::int64_t warm_walks = 0;
    for (std::uint64_t seed = 1; checked < 40 && seed < 400; ++seed) {
        const TranslationResult tr = translateSample(seed).translation;
        if (!tr.ok)
            continue;
        ++checked;
        const TranslationSummary summary = summarize(tr);
        std::vector<std::int64_t> load_strides;
        for (const auto& stream : tr.analysis.load_streams)
            load_strides.push_back(stream.stride);
        std::vector<std::int64_t> store_strides;
        for (const auto& stream : tr.analysis.store_streams)
            store_strides.push_back(stream.stride);
        for (const LaConfig& la : configs) {
            for (const std::int64_t iterations : {1, 2, 12, 100, 4096}) {
                for (const bool first : {true, false}) {
                    const LaInvocationCost expect =
                        reference::acceleratorLoopCost(
                            tr.schedule, *tr.graph, tr.analysis,
                            tr.registers, la, iterations, first);
                    const LaInvocationCost got =
                        summaryLoopCost(summary, la, iterations, first);
                    ASSERT_EQ(got.setup_cycles, expect.setup_cycles)
                        << la.name << " seed " << seed << " iters "
                        << iterations;
                    ASSERT_EQ(got.pipeline_cycles, expect.pipeline_cycles)
                        << la.name << " seed " << seed << " iters "
                        << iterations;
                    ASSERT_EQ(got.drain_cycles, expect.drain_cycles)
                        << la.name << " seed " << seed << " iters "
                        << iterations;
                    ASSERT_EQ(got.total(), expect.total());
                    for (const TlbConfig& tlb : tlbs) {
                        const TlbCharge charge =
                            streamTlbCharge(load_strides, store_strides,
                                            tlb, iterations, first);
                        const ServePrice price = servePrice(
                            summary, la, tlb, iterations, first);
                        ASSERT_EQ(price.cycles,
                                  expect.total() + charge.cycles)
                            << la.name << " seed " << seed << " iters "
                            << iterations << " tlb " << tlb.enabled
                            << "/" << tlb.entries << " first " << first;
                        ASSERT_EQ(price.tlb.pages, charge.pages);
                        ASSERT_EQ(price.tlb.walks, charge.walks);
                        ASSERT_EQ(price.tlb.cycles, charge.cycles);
                        if (!tlb.enabled)
                            ASSERT_EQ(price.tlb.cycles, 0);
                        else if (!first)
                            warm_walks += price.tlb.walks;
                    }
                }
            }
        }
    }
    ASSERT_GE(checked, 20) << "random pool translated too rarely";
    EXPECT_GT(warm_walks, 0) << "no warm invocation re-walked a page";
}

TEST(PersistBlob, EverySingleByteFlipIsDetected)
{
    const PersistedImage original = makeSample(2);
    const std::vector<std::uint8_t> bytes = encodeBlob(original);
    // Exhaustive over bytes, one bit each: nothing may decode to a
    // PersistedImage with different contents; a flip either fails
    // (checksum/magic/version/truncation taxonomy) or -- only for the
    // checksum field itself -- could never validate the payload.
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        std::vector<std::uint8_t> corrupt = bytes;
        corrupt[i] ^= 0x10;
        const auto decoded = decodeBlob(corrupt.data(), corrupt.size());
        EXPECT_TRUE(std::holds_alternative<BlobError>(decoded))
            << "byte " << i << " flipped undetected";
    }
}

TEST(PersistBlob, ErrorTaxonomyIsPrecise)
{
    const PersistedImage original = makeSample(3);
    std::vector<std::uint8_t> bytes = encodeBlob(original);

    // Truncation, at every prefix length.
    for (std::size_t len = 0; len < bytes.size(); len += 7) {
        const auto decoded = decodeBlob(bytes.data(), len);
        ASSERT_TRUE(std::holds_alternative<BlobError>(decoded));
        const BlobError error = std::get<BlobError>(decoded);
        EXPECT_TRUE(error == BlobError::kTruncated ||
                    error == BlobError::kBadMagic ||
                    error == BlobError::kChecksum)
            << "prefix " << len << ": " << toString(error);
    }

    // Wrong magic.
    {
        std::vector<std::uint8_t> wrong = bytes;
        wrong[0] ^= 0xff;
        const auto decoded = decodeBlob(wrong.data(), wrong.size());
        ASSERT_TRUE(std::holds_alternative<BlobError>(decoded));
        EXPECT_EQ(std::get<BlobError>(decoded), BlobError::kBadMagic);
    }

    // Future version: must be kVersionSkew, not a checksum complaint,
    // so operators can tell "old binary" from "corrupt disk".
    {
        std::vector<std::uint8_t> future = bytes;
        future[4] = static_cast<std::uint8_t>(kBlobVersionProfile + 1);
        const auto decoded = decodeBlob(future.data(), future.size());
        ASSERT_TRUE(std::holds_alternative<BlobError>(decoded));
        EXPECT_EQ(std::get<BlobError>(decoded), BlobError::kVersionSkew);
    }

    // A v1 payload relabeled with the fleet version is missing its
    // fleet section: truncation, not skew (v2 is a known version).
    {
        std::vector<std::uint8_t> relabeled = bytes;
        relabeled[4] = static_cast<std::uint8_t>(kBlobVersionFleet);
        const auto decoded = decodeBlob(relabeled.data(), relabeled.size());
        ASSERT_TRUE(std::holds_alternative<BlobError>(decoded));
        EXPECT_EQ(std::get<BlobError>(decoded), BlobError::kTruncated);
    }

    // Payload flip: checksum.
    {
        std::vector<std::uint8_t> flipped = bytes;
        flipped[bytes.size() - 1] ^= 0x01;
        const auto decoded = decodeBlob(flipped.data(), flipped.size());
        ASSERT_TRUE(std::holds_alternative<BlobError>(decoded));
        EXPECT_EQ(std::get<BlobError>(decoded), BlobError::kChecksum);
    }

    // Trailing garbage after a valid payload.
    {
        std::vector<std::uint8_t> longer = bytes;
        longer.push_back(0);
        const auto decoded = decodeBlob(longer.data(), longer.size());
        ASSERT_TRUE(std::holds_alternative<BlobError>(decoded));
    }

    EXPECT_STREQ(toString(BlobError::kVersionSkew), "version-skew");
}

FleetScoreSet
sampleScores()
{
    FleetScoreSet fleet;
    fleet.signature = 0x1234abcdull;
    fleet.scoring_iterations = 12;
    fleet.cpu_cycles = 777;
    FleetBackendScore ok;
    ok.ok = true;
    ok.ii = 2;
    ok.stage_count = 3;
    ok.first_cycles = 90;
    ok.warm_cycles = 40;
    FleetBackendScore rejected;
    rejected.reject = TranslationReject::kScheduleFailed;
    fleet.backends = {ok, rejected};
    return fleet;
}

std::variant<PersistedImage, BlobError>
roundTrip(const PersistedImage& image, std::uint32_t version)
{
    const std::vector<std::uint8_t> bytes = encodeBlob(image);
    EXPECT_EQ(bytes[4], version);
    return decodeBlob(bytes.data(), bytes.size());
}

TEST(PersistBlob, ProfileRoundTripsAsVersionThree)
{
    // Alone and behind fleet scores: every total, the tail and the
    // signature come back, and so does everything else.
    PersistedImage original = makeSample(5);
    std::int64_t totals[kCpuSimIterations];
    for (int k = 0; k < kCpuSimIterations; ++k)
        totals[k] = 3 + 130 * k;  // Rises of two LEB128 bytes.
    original.cpu_profile = CpuProfile(totals, 4160);
    original.cpu_signature = cpuSignature(CpuConfig::arm11());
    for (const bool fleet : {false, true}) {
        if (fleet) {
            original.summary.fleet_backend = 0;
            original.summary.fleet = sampleScores();
        }
        const auto decoded = roundTrip(original, kBlobVersionProfile);
        ASSERT_TRUE(std::holds_alternative<PersistedImage>(decoded))
            << toString(std::get<BlobError>(decoded));
        const PersistedImage& image = std::get<PersistedImage>(decoded);
        EXPECT_EQ(image.key, original.key);
        EXPECT_EQ(image.summary.ii, original.summary.ii);
        EXPECT_EQ(image.summary.load_strides, original.summary.load_strides);
        EXPECT_EQ(image.image_words, original.image_words);
        EXPECT_EQ(image.cpu_signature, original.cpu_signature);
        EXPECT_EQ(image.cpu_profile.totals(),
                  original.cpu_profile.totals());
        EXPECT_EQ(image.cpu_profile.tail(), original.cpu_profile.tail());
        EXPECT_EQ(image.summary.fleet.has_value(), fleet);
        if (fleet) {
            EXPECT_EQ(image.summary.fleet_backend, 0);
            EXPECT_EQ(image.summary.fleet->signature,
                      original.summary.fleet->signature);
            ASSERT_EQ(image.summary.fleet->backends.size(), 2u);
            EXPECT_EQ(image.summary.fleet->backends[0].warm_cycles, 40);
        }
    }
}

TEST(PersistBlob, ProfilelessBlobsStayVersionOneAndTwo)
{
    // No profile, no section: a blob encodes as it did before profiles
    // existed (the v1 bytes are pinned by digest) and decodes with an
    // empty profile.
    PersistedImage original;
    original.key = "pinned";
    original.summary.ok = false;
    original.summary.reject = TranslationReject::kScheduleFailed;
    EXPECT_EQ(fnvBytes(encodeBlob(original).data(),
                       encodeBlob(original).size()),
              kPinnedV1Digest);
    for (const bool fleet : {false, true}) {
        if (fleet) {
            original.summary.fleet_backend = -1;
            original.summary.fleet = sampleScores();
            EXPECT_EQ(fnvBytes(encodeBlob(original).data(),
                               encodeBlob(original).size()),
                      kPinnedV2Digest);
        }
        const auto decoded =
            roundTrip(original, fleet ? kBlobVersionFleet : kBlobVersion);
        ASSERT_TRUE(std::holds_alternative<PersistedImage>(decoded));
        const PersistedImage& image = std::get<PersistedImage>(decoded);
        EXPECT_TRUE(image.cpu_profile.empty());
        EXPECT_EQ(image.cpu_signature, 0u);
        EXPECT_EQ(image.summary.fleet.has_value(), fleet);
    }
}

/** Unsigned LEB128, or a five-byte run that never ends when @p value
    is UINT64_MAX. */
void
appendLeb(std::vector<std::uint8_t>& out, std::uint64_t value)
{
    if (value == UINT64_MAX) {
        out.insert(out.end(), 5, 0xff);
        out.push_back(0x01);
        return;
    }
    while (value >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(value | 0x80));
        value >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(value));
}

/**
 * A v1 blob relabeled as version 3 with a hand-built profile section
 * (@p flag, signature, the 96 @p rises, @p tail, then @p trailing), and
 * its checksum recomputed, so only the section can be at fault.
 */
std::vector<std::uint8_t>
withSection(std::vector<std::uint8_t> blob, std::uint8_t flag,
            const std::vector<std::uint64_t>& rises, std::uint64_t tail,
            const std::vector<std::uint8_t>& trailing = {})
{
    blob[4] = static_cast<std::uint8_t>(kBlobVersionProfile);
    blob.push_back(flag);
    for (int byte = 0; byte < 8; ++byte)
        blob.push_back(0x5a);
    for (const std::uint64_t rise : rises)
        appendLeb(blob, rise);
    appendLeb(blob, tail);
    blob.insert(blob.end(), trailing.begin(), trailing.end());
    const std::uint64_t checksum = fnvBytes(blob.data() + 16, blob.size() - 16);
    for (int byte = 0; byte < 8; ++byte)
        blob[8 + byte] = static_cast<std::uint8_t>(checksum >> (byte * 8));
    return blob;
}

TEST(PersistBlob, InconsistentProfileSectionsAreMalformed)
{
    PersistedImage base = makeSample(6);
    const std::vector<std::uint8_t> v1 = encodeBlob(base);
    ASSERT_EQ(v1[4], kBlobVersion);
    const auto decode = [](const std::vector<std::uint8_t>& bytes) {
        return decodeBlob(bytes.data(), bytes.size());
    };
    const auto error = [&](const std::vector<std::uint8_t>& bytes) {
        const auto decoded = decode(bytes);
        return std::holds_alternative<BlobError>(decoded)
                   ? toString(std::get<BlobError>(decoded))
                   : "decoded";
    };
    std::vector<std::uint64_t> rises(kCpuSimIterations, 2);
    rises[0] = 9;

    // The hand-built section itself is consistent.
    const auto good = decode(withSection(v1, 0, rises, 64));
    ASSERT_TRUE(std::holds_alternative<PersistedImage>(good));
    const CpuProfile& profile = std::get<PersistedImage>(good).cpu_profile;
    EXPECT_EQ(profile.totalAt(1), 9);
    EXPECT_EQ(profile.totalAt(96), 9 + 2 * 95);
    EXPECT_EQ(profile.totalAt(97), 9 + 2 * 95 + 2);

    std::vector<std::uint64_t> zero_first = rises;
    zero_first[0] = 0;
    EXPECT_STREQ(error(withSection(v1, 0, zero_first, 64)), "malformed")
        << "a first total below 1";
    std::vector<std::uint64_t> past_32_bits = rises;
    past_32_bits[0] = 0x7fffffff;
    EXPECT_STREQ(error(withSection(v1, 0, past_32_bits, 64)), "malformed")
        << "a later total above INT32_MAX";
    std::vector<std::uint64_t> endless = rises;
    endless[40] = UINT64_MAX;
    EXPECT_STREQ(error(withSection(v1, 0, endless, 64)), "malformed")
        << "a rise that runs past five bytes";
    EXPECT_STREQ(error(withSection(v1, 0, rises, 0x80000000ull)),
                 "malformed")
        << "a tail above INT32_MAX";
    EXPECT_STREQ(error(withSection(v1, 0, rises, 64, {0})), "malformed")
        << "trailing bytes";
    EXPECT_STREQ(error(withSection(v1, 2, rises, 64)), "malformed")
        << "a fleet flag that is neither 0 nor 1";
    EXPECT_STREQ(error(withSection(v1, 1, rises, 64)), "truncated")
        << "a fleet flag with no fleet section behind it";
    std::vector<std::uint8_t> short_section = withSection(v1, 0, rises, 64);
    short_section.pop_back();
    const std::uint64_t checksum = fnvBytes(short_section.data() + 16,
                                            short_section.size() - 16);
    for (int byte = 0; byte < 8; ++byte)
        short_section[8 + byte] =
            static_cast<std::uint8_t>(checksum >> (byte * 8));
    EXPECT_STREQ(error(short_section), "truncated");
}

TEST(PersistBlob, DecodedWordsRebuildAChecksummedImage)
{
    // The image words must round-trip into a ControlImage whose
    // integrity checksum matches the original, or dispatch-time
    // verification would strike every persisted image.
    for (std::uint64_t seed = 4; seed < 10; ++seed) {
        const Sample sample = translateSample(seed);
        const TranslationResult& tr = sample.translation;
        if (!tr.ok)
            continue;
        const ControlImage original =
            ControlImage::encode(sample.loop, tr);
        PersistedImage persisted;
        persisted.key = "img";
        persisted.summary = summarize(tr);
        persisted.image_words = original.words();
        const std::vector<std::uint8_t> bytes = encodeBlob(persisted);
        const auto decoded = decodeBlob(bytes.data(), bytes.size());
        ASSERT_TRUE(std::holds_alternative<PersistedImage>(decoded));
        const ControlImage rebuilt = ControlImage::fromWords(
            std::get<PersistedImage>(decoded).image_words);
        EXPECT_EQ(rebuilt.checksum(), original.checksum());
    }
}

}  // namespace
}  // namespace veal::persist
