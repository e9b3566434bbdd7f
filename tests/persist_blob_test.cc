#include "veal/vm/persist/blob.h"

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "veal/arch/la_config.h"
#include "veal/fleet/fleet.h"
#include "veal/ir/random_loop.h"
#include "veal/sim/reference.h"
#include "veal/vm/control_image.h"
#include "veal/vm/translator.h"

namespace veal::persist {
namespace {

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
    // counts, first and warm, on two bus latencies.  Any divergence
    // would make every service price drift from the paper's model.
    const LaConfig configs[] = {LaConfig::proposed(),
                                fleet::tinyIiConfig()};
    ASSERT_NE(configs[0].bus_latency, configs[1].bus_latency);
    int checked = 0;
    for (std::uint64_t seed = 1; checked < 40 && seed < 400; ++seed) {
        const TranslationResult tr = translateSample(seed).translation;
        if (!tr.ok)
            continue;
        ++checked;
        const TranslationSummary summary = summarize(tr);
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
                }
            }
        }
    }
    ASSERT_GE(checked, 20) << "random pool translated too rarely";
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
        future[4] = static_cast<std::uint8_t>(kBlobVersionFleet + 1);
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
