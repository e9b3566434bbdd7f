#include "veal/vm/persist/store.h"

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "veal/fault/faulty_vfs.h"
#include "veal/sim/cpu_sim.h"
#include "veal/support/fnv.h"
#include "veal/support/metrics/metrics.h"
#include "veal/vm/persist/manifest_log.h"

namespace veal::persist {
namespace {

namespace fs = std::filesystem;

/** A fresh scratch directory per test, removed on teardown. */
class PersistStoreTest : public ::testing::Test {
  protected:
    void
    SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("veal-store-test-" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()));
        fs::remove_all(dir_);
    }

    void
    TearDown() override
    {
        fs::remove_all(dir_);
    }

    std::string
    dir() const
    {
        return dir_.string();
    }

    fs::path dir_;
};

PersistedImage
makeImage(const std::string& key, std::uint32_t payload = 7)
{
    PersistedImage image;
    image.key = key;
    image.summary.ok = true;
    image.summary.ii = 2;
    image.summary.stage_count = 1;
    image.summary.length = 2;
    image.summary.fu_units = 3;
    image.image_words = {payload, payload + 1, payload + 2};
    return image;
}

/** Flip one byte of @p key's payload in place (checksum must catch it). */
void
corruptRecord(const PersistentStore& store, const std::string& key)
{
    const auto location = store.recordLocation(key);
    ASSERT_TRUE(location.has_value()) << key;
    std::fstream file(location->path, std::ios::in | std::ios::out |
                                          std::ios::binary);
    ASSERT_TRUE(file.is_open()) << location->path;
    file.seekp(location->offset + location->length / 2);
    const int byte = file.peek();
    file.put(static_cast<char>(byte ^ 0x40));
}

TEST_F(PersistStoreTest, SaveThenLoadRoundTripsThroughTheFilesystem)
{
    {
        PersistentStore store(dir(), StoreOptions{});
        EXPECT_TRUE(store.save(makeImage("alpha", 11)));
        EXPECT_TRUE(store.contains("alpha"));
        EXPECT_EQ(store.size(), 1);
        const auto location = store.recordLocation("alpha");
        ASSERT_TRUE(location.has_value());
        EXPECT_TRUE(fs::exists(location->path));
    }
    // A brand-new store object (fresh process equivalent) sees the entry.
    PersistentStore store(dir(), StoreOptions{});
    EXPECT_TRUE(store.contains("alpha"));
    const auto loaded = store.load("alpha");
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->key, "alpha");
    EXPECT_EQ(loaded->image_words,
              (std::vector<std::uint32_t>{11, 12, 13}));
    EXPECT_EQ(store.stats().hits, 1);
}

TEST_F(PersistStoreTest, LoadOfAbsentKeyIsACountedMiss)
{
    PersistentStore store(dir(), StoreOptions{});
    EXPECT_FALSE(store.load("nope").has_value());
    EXPECT_EQ(store.stats().misses, 1);
    EXPECT_FALSE(store.contains("nope"));
}

TEST_F(PersistStoreTest, ResaveSupersedesAndTheOldRecordTurnsToGarbage)
{
    PersistentStore store(dir(), StoreOptions{});
    store.save(makeImage("k", 1));
    const std::int64_t live_after_first = store.stats().live_bytes;
    store.save(makeImage("k", 99));
    EXPECT_EQ(store.size(), 1);
    const auto loaded = store.load("k");
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->image_words[0], 99u);
    // Same image size, so live bytes are steady while the log grew.
    EXPECT_EQ(store.stats().live_bytes, live_after_first);
    EXPECT_GT(store.stats().log_bytes, store.stats().live_bytes);
}

TEST_F(PersistStoreTest, EvictionTakesTheProbationTail)
{
    StoreOptions options;
    options.max_entries = 3;
    PersistentStore store(dir(), options);
    store.save(makeImage("a"));
    store.save(makeImage("b"));
    store.save(makeImage("c"));
    // Promote "a" out of probation; the probation order is now b, c.
    EXPECT_TRUE(store.load("a").has_value());

    store.save(makeImage("d"));  // Over capacity: evicts "b".
    EXPECT_EQ(store.size(), 3);
    EXPECT_TRUE(store.contains("a"));
    EXPECT_FALSE(store.contains("b"));
    EXPECT_TRUE(store.contains("c"));
    EXPECT_TRUE(store.contains("d"));
    EXPECT_EQ(store.stats().evictions, 1);
    EXPECT_FALSE(store.recordLocation("b").has_value());
}

TEST_F(PersistStoreTest, EvictedEntryCannotResurrectAfterReopen)
{
    // The eviction is committed to the manifest log, so a restart
    // cannot serve what the store dropped -- even though the record
    // bytes still sit in the segment as garbage until compaction.
    StoreOptions options;
    options.max_entries = 2;
    {
        PersistentStore store(dir(), options);
        store.save(makeImage("old"));
        store.save(makeImage("mid"));
        store.save(makeImage("new"));  // Evicts "old".
        store.flush();
    }
    PersistentStore store(dir(), options);
    EXPECT_FALSE(store.contains("old"));
    EXPECT_FALSE(store.load("old").has_value());
    EXPECT_TRUE(store.contains("mid"));
    EXPECT_TRUE(store.contains("new"));
}

TEST_F(PersistStoreTest, ManifestPreservesRecencyAcrossReopen)
{
    StoreOptions options;
    options.max_entries = 3;
    {
        PersistentStore store(dir(), options);
        store.save(makeImage("x"));
        store.save(makeImage("y"));
        store.save(makeImage("z"));
        // Touch "x": protected segment, most recent overall.
        EXPECT_TRUE(store.load("x").has_value());
    }  // Destructor flushes the manifest snapshot.
    PersistentStore store(dir(), options);
    // With recency restored, the next eviction must pick "y" (probation
    // tail), not "x" -- a scan-rebuilt index could not know that.
    store.save(makeImage("w"));
    EXPECT_TRUE(store.contains("x"));
    EXPECT_FALSE(store.contains("y"));
    EXPECT_TRUE(store.contains("z"));
    EXPECT_TRUE(store.contains("w"));
}

TEST_F(PersistStoreTest, MissingManifestTriggersScanRebuild)
{
    {
        PersistentStore store(dir(), StoreOptions{});
        store.save(makeImage("a", 5));
        store.save(makeImage("b", 6));
        store.flush();
    }
    fs::remove(fs::path(dir()) / "MANIFEST.log");

    metrics::Registry registry;
    PersistentStore store(dir(), StoreOptions{}, &registry);
    EXPECT_EQ(store.size(), 2);
    EXPECT_EQ(store.stats().manifest_rebuilds, 1);
    EXPECT_EQ(registry.counter("vm.persist.manifest_rebuilds"), 1);
    EXPECT_EQ(store.load("a")->image_words[0], 5u);
    EXPECT_EQ(store.load("b")->image_words[0], 6u);
}

TEST_F(PersistStoreTest, ScanRebuildKeepsTheLastWriterOfARekeyedRecord)
{
    {
        PersistentStore store(dir(), StoreOptions{});
        store.save(makeImage("k", 1));
        store.save(makeImage("k", 2));  // Supersedes in the same log.
        store.flush();
    }
    fs::remove(fs::path(dir()) / "MANIFEST.log");

    PersistentStore store(dir(), StoreOptions{});
    EXPECT_EQ(store.size(), 1);
    EXPECT_EQ(store.load("k")->image_words[0], 2u);
}

TEST_F(PersistStoreTest, CorruptRecordIsDroppedCountedAndCommitted)
{
    {
        PersistentStore store(dir(), StoreOptions{});
        store.save(makeImage("good"));
        store.save(makeImage("bad"));
        store.flush();
    }
    {
        PersistentStore store(dir(), StoreOptions{});
        corruptRecord(store, "bad");
    }

    metrics::Registry registry;
    {
        PersistentStore store(dir(), StoreOptions{}, &registry);
        EXPECT_FALSE(store.load("bad").has_value())
            << "corrupt record must degrade to a miss";
        EXPECT_EQ(store.stats().corrupt, 1);
        EXPECT_EQ(store.stats().misses, 1);
        EXPECT_EQ(registry.counter("vm.persist.corrupt"), 1);
        EXPECT_FALSE(store.contains("bad"));
        // The good entry is untouched.
        EXPECT_TRUE(store.load("good").has_value());
        store.flush();
    }
    // The drop was committed: a reopen does not resurrect the key or
    // re-count the corruption.
    PersistentStore store(dir(), StoreOptions{});
    EXPECT_FALSE(store.contains("bad"));
    EXPECT_EQ(store.stats().corrupt, 0);
    EXPECT_TRUE(store.load("good").has_value());
}

TEST_F(PersistStoreTest, InconsistentProfileSectionIsDroppedAsCorrupt)
{
    // Rewrite the first total of a version-3 record in place, with both
    // the blob's and the segment record's checksums recomputed, so only
    // the decoder's consistency check stands between it and a serve.
    std::int64_t totals[kCpuSimIterations];
    for (int k = 0; k < kCpuSimIterations; ++k)
        totals[k] = 10 + k;  // Every rise, and the tail, is one LEB byte.
    PersistedImage image = makeImage("profiled");
    image.cpu_profile = CpuProfile(totals, 32);
    {
        PersistentStore store(dir(), StoreOptions{});
        ASSERT_TRUE(store.save(image));
    }
    const auto rewrite_first_total = [&](char first) {
        const PersistentStore store(dir(), StoreOptions{});
        const auto location = store.recordLocation("profiled");
        ASSERT_TRUE(location.has_value());
        std::fstream file(location->path, std::ios::in | std::ios::out |
                                              std::ios::binary);
        std::vector<char> blob(static_cast<std::size_t>(location->length));
        file.seekg(location->offset);
        file.read(blob.data(), location->length);
        ASSERT_EQ(blob[4], static_cast<char>(kBlobVersionProfile));
        blob[blob.size() - 1 - kCpuSimIterations] = first;
        const auto seal = [](char* at, std::uint64_t checksum) {
            for (int byte = 0; byte < 8; ++byte)
                at[byte] = static_cast<char>(checksum >> (byte * 8));
        };
        seal(blob.data() + 8, fnvBytes(blob.data() + 16, blob.size() - 16));
        char record_checksum[8];
        seal(record_checksum, fnvBytes(blob.data(), blob.size()));
        file.seekp(location->offset - 8);
        file.write(record_checksum, 8);
        file.write(blob.data(), location->length);
    };

    // A consistent rewrite loads: the reseal itself is sound.
    rewrite_first_total(9);
    {
        PersistentStore store(dir(), StoreOptions{});
        const auto loaded = store.load("profiled");
        ASSERT_TRUE(loaded.has_value());
        EXPECT_EQ(loaded->cpu_profile.totalAt(1), 9);
        EXPECT_EQ(store.stats().corrupt, 0);
    }

    // A first total of 0 is dropped and counted like any corruption.
    rewrite_first_total(0);
    metrics::Registry registry;
    PersistentStore store(dir(), StoreOptions{}, &registry);
    EXPECT_FALSE(store.load("profiled").has_value());
    EXPECT_EQ(store.stats().corrupt, 1);
    EXPECT_EQ(registry.counter("vm.persist.corrupt"), 1);
    EXPECT_FALSE(store.contains("profiled"));
}

TEST_F(PersistStoreTest, ScanRebuildSkipsACorruptRecordAndStaysClean)
{
    {
        PersistentStore store(dir(), StoreOptions{});
        store.save(makeImage("bad"));
        store.flush();
    }
    {
        PersistentStore store(dir(), StoreOptions{});
        corruptRecord(store, "bad");
    }
    fs::remove(fs::path(dir()) / "MANIFEST.log");

    // Scan-rebuild decodes every record: the corrupt one is skipped and
    // counted, and a *second* open (now with a rewritten manifest) is
    // clean.
    {
        PersistentStore store(dir(), StoreOptions{});
        EXPECT_EQ(store.size(), 0);
        EXPECT_EQ(store.stats().corrupt, 1);
        store.flush();
    }
    PersistentStore store(dir(), StoreOptions{});
    EXPECT_EQ(store.size(), 0);
    EXPECT_EQ(store.stats().corrupt, 0);
}

TEST_F(PersistStoreTest, InvalidateCommitsTheRemoval)
{
    {
        PersistentStore store(dir(), StoreOptions{});
        store.save(makeImage("k"));
        EXPECT_TRUE(store.invalidate("k"));
        EXPECT_FALSE(store.invalidate("k"))
            << "second invalidate is a no-op";
        EXPECT_FALSE(store.contains("k"));
        EXPECT_EQ(store.stats().invalidations, 1);
        EXPECT_EQ(store.stats().evictions, 0)
            << "invalidation must not masquerade as capacity pressure";
    }
    // The removal survives a reopen (it was appended to the log, not
    // just dropped from memory).
    PersistentStore store(dir(), StoreOptions{});
    EXPECT_FALSE(store.contains("k"));
}

TEST_F(PersistStoreTest, StatsAndRegistryAgree)
{
    metrics::Registry registry;
    PersistentStore store(dir(), StoreOptions{}, &registry);
    store.save(makeImage("a"));
    store.load("a");
    store.load("missing");
    store.invalidate("a");

    const StoreStats stats = store.stats();
    EXPECT_EQ(stats.saves, 1);
    EXPECT_EQ(stats.hits, 1);
    EXPECT_EQ(stats.misses, 1);
    EXPECT_EQ(stats.invalidations, 1);
    EXPECT_EQ(stats.size, 0);
    EXPECT_EQ(registry.counter("vm.persist.saves"), 1);
    EXPECT_EQ(registry.counter("vm.persist.hits"), 1);
    EXPECT_EQ(registry.counter("vm.persist.misses"), 1);
    EXPECT_EQ(registry.counter("vm.persist.invalidations"), 1);
}

TEST_F(PersistStoreTest, KeysWithHostileCharactersRoundTrip)
{
    const std::vector<std::string> keys = {
        "plain", "with/slash", "with\\backslash", "with space",
        "with:colon", "../escape", "..", "with\nnewline",
        "with%percent"};
    {
        PersistentStore store(dir(), StoreOptions{});
        for (std::size_t i = 0; i < keys.size(); ++i)
            store.save(makeImage(keys[i], static_cast<std::uint32_t>(i)));
        EXPECT_EQ(store.size(), static_cast<std::int64_t>(keys.size()));
        store.flush();
    }
    // Keys live escaped in the manifest log now: the reopen (replay)
    // must round-trip every hostile byte exactly.
    PersistentStore store(dir(), StoreOptions{});
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const auto loaded = store.load(keys[i]);
        ASSERT_TRUE(loaded.has_value()) << keys[i];
        EXPECT_EQ(loaded->key, keys[i]);
        EXPECT_EQ(loaded->image_words[0], static_cast<std::uint32_t>(i));
        // ...and every record lives inside the store directory.
        const auto location = store.recordLocation(keys[i]);
        ASSERT_TRUE(location.has_value()) << keys[i];
        EXPECT_EQ(fs::path(location->path).parent_path(),
                  fs::path(dir()))
            << keys[i];
    }
}

TEST_F(PersistStoreTest, ManyEntriesSurviveReopenInBulk)
{
    StoreOptions options;
    options.max_entries = 512;
    {
        PersistentStore store(dir(), options);
        for (int i = 0; i < 256; ++i)
            store.save(makeImage("bulk-" + std::to_string(i),
                                 static_cast<std::uint32_t>(i)));
        store.flush();
    }
    PersistentStore store(dir(), options);
    EXPECT_EQ(store.size(), 256);
    for (int i = 0; i < 256; i += 17) {
        const auto loaded = store.load("bulk-" + std::to_string(i));
        ASSERT_TRUE(loaded.has_value()) << i;
        EXPECT_EQ(loaded->image_words[0], static_cast<std::uint32_t>(i));
    }
}

// --- The log-structured layout ---------------------------------------

TEST_F(PersistStoreTest, SegmentsRotateAtTheConfiguredSize)
{
    StoreOptions options;
    options.segment_bytes = 256;  // A few records per segment.
    PersistentStore store(dir(), options);
    for (int i = 0; i < 12; ++i)
        store.save(makeImage("rot-" + std::to_string(i),
                             static_cast<std::uint32_t>(i)));
    EXPECT_GT(store.stats().segments, 1)
        << "small segment_bytes must seal and rotate";
    for (int i = 0; i < 12; ++i)
        EXPECT_TRUE(store.load("rot-" + std::to_string(i)).has_value())
            << i;
}

TEST_F(PersistStoreTest, CompactionReclaimsGarbageAndKeepsEveryLiveKey)
{
    StoreOptions options;
    options.segment_bytes = 256;
    options.compact_garbage_percent = 101;  // Never auto-compact.
    metrics::Registry registry;
    PersistentStore store(dir(), options, &registry);
    for (int i = 0; i < 12; ++i)
        store.save(makeImage("c-" + std::to_string(i),
                             static_cast<std::uint32_t>(i)));
    // Re-save half the keys: their first records are now garbage
    // spread across sealed segments.
    for (int i = 0; i < 12; i += 2)
        store.save(makeImage("c-" + std::to_string(i),
                             static_cast<std::uint32_t>(100 + i)));
    const std::int64_t log_before = store.stats().log_bytes;

    ASSERT_TRUE(store.compactNow());
    EXPECT_EQ(store.stats().compactions, 1);
    EXPECT_GT(store.stats().reclaimed_bytes, 0);
    EXPECT_LT(store.stats().log_bytes, log_before);
    EXPECT_EQ(registry.counter("vm.persist.compactions"), 1);

    // Every live key still serves its latest value.
    for (int i = 0; i < 12; ++i) {
        const auto loaded = store.load("c-" + std::to_string(i));
        ASSERT_TRUE(loaded.has_value()) << i;
        const std::uint32_t expected = (i % 2 == 0)
                                           ? static_cast<std::uint32_t>(
                                                 100 + i)
                                           : static_cast<std::uint32_t>(i);
        EXPECT_EQ(loaded->image_words[0], expected) << i;
    }
    EXPECT_EQ(store.stats().corrupt, 0);
}

TEST_F(PersistStoreTest, CompactedStoreSurvivesReopen)
{
    StoreOptions options;
    options.segment_bytes = 256;
    {
        PersistentStore store(dir(), options);
        for (int i = 0; i < 12; ++i)
            store.save(makeImage("c-" + std::to_string(i),
                                 static_cast<std::uint32_t>(i)));
        for (int i = 0; i < 12; i += 2)
            store.save(makeImage("c-" + std::to_string(i),
                                 static_cast<std::uint32_t>(100 + i)));
        store.compactNow();
        store.flush();
    }
    PersistentStore store(dir(), options);
    EXPECT_EQ(store.size(), 12);
    for (int i = 0; i < 12; ++i)
        EXPECT_TRUE(store.load("c-" + std::to_string(i)).has_value())
            << i;
}

// --- The kill-point battery ------------------------------------------

TEST_F(PersistStoreTest, TornManifestTailIsTruncatedOnReopen)
{
    {
        PersistentStore store(dir(), StoreOptions{});
        store.save(makeImage("a", 1));
        store.save(makeImage("b", 2));
    }
    // Tear the last manifest line mid-record, as a crash would.
    const fs::path manifest = fs::path(dir()) / "MANIFEST.log";
    const auto size = static_cast<std::int64_t>(fs::file_size(manifest));
    fs::resize_file(manifest, static_cast<std::uintmax_t>(size - 7));

    metrics::Registry registry;
    PersistentStore store(dir(), StoreOptions{}, &registry);
    EXPECT_GE(store.stats().tail_truncations, 1);
    EXPECT_GE(registry.counter("vm.persist.tail_truncations"), 1);
    // "b"'s add record was torn: the save is unacked, so "b" is absent
    // and "a" is intact -- exactly the acked prefix.
    EXPECT_TRUE(store.load("a").has_value());
    EXPECT_FALSE(store.contains("b"));
    EXPECT_EQ(store.stats().corrupt, 0)
        << "a torn tail is damage, not corruption";
    // The store is writable again and the key can be re-saved.
    EXPECT_TRUE(store.save(makeImage("b", 2)));
    EXPECT_TRUE(store.load("b").has_value());
}

TEST_F(PersistStoreTest, CrashBetweenSegmentAppendAndManifestCommit)
{
    // The exact window the commit protocol defends: record bytes land
    // in the segment but the manifest add never does.  Staged by
    // appending a whole record for an unsaved key to the closed store's
    // active segment.
    std::string segment_path;
    {
        PersistentStore store(dir(), StoreOptions{});
        store.save(makeImage("acked", 1));
        segment_path = store.recordLocation("acked")->path;
    }
    {
        const auto orphan =
            encodeSegmentRecord(encodeBlob(makeImage("orphan", 2)));
        std::ofstream out(segment_path, std::ios::binary | std::ios::app);
        out.write(reinterpret_cast<const char*>(orphan.data()),
                  static_cast<std::streamsize>(orphan.size()));
    }
    const auto segment_size_before = fs::file_size(segment_path);

    metrics::Registry registry;
    PersistentStore store(dir(), StoreOptions{}, &registry);
    EXPECT_TRUE(store.load("acked").has_value());
    EXPECT_FALSE(store.contains("orphan"));
    // The orphan bytes were truncated away, not left to confuse a
    // future scan-rebuild.
    EXPECT_GE(store.stats().orphans_dropped, 1);
    EXPECT_GE(registry.counter("vm.persist.orphans_dropped"), 1);
    EXPECT_LT(fs::file_size(segment_path), segment_size_before);
}

TEST_F(PersistStoreTest, CleanRestartAfterInvalidationDropsNoOrphans)
{
    // The invalidated key's record ends the segment.  Its bytes were
    // committed, so a clean restart keeps them as garbage instead of
    // truncating them as crash debris.
    {
        PersistentStore store(dir(), StoreOptions{});
        store.save(makeImage("kept", 1));
        store.save(makeImage("dropped", 2));
        EXPECT_TRUE(store.invalidate("dropped"));
    }
    metrics::Registry registry;
    PersistentStore store(dir(), StoreOptions{}, &registry);
    EXPECT_EQ(store.stats().orphans_dropped, 0);
    EXPECT_EQ(store.stats().tail_truncations, 0);
    EXPECT_EQ(registry.counter("vm.persist.orphans_dropped"), 0);
    EXPECT_TRUE(store.load("kept").has_value());
    EXPECT_FALSE(store.contains("dropped"));
}

TEST_F(PersistStoreTest, ManifestWithoutEndRecordCutsOnlyTheHighestSegment)
{
    // A sealed segment ends in an invalidated record, and the highest
    // one in an orphan.  With the snapshot's `end` record stripped (a
    // manifest that predates it), recovery still cuts only the orphan:
    // the sealed segment's committed garbage stays.
    StoreOptions options;
    options.segment_bytes = 256;
    options.compact_garbage_percent = 100;
    std::string sealed_path;
    std::string highest_path;
    {
        PersistentStore store(dir(), options);
        std::map<std::string, std::pair<std::int64_t, std::string>> last;
        std::map<std::string, int> records;
        for (int i = 0; i < 12; ++i) {
            const std::string key = "s-" + std::to_string(i);
            ASSERT_TRUE(store.save(
                makeImage(key, static_cast<std::uint32_t>(i))));
            const auto location = store.recordLocation(key);
            last[location->path] = {location->offset, key};
            ++records[location->path];
        }
        ASSERT_GT(last.size(), 2u);
        highest_path = store.recordLocation("s-11")->path;
        for (const auto& [path, count] : records) {
            if (count >= 2 && path != highest_path) {
                sealed_path = path;
                break;
            }
        }
        ASSERT_FALSE(sealed_path.empty());
        ASSERT_TRUE(store.invalidate(last[sealed_path].second));
    }
    const auto orphan =
        encodeSegmentRecord(encodeBlob(makeImage("orphan", 99)));
    {
        std::ofstream out(highest_path, std::ios::binary | std::ios::app);
        out.write(reinterpret_cast<const char*>(orphan.data()),
                  static_cast<std::streamsize>(orphan.size()));
    }
    const fs::path manifest = fs::path(dir()) / "MANIFEST.log";
    std::string kept;
    int stripped = 0;
    {
        std::ifstream in(manifest);
        for (std::string line; std::getline(in, line);) {
            if (line.find(" end ") != std::string::npos) {
                ++stripped;
                continue;
            }
            kept += line + "\n";
        }
    }
    ASSERT_EQ(stripped, 1);
    std::ofstream(manifest, std::ios::trunc) << kept;
    const auto sealed_size = fs::file_size(sealed_path);

    metrics::Registry registry;
    PersistentStore store(dir(), options, &registry);
    EXPECT_EQ(store.stats().orphans_dropped,
              static_cast<std::int64_t>(orphan.size()));
    EXPECT_EQ(store.stats().tail_truncations, 1);
    EXPECT_EQ(store.stats().corrupt, 0);
    EXPECT_EQ(fs::file_size(sealed_path), sealed_size);
    EXPECT_FALSE(store.contains("orphan"));
    EXPECT_EQ(store.size(), 11);
}

TEST_F(PersistStoreTest, TornSegmentTailFallsBackCleanlyUnderScanRebuild)
{
    {
        PersistentStore store(dir(), StoreOptions{});
        store.save(makeImage("a", 1));
        store.save(makeImage("b", 2));
        store.flush();
    }
    // Lose the manifest AND tear the segment tail: recovery must scan
    // and keep exactly the whole records.
    const std::string segment_path = [&] {
        PersistentStore store(dir(), StoreOptions{});
        return store.recordLocation("b")->path;
    }();
    fs::remove(fs::path(dir()) / "MANIFEST.log");
    const auto size = static_cast<std::int64_t>(
        fs::file_size(segment_path));
    fs::resize_file(segment_path,
                    static_cast<std::uintmax_t>(size - 5));

    PersistentStore store(dir(), StoreOptions{});
    EXPECT_EQ(store.stats().manifest_rebuilds, 1);
    EXPECT_TRUE(store.load("a").has_value());
    EXPECT_FALSE(store.contains("b"));
}

TEST_F(PersistStoreTest, StaleTmpFilesAreSweptOnOpen)
{
    {
        PersistentStore store(dir(), StoreOptions{});
        store.save(makeImage("k"));
        store.flush();
    }
    // A crashed manifest rewrite leaves its temp file behind.
    {
        std::ofstream tmp(fs::path(dir()) / "MANIFEST.log.tmp");
        tmp << "half a snapshot";
    }
    metrics::Registry registry;
    PersistentStore store(dir(), StoreOptions{}, &registry);
    EXPECT_EQ(store.stats().tmp_swept, 1);
    EXPECT_EQ(registry.counter("vm.persist.tmp_swept"), 1);
    EXPECT_FALSE(fs::exists(fs::path(dir()) / "MANIFEST.log.tmp"));
    EXPECT_TRUE(store.load("k").has_value());
}

TEST_F(PersistStoreTest, ReopenAfterEveryManifestPrefixServesAPrefix)
{
    // Brute force the whole manifest: for every possible truncation
    // point, the reopened store must recover to *some* acked prefix
    // without crashing, corruption, or resurrecting evicted state.
    {
        PersistentStore store(dir(), StoreOptions{});
        for (int i = 0; i < 6; ++i)
            store.save(makeImage("p-" + std::to_string(i),
                                 static_cast<std::uint32_t>(i)));
        store.invalidate("p-2");
    }
    // Snapshot the whole directory: each cut must start from the same
    // crashed state (a writable reopen repairs in place -- truncating
    // segments, rewriting the manifest).
    const fs::path pristine = dir_.parent_path() /
                              (dir_.filename().string() + ".pristine");
    fs::remove_all(pristine);
    fs::copy(dir_, pristine);
    const fs::path manifest = fs::path(dir()) / "MANIFEST.log";
    const auto full = fs::file_size(manifest);

    for (std::uintmax_t cut = 0; cut <= full; cut += 3) {
        fs::remove_all(dir_);
        fs::copy(pristine, dir_);
        fs::resize_file(manifest, cut);

        PersistentStore store(dir(), StoreOptions{});
        EXPECT_EQ(store.stats().corrupt, 0) << "cut=" << cut;
        for (const std::string& key : store.keys())
            EXPECT_TRUE(store.load(key).has_value())
                << "cut=" << cut << " key=" << key;
    }
    fs::remove_all(pristine);
}

// --- Multi-process locking and degradation ---------------------------

TEST_F(PersistStoreTest, SecondStoreOnALockedDirDegradesToReadOnly)
{
    metrics::Registry registry;
    PersistentStore writer(dir(), StoreOptions{});
    ASSERT_TRUE(writer.save(makeImage("shared", 42)));
    writer.flush();

    PersistentStore reader(dir(), StoreOptions{}, &registry);
    EXPECT_TRUE(reader.readOnly());
    EXPECT_EQ(reader.stats().readonly, 1);
    EXPECT_EQ(registry.counter("vm.persist.readonly"), 1);

    // The read-only tier serves hits...
    const auto loaded = reader.load("shared");
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->image_words[0], 42u);

    // ...skips (and counts) persists and invalidations...
    EXPECT_FALSE(reader.save(makeImage("mine", 1)));
    reader.invalidate("shared");
    EXPECT_GE(reader.stats().readonly_skips, 2);
    EXPECT_GE(registry.counter("vm.persist.readonly_skips"), 2);

    // ...without disturbing the writer (whose view is authoritative).
    EXPECT_TRUE(writer.contains("shared"));
    EXPECT_TRUE(writer.save(makeImage("more", 2)));
    EXPECT_FALSE(writer.readOnly());
}

TEST_F(PersistStoreTest, LockIsReleasedWhenTheWriterCloses)
{
    {
        PersistentStore writer(dir(), StoreOptions{});
        writer.save(makeImage("k"));
    }
    PersistentStore next(dir(), StoreOptions{});
    EXPECT_FALSE(next.readOnly());
    EXPECT_TRUE(next.save(makeImage("k2")));
}

TEST_F(PersistStoreTest, ReadOnlyOpenPerformsNoDiskMutation)
{
    // The writer holds the lock from the start; damage planted after
    // its open stays un-repaired until a writable open sees it.
    PersistentStore writer_lock(dir(), StoreOptions{});
    writer_lock.save(makeImage("k"));
    writer_lock.flush();

    {
        std::ofstream tmp(fs::path(dir()) / "stale.tmp");
        tmp << "x";
    }
    const fs::path manifest = fs::path(dir()) / "MANIFEST.log";
    {
        std::ofstream out(manifest, std::ios::binary | std::ios::app);
        out << "f00dface torn-line-without-newl";
    }
    const auto manifest_size = fs::file_size(manifest);

    PersistentStore reader(dir(), StoreOptions{});
    ASSERT_TRUE(reader.readOnly());
    EXPECT_TRUE(reader.load("k").has_value());
    EXPECT_TRUE(fs::exists(fs::path(dir()) / "stale.tmp"))
        << "read-only open swept a tmp file";
    EXPECT_EQ(fs::file_size(manifest), manifest_size)
        << "read-only open truncated the manifest";
}

// --- The I/O-error taxonomy ------------------------------------------

TEST_F(PersistStoreTest, EnospcDegradesToReadOnlyNotACrash)
{
    fault::FaultyVfsOptions fault;
    fault.mode = fault::VfsFaultMode::kEnospc;
    fault.trigger_op = 6;  // Open mutations pass; a later save hits it.
    const auto faulty = std::make_shared<fault::FaultyVfs>(
        realVfs(), fault);
    StoreOptions options;
    options.vfs = faulty;

    metrics::Registry registry;
    PersistentStore store(dir(), options, &registry);
    ASSERT_FALSE(store.readOnly());
    bool degraded = false;
    for (int i = 0; i < 8; ++i) {
        if (!store.save(makeImage("e-" + std::to_string(i),
                                  static_cast<std::uint32_t>(i)))) {
            degraded = true;
            break;
        }
    }
    ASSERT_TRUE(degraded) << "ENOSPC never surfaced";
    EXPECT_TRUE(store.readOnly());
    EXPECT_GE(store.stats().io_errors, 1);
    EXPECT_EQ(store.stats().readonly, 1);
    EXPECT_GE(registry.counter("vm.persist.io_error"), 1);
    EXPECT_EQ(registry.counter("vm.persist.readonly"), 1);
    EXPECT_EQ(store.stats().corrupt, 0)
        << "a full disk is an I/O error, not corruption";

    // Acked keys keep serving from the read-only tier.
    EXPECT_TRUE(store.load("e-0").has_value());
}

TEST_F(PersistStoreTest, TransientReadFailureKeepsTheEntry)
{
    /** Fails every readRange exactly once, then recovers. */
    class FlakyReads : public Vfs {
      public:
        explicit FlakyReads(std::shared_ptr<Vfs> base)
            : base_(std::move(base))
        {
        }
        std::optional<std::vector<std::uint8_t>>
        readFile(const std::string& path) override
        {
            return base_->readFile(path);
        }
        std::optional<std::vector<std::uint8_t>>
        readRange(const std::string& path, std::int64_t offset,
                  std::int64_t size) override
        {
            if (fail_next_) {
                fail_next_ = false;
                return std::nullopt;
            }
            return base_->readRange(path, offset, size);
        }
        bool
        exists(const std::string& path) override
        {
            return base_->exists(path);
        }
        std::optional<std::int64_t>
        fileSize(const std::string& path) override
        {
            return base_->fileSize(path);
        }
        std::vector<std::string>
        listDir(const std::string& dir) override
        {
            return base_->listDir(dir);
        }
        bool
        append(const std::string& path,
               const std::vector<std::uint8_t>& bytes) override
        {
            return base_->append(path, bytes);
        }
        bool
        writeFile(const std::string& path,
                  const std::vector<std::uint8_t>& bytes) override
        {
            return base_->writeFile(path, bytes);
        }
        bool
        renameFile(const std::string& from,
                   const std::string& to) override
        {
            return base_->renameFile(from, to);
        }
        bool
        removeFile(const std::string& path) override
        {
            return base_->removeFile(path);
        }
        bool
        truncateFile(const std::string& path,
                     std::int64_t size) override
        {
            return base_->truncateFile(path, size);
        }
        bool
        syncFile(const std::string& path) override
        {
            return base_->syncFile(path);
        }
        bool
        createDirectories(const std::string& dir) override
        {
            return base_->createDirectories(dir);
        }
        std::unique_ptr<VfsLock>
        tryLockExclusive(const std::string& path) override
        {
            return base_->tryLockExclusive(path);
        }
        void
        armFailure()
        {
            fail_next_ = true;
        }

      private:
        std::shared_ptr<Vfs> base_;
        bool fail_next_ = false;
    };

    const auto flaky = std::make_shared<FlakyReads>(realVfs());
    StoreOptions options;
    options.vfs = flaky;
    metrics::Registry registry;
    PersistentStore store(dir(), options, &registry);
    store.save(makeImage("k", 9));

    flaky->armFailure();
    EXPECT_FALSE(store.load("k").has_value())
        << "a failed read is a miss";
    EXPECT_EQ(store.stats().io_errors, 1);
    EXPECT_EQ(registry.counter("vm.persist.io_error"), 1);
    EXPECT_EQ(store.stats().corrupt, 0)
        << "an I/O failure must not be misfiled as corruption";
    EXPECT_TRUE(store.contains("k"))
        << "a transient I/O failure must not drop the entry";

    // The next read succeeds: no data was lost.
    const auto loaded = store.load("k");
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->image_words[0], 9u);
}

}  // namespace
}  // namespace veal::persist
