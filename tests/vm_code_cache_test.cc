#include "veal/vm/code_cache.h"

#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "veal/fuzz/corpus.h"
#include "veal/ir/loop_parser.h"

#ifndef VEAL_CORPUS_DIR
#error "VEAL_CORPUS_DIR must point at tests/corpus"
#endif

namespace veal {
namespace {

TEST(CodeCacheTest, MissThenHit)
{
    CodeCache cache(4);
    EXPECT_FALSE(cache.lookup("a"));
    cache.insert("a");
    EXPECT_TRUE(cache.lookup("a"));
    EXPECT_EQ(cache.stats().misses, 1);
    EXPECT_EQ(cache.stats().hits, 1);
}

TEST(CodeCacheTest, EvictsLeastRecentlyUsed)
{
    CodeCache cache(2);
    cache.insert("a");
    cache.insert("b");
    EXPECT_TRUE(cache.lookup("a"));  // a is now most recent.
    cache.insert("c");               // evicts b.
    EXPECT_TRUE(cache.lookup("a"));
    EXPECT_FALSE(cache.lookup("b"));
    EXPECT_TRUE(cache.lookup("c"));
}

TEST(CodeCacheTest, LookupRefreshesRecency)
{
    CodeCache cache(2);
    cache.insert("a");
    cache.insert("b");
    // Without the lookup, "a" would be the LRU victim.
    EXPECT_TRUE(cache.lookup("a"));
    cache.insert("c");
    EXPECT_FALSE(cache.lookup("b"));
    EXPECT_TRUE(cache.lookup("a"));
}

TEST(CodeCacheTest, ReinsertExistingKeyDoesNotGrow)
{
    CodeCache cache(3);
    cache.insert("a");
    cache.insert("a");
    cache.insert("a");
    EXPECT_EQ(cache.size(), 1);
}

TEST(CodeCacheTest, CapacityIsRespected)
{
    CodeCache cache(16);  // The paper's configuration.
    for (int i = 0; i < 100; ++i)
        cache.insert("loop" + std::to_string(i));
    EXPECT_EQ(cache.size(), 16);
    EXPECT_EQ(cache.stats().capacity, 16);
    // The 16 most recent survive.
    for (int i = 84; i < 100; ++i)
        EXPECT_TRUE(cache.lookup("loop" + std::to_string(i)));
}

TEST(CodeCacheTest, WorkingSetWithinCapacityNeverThrashes)
{
    CodeCache cache(8);
    for (int round = 0; round < 10; ++round) {
        for (int i = 0; i < 8; ++i) {
            const std::string key = "k" + std::to_string(i);
            if (!cache.lookup(key))
                cache.insert(key);
        }
    }
    // 8 compulsory misses, everything else hits.
    EXPECT_EQ(cache.stats().misses, 8);
    EXPECT_EQ(cache.stats().hits, 72);
}

TEST(CodeCacheTest, WorkingSetBeyondCapacityThrashesUnderLru)
{
    CodeCache cache(4);
    for (int round = 0; round < 5; ++round) {
        for (int i = 0; i < 5; ++i) {
            const std::string key = "k" + std::to_string(i);
            if (!cache.lookup(key))
                cache.insert(key);
        }
    }
    // Round-robin over 5 keys with 4 LRU slots: every access misses.
    EXPECT_EQ(cache.stats().hits, 0);
    EXPECT_EQ(cache.stats().misses, 25);
}

TEST(CodeCacheTest, InsertReportsWhatActuallyHappened)
{
    CodeCache cache(2);
    EXPECT_EQ(cache.insert("a"), CodeCache::InsertOutcome::kInserted);
    EXPECT_EQ(cache.insert("a"), CodeCache::InsertOutcome::kRefreshed);
    EXPECT_EQ(cache.insert("b"), CodeCache::InsertOutcome::kInserted);
    // Full cache: a genuinely new key still reports kInserted (the
    // eviction is visible in stats().evictions, not the outcome).
    EXPECT_EQ(cache.insert("c"), CodeCache::InsertOutcome::kInserted);
}

TEST(CodeCacheTest, CountsEvictionsButNotRefreshes)
{
    CodeCache cache(2);
    cache.insert("a");
    cache.insert("b");
    EXPECT_EQ(cache.stats().evictions, 0);
    cache.insert("a");  // Refresh of a resident key: never evicts.
    EXPECT_EQ(cache.stats().evictions, 0);
    cache.insert("c");  // Evicts b (a was refreshed above).
    EXPECT_EQ(cache.stats().evictions, 1);
    EXPECT_FALSE(cache.lookup("b"));
    cache.insert("d");
    EXPECT_EQ(cache.stats().evictions, 2);
}

TEST(CodeCacheTest, StatsSnapshotMatchesAccessors)
{
    CodeCache cache(2);
    cache.lookup("a");  // miss
    cache.insert("a");
    cache.lookup("a");  // hit
    cache.insert("b");
    cache.insert("c");  // evicts a
    const CodeCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1);
    EXPECT_EQ(stats.misses, 1);
    EXPECT_EQ(stats.evictions, 1);
    EXPECT_EQ(stats.size, cache.size());
    EXPECT_EQ(stats.size, 2);
    EXPECT_EQ(stats.capacity, 2);
}

TEST(CodeCacheTest, EvictedKeyReportsTheLruVictim)
{
    CodeCache cache(2);
    std::string evicted;
    EXPECT_EQ(cache.insert("a", &evicted), CodeCache::InsertOutcome::kInserted);
    EXPECT_TRUE(evicted.empty());
    cache.insert("b", &evicted);
    EXPECT_TRUE(evicted.empty()) << "spare capacity never evicts";
    cache.insert("c", &evicted);
    EXPECT_EQ(evicted, "a");
    EXPECT_FALSE(cache.lookup("a"));
}

TEST(CodeCacheTest, EvictedKeyBufferIsClearedOnEveryNonEvictingPath)
{
    // The contract the service and the hardened VM rely on: callers
    // reuse one buffer across inserts, so a non-evicting insert MUST
    // clear it -- a stale victim from a previous call would make the
    // owner delete a live payload (and, via the persistent store, a
    // live blob another run could have warm-started from).
    CodeCache cache(2);
    std::string evicted;
    cache.insert("a", &evicted);
    cache.insert("b", &evicted);
    cache.insert("c", &evicted);  // Evicts "a".
    ASSERT_EQ(evicted, "a");

    // Refresh of a resident key: never evicts, must clear the buffer.
    cache.insert("b", &evicted);
    EXPECT_TRUE(evicted.empty())
        << "stale victim survived a refreshing insert";

    // Erase-then-insert with spare capacity: same requirement.
    cache.insert("c", &evicted);  // Refresh, clears again.
    cache.erase("b");
    evicted = "poison";
    cache.insert("d", &evicted);  // Fills the erased slot: no eviction.
    EXPECT_TRUE(evicted.empty())
        << "stale victim survived a spare-capacity insert";
}

TEST(CodeCacheTest, EraseIsNotAnEvictionAndNeverTouchesTheBuffer)
{
    CodeCache cache(2);
    std::string evicted;
    cache.insert("a", &evicted);
    cache.insert("b", &evicted);
    EXPECT_TRUE(cache.erase("a"));
    EXPECT_FALSE(cache.erase("zzz"));
    EXPECT_EQ(cache.stats().evictions, 0)
        << "invalidation must not count as capacity pressure";
    // The slot freed by erase absorbs the next insert evictionlessly.
    cache.insert("c", &evicted);
    EXPECT_TRUE(evicted.empty());
    EXPECT_EQ(cache.stats().evictions, 0);
}

TEST(CodeCacheDeathTest, ZeroCapacityPanics)
{
    EXPECT_DEATH(CodeCache cache(0), "");
}

/**
 * The identity of one translation: the loop text alone is not enough
 * (the same loop translated for two configurations yields different
 * control), so the key spans (config, mode, loop).
 */
std::string
translationKey(const CorpusCase& repro)
{
    return encodeLaConfig(repro.config) + "\n" + toString(repro.mode) +
           "\n" + printLoop(repro.loop);
}

/** Every checked-in corpus case, keyed by its full printed identity. */
std::vector<CorpusCase>
loadCorpus()
{
    std::vector<CorpusCase> cases;
    for (const auto& path : listCorpusFiles(VEAL_CORPUS_DIR)) {
        CorpusParseResult parsed = loadCorpusFile(path);
        EXPECT_TRUE(std::holds_alternative<CorpusCase>(parsed)) << path;
        if (std::holds_alternative<CorpusCase>(parsed))
            cases.push_back(std::move(std::get<CorpusCase>(parsed)));
    }
    return cases;
}

TEST(CodeCacheCorpusTest, ResidentCorpusWorkingSetTranslatesOnce)
{
    const auto corpus = loadCorpus();
    ASSERT_GE(corpus.size(), 10u);

    CodeCache cache(static_cast<int>(corpus.size()));
    int translations = 0;
    for (int round = 0; round < 4; ++round) {
        for (const auto& repro : corpus) {
            const std::string key = translationKey(repro);
            if (cache.lookup(key))
                continue;
            translateLoop(repro.loop, repro.config, repro.mode);
            ++translations;
            cache.insert(key);
        }
    }
    // One compulsory translation per loop; every later invocation hits.
    EXPECT_EQ(translations, static_cast<int>(corpus.size()));
    EXPECT_EQ(cache.stats().misses, static_cast<std::int64_t>(corpus.size()));
    EXPECT_EQ(cache.stats().hits,
              static_cast<std::int64_t>(3 * corpus.size()));
}

TEST(CodeCacheCorpusTest, CapacityPressureForcesRetranslation)
{
    const auto corpus = loadCorpus();
    ASSERT_GE(corpus.size(), 10u);

    // Fewer slots than corpus loops: round-robin invocation thrashes the
    // LRU cache, so every invocation re-translates.
    CodeCache cache(4);
    std::map<std::string, int> first_ii;
    int translations = 0;
    for (int round = 0; round < 2; ++round) {
        for (const auto& repro : corpus) {
            const std::string key = translationKey(repro);
            if (cache.lookup(key))
                continue;
            const TranslationResult translation =
                translateLoop(repro.loop, repro.config, repro.mode);
            ++translations;
            cache.insert(key);

            // Re-translation after eviction must reproduce the original
            // control image, or a cache eviction would silently change
            // accelerator behaviour.
            const int ii = translation.ok ? translation.schedule.ii : -1;
            const auto [it, inserted] = first_ii.try_emplace(key, ii);
            if (!inserted) {
                EXPECT_EQ(it->second, ii) << repro.loop.name();
            }
        }
    }
    EXPECT_EQ(translations, static_cast<int>(2 * corpus.size()));
    EXPECT_EQ(cache.stats().hits, 0);
}

TEST(CodeCacheCorpusTest, RetranslationIsFullyDeterministic)
{
    for (const auto& repro : loadCorpus()) {
        const TranslationResult first =
            translateLoop(repro.loop, repro.config, repro.mode);
        const TranslationResult second =
            translateLoop(repro.loop, repro.config, repro.mode);

        ASSERT_EQ(first.ok, second.ok) << repro.loop.name();
        if (!first.ok) {
            EXPECT_EQ(first.reject, second.reject) << repro.loop.name();
            continue;
        }
        EXPECT_EQ(first.schedule.ii, second.schedule.ii)
            << repro.loop.name();
        EXPECT_EQ(first.schedule.time, second.schedule.time)
            << repro.loop.name();
        EXPECT_EQ(first.schedule.fu_instance, second.schedule.fu_instance)
            << repro.loop.name();
        EXPECT_EQ(first.schedule.length, second.schedule.length);
        EXPECT_EQ(first.schedule.stage_count, second.schedule.stage_count);
        EXPECT_EQ(first.registers.reg_of_unit, second.registers.reg_of_unit)
            << repro.loop.name();
    }
}

}  // namespace
}  // namespace veal
