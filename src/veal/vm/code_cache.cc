#include "veal/vm/code_cache.h"

#include "veal/support/assert.h"

namespace veal {

CodeCache::CodeCache(int capacity) : capacity_(capacity)
{
    VEAL_ASSERT(capacity >= 1, "code cache needs at least one entry");
}

bool
CodeCache::lookup(const std::string& key)
{
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
        ++misses_;
        return false;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;
}

CodeCache::InsertOutcome
CodeCache::insert(const std::string& key)
{
    return insert(key, nullptr);
}

CodeCache::InsertOutcome
CodeCache::insert(const std::string& key, std::string* evicted_key)
{
    // Clear first so a buffer reused across calls never carries a stale
    // eviction into a non-evicting insert (see the header contract).
    if (evicted_key != nullptr)
        evicted_key->clear();
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
        return InsertOutcome::kRefreshed;
    }
    if (static_cast<int>(entries_.size()) >= capacity_) {
        if (evicted_key != nullptr)
            *evicted_key = lru_.back();
        entries_.erase(lru_.back());
        lru_.pop_back();
        ++evictions_;
    }
    lru_.push_front(key);
    entries_[key] = lru_.begin();
    return InsertOutcome::kInserted;
}

bool
CodeCache::erase(const std::string& key)
{
    const auto it = entries_.find(key);
    if (it == entries_.end())
        return false;
    lru_.erase(it->second);
    entries_.erase(it);
    return true;
}

CodeCache::Stats
CodeCache::stats() const
{
    Stats stats;
    stats.hits = hits_;
    stats.misses = misses_;
    stats.evictions = evictions_;
    stats.size = size();
    stats.capacity = capacity_;
    return stats;
}

}  // namespace veal
