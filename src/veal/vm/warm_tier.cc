#include "veal/vm/warm_tier.h"

#include <utility>

namespace veal {

void
WarmTier::publish(const std::string& key,
                  const TranslationResult& translation,
                  std::optional<ControlImage> image, std::int64_t epoch,
                  std::int64_t sequence, int backend)
{
    publishSummary(key, persist::summarize(translation), std::move(image),
                   epoch, sequence, backend);
}

void
WarmTier::publishSummary(const std::string& key,
                         persist::TranslationSummary summary,
                         std::optional<ControlImage> image,
                         std::int64_t epoch, std::int64_t sequence,
                         int backend)
{
    auto entry = std::make_shared<Entry>();
    entry->summary = std::move(summary);
    entry->image = std::move(image);
    if (entry->image.has_value())
        entry->expected_checksum = entry->image->checksum();
    entry->epoch = epoch;
    entry->sequence = sequence;
    entry->backend = backend;

    const auto [it, inserted] =
        entries_.insert_or_assign(key, std::move(entry));
    (void)it;
    ++publishes_;
    if (!inserted)
        ++republishes_;
}

WarmTier::EntryRef
WarmTier::find(const std::string& key) const
{
    const auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : it->second;
}

WarmTier::EntryRef
WarmTier::serve(const std::string& key)
{
    const auto it = entries_.find(key);
    if (it == entries_.end())
        return nullptr;
    ++serves_;
    return it->second;
}

void
WarmTier::offerCpuProfile(const std::string& key, const CpuProfile& profile)
{
    const auto it = entries_.find(key);
    if (it != entries_.end() && it->second->cpu_profile.empty())
        it->second->cpu_profile = profile;
}

bool
WarmTier::invalidate(const std::string& key)
{
    if (entries_.erase(key) == 0)
        return false;
    ++invalidations_;
    return true;
}

void
WarmTier::publishScores(const std::string& key, ScoreRef scores)
{
    scores_.insert_or_assign(key, std::move(scores));
}

WarmTier::ScoreRef
WarmTier::findScores(const std::string& key) const
{
    const auto it = scores_.find(key);
    return it == scores_.end() ? nullptr : it->second;
}

WarmTier::Stats
WarmTier::stats() const
{
    Stats stats;
    stats.publishes = publishes_;
    stats.republishes = republishes_;
    stats.serves = serves_;
    stats.invalidations = invalidations_;
    stats.size = size();
    return stats;
}

}  // namespace veal
