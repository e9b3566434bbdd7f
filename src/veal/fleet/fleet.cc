#include "veal/fleet/fleet.h"

#include <algorithm>
#include <utility>

#include "veal/sim/cpu_sim.h"
#include "veal/support/assert.h"
#include "veal/support/fnv.h"

namespace veal::fleet {

namespace {

/** Fold the eight bytes of @p value into @p digest in place. */
void
fold(std::uint64_t& digest, std::uint64_t value)
{
    digest = fnvFold64(digest, value);
}

void
foldLa(std::uint64_t& digest, const LaConfig& la)
{
    for (const char c : la.name)
        fold(digest, static_cast<std::uint8_t>(c));
    fold(digest, static_cast<std::uint64_t>(la.num_int_units));
    fold(digest, static_cast<std::uint64_t>(la.num_fp_units));
    fold(digest, static_cast<std::uint64_t>(la.num_cca_units));
    fold(digest, la.hasCca() ? 1u : 0u);
    if (la.cca.has_value()) {
        fold(digest, static_cast<std::uint64_t>(la.cca->num_inputs));
        fold(digest, static_cast<std::uint64_t>(la.cca->num_outputs));
        fold(digest, static_cast<std::uint64_t>(la.cca->num_rows));
        fold(digest, static_cast<std::uint64_t>(la.cca->max_ops));
        fold(digest, static_cast<std::uint64_t>(la.cca->latency));
        fold(digest,
             static_cast<std::uint64_t>(la.cca->initiation_interval));
    }
    fold(digest, static_cast<std::uint64_t>(la.num_int_registers));
    fold(digest, static_cast<std::uint64_t>(la.num_fp_registers));
    fold(digest, static_cast<std::uint64_t>(la.num_load_streams));
    fold(digest, static_cast<std::uint64_t>(la.num_store_streams));
    fold(digest, static_cast<std::uint64_t>(la.num_load_addr_gens));
    fold(digest, static_cast<std::uint64_t>(la.num_store_addr_gens));
    fold(digest, static_cast<std::uint64_t>(la.num_memory_ports));
    fold(digest, static_cast<std::uint64_t>(la.max_ii));
    fold(digest, static_cast<std::uint64_t>(la.bus_latency));
}

/** Lookup table the --fleet spec parser and the presets share. */
std::optional<LaConfig>
backendByName(const std::string& name)
{
    if (name == "baseline" || name == "veal-proposed")
        return LaConfig::proposed();
    if (name == "cca-heavy")
        return ccaHeavyConfig();
    if (name == "fp-heavy")
        return fpHeavyConfig();
    if (name == "stream-heavy")
        return streamHeavyConfig();
    if (name == "tiny-ii")
        return tinyIiConfig();
    return std::nullopt;
}

}  // namespace

LaConfig
ccaHeavyConfig()
{
    // Doubles down on subgraph acceleration: two CCAs soak the integer
    // dataflow that dominates the media kernels, at the cost of scalar
    // FU width.
    LaConfig config = LaConfig::proposed();
    config.name = "cca-heavy";
    config.num_cca_units = 2;
    config.num_int_units = 1;
    config.num_fp_units = 1;
    return config;
}

LaConfig
fpHeavyConfig()
{
    // For the FP-dominated kernels the CCA is dead silicon (it only
    // executes integer subgraphs); trade it for FP issue width and a
    // deeper FP file.
    LaConfig config = LaConfig::proposed();
    config.name = "fp-heavy";
    config.num_cca_units = 0;
    config.cca = std::nullopt;
    config.num_int_units = 1;
    config.num_fp_units = 4;
    config.num_fp_registers = 32;
    return config;
}

LaConfig
streamHeavyConfig()
{
    // Memory-bound loops: double the stream tables and address
    // generators and quadruple the ports, which is the ResMII limiter
    // on the paper's single-port baseline.
    LaConfig config = LaConfig::proposed();
    config.name = "stream-heavy";
    config.num_load_streams = 32;
    config.num_store_streams = 16;
    config.num_load_addr_gens = 8;
    config.num_store_addr_gens = 4;
    config.num_memory_ports = 4;
    return config;
}

LaConfig
tinyIiConfig()
{
    // A shallow-control-store part: only II <= 4 loops fit, but wide
    // integer issue and a short bus make those loops cheap -- the
    // "express" member of the zoo.
    LaConfig config = LaConfig::proposed();
    config.name = "tiny-ii";
    config.max_ii = 4;
    config.num_int_units = 4;
    config.bus_latency = 6;
    return config;
}

FleetConfig
FleetConfig::baselineOnly()
{
    FleetConfig config;
    config.name = "baseline";
    config.backends.push_back(Backend{LaConfig::proposed(), 0});
    return config;
}

FleetConfig
FleetConfig::standard()
{
    FleetConfig config;
    config.name = "standard";
    config.backends.push_back(Backend{LaConfig::proposed(), 0});
    config.backends.push_back(Backend{ccaHeavyConfig(), 0});
    config.backends.push_back(Backend{fpHeavyConfig(), 0});
    config.backends.push_back(Backend{streamHeavyConfig(), 0});
    config.backends.push_back(Backend{tinyIiConfig(), 0});
    return config;
}

std::optional<FleetConfig>
FleetConfig::parse(const std::string& spec, int capacity)
{
    if (spec.empty())
        return std::nullopt;
    FleetConfig config;
    if (spec == "standard") {
        config = standard();
    } else if (spec == "baseline") {
        config = baselineOnly();
    } else {
        config.name = spec;
        std::size_t start = 0;
        while (start <= spec.size()) {
            const std::size_t comma = spec.find(',', start);
            const std::string token =
                spec.substr(start, comma == std::string::npos
                                       ? std::string::npos
                                       : comma - start);
            const auto la = backendByName(token);
            if (!la.has_value())
                return std::nullopt;
            config.backends.push_back(Backend{*la, 0});
            if (comma == std::string::npos)
                break;
            start = comma + 1;
        }
    }
    for (Backend& backend : config.backends)
        backend.capacity = capacity;
    return config;
}

std::uint64_t
fleetSignature(const FleetConfig& config)
{
    std::uint64_t digest = kFnvOffsetBasis;
    fold(digest, static_cast<std::uint64_t>(config.backends.size()));
    for (const Backend& backend : config.backends)
        foldLa(digest, backend.la);
    return digest;
}

persist::FleetBackendScore
scoreBackend(const Loop& loop, const LaConfig& la, TranslationMode mode,
             std::int64_t iterations, const TlbConfig& tlb)
{
    VEAL_ASSERT(iterations >= 1, "scoring needs >= 1 iteration");
    const TranslationResult translation = translateLoop(loop, la, mode);
    persist::FleetBackendScore score;
    score.ok = translation.ok;
    score.reject = translation.reject;
    if (!translation.ok)
        return score;
    score.ii = translation.schedule.ii;
    score.stage_count = translation.schedule.stage_count;
    const persist::TranslationSummary summary =
        persist::summarize(translation);
    score.first_cycles =
        persist::servePrice(summary, la, tlb, iterations, true).cycles;
    score.warm_cycles =
        persist::servePrice(summary, la, tlb, iterations, false).cycles;
    return score;
}

BackendScorer::BackendScorer(FleetConfig config, CpuConfig cpu,
                             TlbConfig tlb,
                             std::int64_t scoring_iterations)
    : config_(std::move(config)),
      cpu_(std::move(cpu)),
      tlb_(tlb),
      scoring_iterations_(scoring_iterations)
{
    VEAL_ASSERT(scoring_iterations_ >= 1,
                "scoring needs >= 1 iteration");
    std::uint64_t digest = fleetSignature(config_);
    for (const char c : cpu_.name)
        fold(digest, static_cast<std::uint8_t>(c));
    fold(digest, static_cast<std::uint64_t>(cpu_.issue_width));
    fold(digest, static_cast<std::uint64_t>(cpu_.branch_penalty));
    fold(digest, static_cast<std::uint64_t>(cpu_.load_latency));
    fold(digest, tlb_.enabled ? 1u : 0u);
    if (tlb_.enabled) {
        fold(digest, static_cast<std::uint64_t>(tlb_.page_bytes));
        fold(digest, static_cast<std::uint64_t>(tlb_.element_bytes));
        fold(digest, static_cast<std::uint64_t>(tlb_.entries));
        fold(digest, static_cast<std::uint64_t>(tlb_.walk_cycles));
    }
    fold(digest, static_cast<std::uint64_t>(scoring_iterations_));
    signature_ = digest;
}

persist::FleetScoreSet
BackendScorer::score(const Loop& loop, TranslationMode mode) const
{
    persist::FleetScoreSet scores;
    scores.signature = signature_;
    scores.scoring_iterations = scoring_iterations_;
    scores.cpu_cycles =
        simulateLoopOnCpu(loop, cpu_, scoring_iterations_).total_cycles;
    scores.backends.reserve(config_.backends.size());
    for (const Backend& backend : config_.backends) {
        scores.backends.push_back(scoreBackend(
            loop, backend.la, mode, scoring_iterations_, tlb_));
    }
    return scores;
}

FleetSteerer::FleetSteerer(const FleetConfig& config)
    : config_(config),
      residents_(config.backends.size(), 0)
{
}

Placement
FleetSteerer::place(const std::string& key,
                    const persist::FleetScoreSet& scores)
{
    const auto existing = placements_.find(key);
    if (existing != placements_.end())
        return existing->second;
    VEAL_ASSERT(scores.backends.size() == config_.backends.size(),
                "score set shape does not match the fleet");

    // Candidates: ok backends by (warm price asc, index asc).  The
    // steady-state warm price is the ranking metric -- setup amortizes
    // across reuse, which is the service's whole premise.
    std::vector<std::pair<std::int64_t, int>> candidates;
    for (int i = 0; i < config_.size(); ++i) {
        const persist::FleetBackendScore& score =
            scores.backends[static_cast<std::size_t>(i)];
        if (score.ok)
            candidates.emplace_back(score.warm_cycles, i);
    }
    std::sort(candidates.begin(), candidates.end());

    Placement placement;
    if (candidates.empty()) {
        // Nominal translation rejected everywhere: park the key on
        // backend 0 without a capacity slot so the degradation ladder
        // can still climb there (bit-exact with the single-design-point
        // service, which also climbs on its one config).
        placement.backend = config_.backends.empty() ? -1 : 0;
        placement.unscored = true;
        placements_.emplace(key, placement);
        return placement;
    }

    for (std::size_t rank = 0; rank < candidates.size(); ++rank) {
        const int index = candidates[rank].second;
        const int capacity =
            config_.backends[static_cast<std::size_t>(index)].capacity;
        if (capacity > 0 &&
            residents_[static_cast<std::size_t>(index)] >= capacity)
            continue;
        placement.backend = index;
        placement.spill_rank = static_cast<int>(rank);
        ++residents_[static_cast<std::size_t>(index)];
        if (rank > 0)
            ++spills_;
        placements_.emplace(key, placement);
        return placement;
    }

    // Every viable backend is saturated: the CPU is the last rung.
    placement.backend = -1;
    ++cpu_fallbacks_;
    placements_.emplace(key, placement);
    return placement;
}

std::optional<Placement>
FleetSteerer::lookup(const std::string& key) const
{
    const auto it = placements_.find(key);
    if (it == placements_.end())
        return std::nullopt;
    return it->second;
}

}  // namespace veal::fleet
