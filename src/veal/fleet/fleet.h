#ifndef VEAL_FLEET_FLEET_H_
#define VEAL_FLEET_FLEET_H_

/**
 * @file
 * Heterogeneous loop-accelerator fleet: configs, scoring, steering.
 *
 * The paper evaluates one LA design point, but its Figure-10 tradeoff
 * analysis shows the winning (CCA depth, FU mix, stream capacity) shape
 * varies sharply by loop: a production deployment runs a *fleet* of
 * differently-shaped backends and steers each loop to the one where it
 * wins.  Three pieces (DESIGN.md §17):
 *
 *  - FleetConfig: N named LaConfig backends with per-backend capacity.
 *    Ships the paper baseline plus four presets (cca-heavy, fp-heavy,
 *    stream-heavy, tiny-ii).
 *  - BackendScorer: prices one loop against every backend through
 *    scoreBackend() -- one nominal translation per backend, priced
 *    first and warm through persist::servePrice(), the price the
 *    service charges (TLB-aware when it runs --tlb) -- plus the
 *    scalar-CPU price of the same loop.  Scores are pure data
 *    (persist::FleetScoreSet), cacheable in the warm tier and
 *    persistable in version-2 blobs.
 *  - FleetSteerer: places keys greedily on the cheapest-warm-cycles
 *    backend, index-ordered tie-breaks, spilling to the strictly
 *    next-best backend when one saturates its capacity, with the CPU as
 *    the last rung when every viable backend is full.  Placements are
 *    sticky per key, so steering is a deterministic left-fold over the
 *    admission order -- the property the service's shard/thread/batch
 *    determinism contract rides on.
 */

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "veal/arch/cpu_config.h"
#include "veal/arch/la_config.h"
#include "veal/ir/loop.h"
#include "veal/sim/tlb_model.h"
#include "veal/vm/persist/blob.h"
#include "veal/vm/translator.h"

namespace veal::fleet {

/** One fleet member: a design point plus its admission capacity. */
struct Backend {
    LaConfig la;

    /**
     * Maximum number of distinct keys resident on this backend
     * (control-store / stream-table slots in a real deployment).
     * <= 0 means unlimited.
     */
    int capacity = 0;
};

/** The whole fleet, in steering index order. */
struct FleetConfig {
    std::string name = "fleet";
    std::vector<Backend> backends;

    bool enabled() const { return !backends.empty(); }
    int size() const { return static_cast<int>(backends.size()); }

    /** The §3.2 design point alone -- degenerates to today's service. */
    static FleetConfig baselineOnly();

    /**
     * The preset fleet: baseline + cca-heavy + fp-heavy + stream-heavy
     * + tiny-ii, unlimited capacity.
     */
    static FleetConfig standard();

    /**
     * Parse a --fleet spec: a preset fleet name ("standard",
     * "baseline") or a comma-separated list of backend preset names
     * ("baseline,cca-heavy,tiny-ii").  @p capacity applies to every
     * backend (<= 0 unlimited).  nullopt on an unknown name.
     */
    static std::optional<FleetConfig> parse(const std::string& spec,
                                            int capacity = 0);
};

/** Single-backend design-point presets (also valid --fleet members). */
LaConfig ccaHeavyConfig();
LaConfig fpHeavyConfig();
LaConfig streamHeavyConfig();
LaConfig tinyIiConfig();

/**
 * FNV-1a fold of every score-relevant knob of every backend (shape,
 * latencies, bus) -- NOT capacity, which affects steering but never a
 * score, so resizing capacity keeps persisted scores valid.
 */
std::uint64_t fleetSignature(const FleetConfig& config);

/**
 * Price @p loop on one backend: one nominal translateLoop() against
 * @p la, then its first and warm invocations at @p iterations through
 * persist::servePrice().  Pure, so safe to call concurrently, and the
 * steering battery recomputes single cells against it.
 */
persist::FleetBackendScore scoreBackend(const Loop& loop, const LaConfig& la,
                                        TranslationMode mode,
                                        std::int64_t iterations,
                                        const TlbConfig& tlb);

/**
 * Prices loops against the whole fleet.  Pure: one score() call per
 * (loop, mode) computes every backend column independently, so results
 * never depend on scoring order -- the steering property battery
 * recomputes single cells and byte-compares.
 */
class BackendScorer {
  public:
    BackendScorer(FleetConfig config, CpuConfig cpu, TlbConfig tlb,
                  std::int64_t scoring_iterations);

    const FleetConfig& config() const { return config_; }
    std::int64_t scoringIterations() const { return scoring_iterations_; }

    /**
     * Full signature a cached/persisted score set must match: the fleet
     * signature folded with the CPU model, TLB knobs, and the canonical
     * scoring iteration count.
     */
    std::uint64_t signature() const { return signature_; }

    /** Price @p loop on every backend plus the scalar CPU. */
    persist::FleetScoreSet score(const Loop& loop,
                                 TranslationMode mode) const;

  private:
    FleetConfig config_;
    CpuConfig cpu_;
    TlbConfig tlb_;
    std::int64_t scoring_iterations_;
    std::uint64_t signature_;
};

/** Where one key landed. */
struct Placement {
    /** Backend index, or -1 for the CPU-fallback rung. */
    int backend = -1;

    /**
     * 0 = got its best-scoring backend; k > 0 = spilled past k better
     * backends that were saturated.
     */
    int spill_rank = 0;

    /** True when no backend scored ok (nominal translation rejected
     *  everywhere); the key still lands on backend 0 so the PR-4
     *  ladder can climb there, but holds no capacity slot. */
    bool unscored = false;
};

/**
 * Greedy capacity-aware placement with sticky per-key decisions.
 *
 * Deterministic by construction: candidates are ordered (warm_cycles
 * ascending, backend index ascending), capacity is consumed in call
 * order, and a key's first placement is final -- so any replay of the
 * same key sequence reproduces the same placements bit-exactly.
 */
class FleetSteerer {
  public:
    explicit FleetSteerer(const FleetConfig& config);

    /**
     * Place @p key given its @p scores (index-aligned with the fleet).
     * Repeated calls with the same key return the original placement
     * without consuming further capacity.
     */
    Placement place(const std::string& key,
                    const persist::FleetScoreSet& scores);

    /** The sticky placement of @p key, if it was ever placed. */
    std::optional<Placement> lookup(const std::string& key) const;

    /** Resident (capacity-consuming) key count per backend. */
    const std::vector<int>& residents() const { return residents_; }

    std::int64_t spills() const { return spills_; }
    std::int64_t cpuFallbacks() const { return cpu_fallbacks_; }

  private:
    FleetConfig config_;
    std::map<std::string, Placement> placements_;
    std::vector<int> residents_;
    std::int64_t spills_ = 0;
    std::int64_t cpu_fallbacks_ = 0;
};

}  // namespace veal::fleet

#endif  // VEAL_FLEET_FLEET_H_
