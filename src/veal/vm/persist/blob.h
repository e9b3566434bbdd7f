#ifndef VEAL_VM_PERSIST_BLOB_H_
#define VEAL_VM_PERSIST_BLOB_H_

/**
 * @file
 * Versioned, checksummed serialization of one translated loop -- the
 * unit the persistent code cache stores on disk.
 *
 * The code cache dying with the process forfeits VEAL's whole premise
 * (translation cost amortized across reuse), so a blob captures enough
 * of a `TranslationResult` to serve the key on the next run without
 * re-translating: the encoded `ControlImage` words plus a
 * `TranslationSummary` -- the handful of scalars the analytic LA cost
 * model (sim/la_timing) actually reads.  `summaryLoopCost()` feeds them
 * to the same `laInvocationCost()` formula `acceleratorLoopCost()`
 * uses, so a summary prices exactly like the translation it came from.
 * `servePrice()` adds the stream-TLB charge, and it is the one LA
 * price: the VM, the service and the fleet scorer all price an
 * invocation through it, which is what makes warm-started reports
 * byte-identical to in-process runs without persisting schedules or
 * dataflow graphs.
 *
 * Negative results persist too (ok == false with the reject reason), so
 * a key that rejected translation stays rejected across restarts
 * instead of burning a re-translation, mirroring the warm tier's
 * negative entries.
 *
 * A blob also carries the key's baseline-CPU CpuProfile, tagged with
 * the cpuSignature() of the CpuConfig it was simulated on, so a
 * restarted service prices a persisted key's CPU baseline without
 * simulating it again; a profile for another CPU is ignored.
 *
 * Robustness contract (PR 4 lineage): decodeBlob() never panics.  A
 * truncated, version-skewed, or bit-flipped blob comes back as a typed
 * BlobError; the store quarantines the file and the service falls back
 * to a cold translation -- degrade, don't crash.
 */

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "veal/arch/cpu_config.h"
#include "veal/arch/la_config.h"
#include "veal/sim/cpu_sim.h"
#include "veal/sim/la_timing.h"
#include "veal/sim/tlb_model.h"
#include "veal/vm/translator.h"

namespace veal::persist {

/**
 * Blob format magic ("VPB1" little-endian) and versions.  Version 1 is
 * the base layout; version 2 appends a fleet-score section (see
 * FleetScoreSet); version 3 appends a CPU-profile section, after a byte
 * that says whether the fleet section is present.  A blob encodes as
 * the oldest version that holds it: without a profile it is still
 * version 1 or 2, byte for byte.
 */
constexpr std::uint32_t kBlobMagic = 0x31425056u;
constexpr std::uint32_t kBlobVersion = 1;
constexpr std::uint32_t kBlobVersionFleet = 2;
constexpr std::uint32_t kBlobVersionProfile = 3;

/**
 * One backend's price for a loop, as computed by the fleet scorer.
 * Cycle fields are the full modeled invocation totals (TLB-inclusive
 * when the service runs with --tlb) at the canonical scoring iteration
 * count, so rehydrated placements reproduce live scoring bit-exactly.
 */
struct FleetBackendScore {
    bool ok = false;
    TranslationReject reject = TranslationReject::kNone;
    std::int32_t ii = 0;
    std::int32_t stage_count = 0;
    std::int64_t first_cycles = 0;  ///< First invocation, setup included.
    std::int64_t warm_cycles = 0;   ///< Steady-state re-invocation.
};

/**
 * The fleet scorer's verdict for one key: one FleetBackendScore per
 * backend, index-aligned with the FleetConfig that produced them.  The
 * signature is an FNV fold of every backend's knobs; a blob whose
 * signature doesn't match the running fleet is treated as unscored
 * (the fleet changed shape, so the prices are stale).
 */
struct FleetScoreSet {
    std::uint64_t signature = 0;
    std::int64_t scoring_iterations = 0;
    std::int64_t cpu_cycles = 0;  ///< Scalar-CPU price at the same count.
    std::vector<FleetBackendScore> backends;
};

/**
 * The scalars the analytic invocation-cost model reads, lifted out of a
 * TranslationResult so pricing survives without the heavyweight parts.
 */
struct TranslationSummary {
    bool ok = false;
    TranslationReject reject = TranslationReject::kNone;
    TranslationMode mode = TranslationMode::kFullyDynamic;

    // Schedule shape (pipeline term of the cost model).
    std::int32_t ii = 0;
    std::int32_t stage_count = 0;
    std::int32_t length = 0;

    // Setup/drain terms.
    std::int32_t fu_units = 0;       ///< graph.numFuUnits()
    std::int32_t live_in_regs = 0;   ///< reg_of_source_op entries >= 0
    std::int32_t live_outs = 0;      ///< units with is_live_out

    /**
     * Per-stream element strides (loads first, then stores), feeding the
     * TLB distinct-page model.  Sizes double as the stream counts of the
     * setup term.
     */
    std::vector<std::int64_t> load_strides;
    std::vector<std::int64_t> store_strides;

    /**
     * Fleet extension (blob version 2): which backend the steerer chose
     * for this key (-1 = CPU fallback / none), and the per-backend score
     * set so a warm restart rehydrates placements without re-scoring.
     * Absent on single-design-point blobs, which stay version 1.
     */
    std::int32_t fleet_backend = -1;
    std::optional<FleetScoreSet> fleet;
};

/** Lift the cost-model scalars out of @p translation. */
TranslationSummary summarize(const TranslationResult& translation);

/**
 * Invocation cost computed from the summary alone: laInvocationCost()
 * over the summary's scalars, so equal to acceleratorLoopCost() on the
 * summarized translation.  @p summary must be ok.
 */
LaInvocationCost summaryLoopCost(const TranslationSummary& summary,
                                 const LaConfig& config,
                                 std::int64_t iterations,
                                 bool first_invocation);

/** One LA invocation's price. */
struct ServePrice {
    std::int64_t cycles = 0;  ///< Invocation total, TLB cycles included.
    TlbCharge tlb;            ///< The stream-TLB share (vm.tlb.*).
};

/**
 * The LA price of one invocation of the summarized loop on @p la, for
 * @p iterations iterations: the summaryLoopCost() total plus the
 * streamTlbCharge() over the summary's strides (zero with the model
 * off).  The VM, the service and the fleet scorer price every
 * invocation here.  @p summary must be ok.
 */
ServePrice servePrice(const TranslationSummary& summary, const LaConfig& la,
                      const TlbConfig& tlb, std::int64_t iterations,
                      bool first_invocation);

/**
 * FNV fold of every CpuConfig field the CPU model reads: issue width,
 * branch penalty, load latency and every opcode latency.  A profile
 * simulated on one config prices exactly the configs with its
 * signature.
 */
std::uint64_t cpuSignature(const CpuConfig& cpu);

/** One persisted translation: key + summary + encoded image words. */
struct PersistedImage {
    std::string key;
    TranslationSummary summary;

    /** ControlImage words (empty when !summary.ok). */
    std::vector<std::uint32_t> image_words;

    /** The key's baseline-CPU profile (version 3; empty: none) and the
        cpuSignature() of the config it was simulated on. */
    CpuProfile cpu_profile;
    std::uint64_t cpu_signature = 0;
};

/** Why a blob failed to decode or read (never a crash). */
enum class BlobError : int {
    kTruncated = 0,  ///< Ran out of bytes mid-field.
    kBadMagic,       ///< Not a blob at all.
    kVersionSkew,    ///< Future (or retired) format version.
    kChecksum,       ///< Payload bytes corrupt.
    kMalformed,      ///< Checksummed OK but fields are inconsistent.
};

/** Error name, e.g. "version-skew". */
const char* toString(BlobError error);

/** Serialize @p image (little-endian, FNV-1a checksummed). */
std::vector<std::uint8_t> encodeBlob(const PersistedImage& image);

/**
 * Parse @p size bytes at @p data.  Total function: any input yields
 * either a validated PersistedImage or a typed error.
 */
std::variant<PersistedImage, BlobError> decodeBlob(
    const std::uint8_t* data, std::size_t size);

}  // namespace veal::persist

#endif  // VEAL_VM_PERSIST_BLOB_H_
