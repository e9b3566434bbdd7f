#ifndef VEAL_SIM_TLB_MODEL_H_
#define VEAL_SIM_TLB_MODEL_H_

/**
 * @file
 * Address-translation (TLB) cost model for the LA's stream units.
 *
 * The paper prices streaming memory traffic as fully hidden (la_timing
 * file comment), which holds for *data* latency but not for address
 * translation: AraOS-style measurements show vector/stream units stall
 * on page walks when a stream's working set outruns the TLB.  This
 * model charges exactly that. Per invocation, each stream touches a
 * distinct-page working set determined by its element stride and the
 * iteration count; the first invocation walks every page (cold TLB),
 * and a re-invocation re-walks only the pages the stream TLB could not
 * keep resident.
 *
 * The model is deliberately analytic -- a pure function of (strides,
 * iterations, config) -- so the stride lists of a persisted
 * `TranslationSummary` (persist/blob.h) price exactly like the live
 * translation they came from.  Every LA price reads them there, through
 * `persist::servePrice()`, which keeps warm-started service reports
 * byte-identical to in-process runs.
 *
 * Disabled by default (`TlbConfig::off()`): every existing report,
 * golden file, and bench baseline is unchanged unless a caller opts in
 * (`veal-serve --tlb`, the Figure-6 TLB sweep).  Charges are metered as
 * `vm.tlb.*` and are *execution*-side: they never enter the
 * translation-cycle totals, so the PR-3 phase-cycle telescoping
 * contract is untouched.
 */

#include <cstdint>
#include <vector>

namespace veal {

/** Stream-TLB shape and page-walk pricing. */
struct TlbConfig {
    /** Master switch; off() keeps every charge at zero. */
    bool enabled = false;

    /** Page size backing the streams' address space. */
    std::int64_t page_bytes = 4096;

    /** Stream element width (the LA's scalar cell). */
    std::int64_t element_bytes = 8;

    /** Stream-TLB capacity, in pages, shared across streams. */
    int entries = 32;

    /** Cycles per page walk (miss service time). */
    std::int64_t walk_cycles = 30;

    /** The disabled model (all charges zero). */
    static TlbConfig
    off()
    {
        return TlbConfig{};
    }

    /** The enabled model at its default design point. */
    static TlbConfig
    proposed()
    {
        TlbConfig config;
        config.enabled = true;
        return config;
    }
};

/** One invocation's translation charges. */
struct TlbCharge {
    std::int64_t pages = 0;  ///< Distinct-page working set, all streams.
    std::int64_t walks = 0;  ///< Page walks actually charged.
    std::int64_t cycles = 0; ///< walks * walk_cycles.
};

/**
 * Distinct pages one stream touches over @p iterations iterations at
 * @p stride_elements elements per iteration: the stream sweeps
 * |stride| * (iterations - 1) * element_bytes of address span (capped
 * at one new page per access for sparse strides); a zero stride pins a
 * single page.
 */
std::int64_t streamPageSpan(std::int64_t stride_elements,
                            std::int64_t iterations,
                            const TlbConfig& config);

/**
 * Charge for one invocation over the stream strides (loads and
 * stores alike).  @p first_invocation walks the full working set; a
 * re-invocation re-walks only the excess over the TLB's capacity.
 * Zero when the model is disabled.
 */
TlbCharge streamTlbCharge(const std::vector<std::int64_t>& load_strides,
                          const std::vector<std::int64_t>& store_strides,
                          const TlbConfig& config,
                          std::int64_t iterations, bool first_invocation);

}  // namespace veal

#endif  // VEAL_SIM_TLB_MODEL_H_
