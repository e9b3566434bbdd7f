#include "veal/sim/tlb_model.h"

#include <algorithm>
#include <cstdlib>

#include "veal/support/assert.h"

namespace veal {

std::int64_t
streamPageSpan(std::int64_t stride_elements, std::int64_t iterations,
               const TlbConfig& config)
{
    VEAL_ASSERT(iterations >= 1);
    VEAL_ASSERT(config.page_bytes >= 1 && config.element_bytes >= 1);
    if (stride_elements == 0)
        return 1;  // A pinned reference lives on one page.
    const std::int64_t stride_bytes =
        std::abs(stride_elements) * config.element_bytes;
    // Contiguous span of an affine access sequence, in pages; a stride
    // wider than a page cannot touch more than one new page per
    // iteration, hence the cap.
    const std::int64_t span_pages =
        (stride_bytes * (iterations - 1)) / config.page_bytes + 1;
    return std::min(iterations, span_pages);
}

TlbCharge
streamTlbCharge(const std::vector<std::int64_t>& load_strides,
                const std::vector<std::int64_t>& store_strides,
                const TlbConfig& config, std::int64_t iterations,
                bool first_invocation)
{
    TlbCharge charge;
    if (!config.enabled)
        return charge;
    for (const std::int64_t stride : load_strides)
        charge.pages += streamPageSpan(stride, iterations, config);
    for (const std::int64_t stride : store_strides)
        charge.pages += streamPageSpan(stride, iterations, config);
    if (first_invocation) {
        // Cold TLB: every page of the working set walks once.
        charge.walks = charge.pages;
    } else {
        // Re-invocation: the TLB kept `entries` pages resident; only
        // the excess re-walks.
        charge.walks = std::max<std::int64_t>(
            0, charge.pages - static_cast<std::int64_t>(config.entries));
    }
    charge.cycles = charge.walks * config.walk_cycles;
    return charge;
}

}  // namespace veal
