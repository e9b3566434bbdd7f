#ifndef VEAL_ARCH_LATENCY_H_
#define VEAL_ARCH_LATENCY_H_

/**
 * @file
 * Per-opcode execution latencies.
 *
 * Two presets exist: the accelerator model (paper Figure 5: multiplies take
 * 3 cycles, the CCA takes 2, everything else 1; FP ops are long-latency and
 * fully pipelined) and the baseline CPU model (same compute latencies, but
 * loads pay an L1 access).
 */

#include <array>

#include "veal/ir/opcode.h"

namespace veal {

/** Latency lookup table, one entry per opcode. */
class LatencyModel {
  public:
    /** All-ones model; customise with set(). */
    LatencyModel();

    /** Latency of @p opcode in cycles (>= 1 for value-producing ops). */
    int latency(Opcode opcode) const;

    /** Override the latency for one opcode. */
    void set(Opcode opcode, int cycles);

    /** The loop-accelerator latency preset (paper Figure 5 rules). */
    static LatencyModel accelerator();

    /** The baseline in-order CPU preset. */
    static LatencyModel cpu();

    /** Equal when every opcode's latency is. */
    bool operator==(const LatencyModel&) const = default;

  private:
    std::array<int, kNumOpcodes> cycles_;
};

}  // namespace veal

#endif  // VEAL_ARCH_LATENCY_H_
