#ifndef VEAL_ARCH_CCA_SPEC_H_
#define VEAL_ARCH_CCA_SPEC_H_

/**
 * @file
 * The configurable compute accelerator (CCA) function unit.
 *
 * From paper §3.1: the CCA "supports 4 inputs, 2 outputs, and can execute
 * as many as 15 standard RISC ops atomically in 2 clock cycles.  The 15
 * RISC ops are organized into 4 rows, where the first and third row can
 * execute simple arithmetic (add, subtract, comparison) and bitwise logical
 * ops, and the second and fourth rows execute only bitwise ops."
 */

#include <array>
#include <vector>

#include "veal/ir/opcode.h"

namespace veal {

/** Structural description of one CCA design. */
struct CcaSpec {
    int num_inputs = 4;
    int num_outputs = 2;
    int num_rows = 4;
    int max_ops = 15;

    /** Whether each row can execute arithmetic (true) or only logic. */
    std::array<bool, 8> row_allows_arith = {true, false, true, false,
                                            false, false, false, false};

    /** Ops per row; the classic CCA is 4/4/4/3 (15 total). */
    std::array<int, 8> row_width = {4, 4, 4, 3, 0, 0, 0, 0};

    /** Execution latency in cycles (combinational across 2 cycles). */
    int latency = 2;

    /**
     * Cycles between back-to-back issues.  The CCA is a combinational
     * structure without internal pipeline latches, so a new subgraph can
     * only start once the previous one finishes.
     */
    int initiation_interval = 2;

    /** Can a single op with @p cls execute in @p row (0-based)? */
    bool
    rowSupports(int row, CcaOpClass cls) const
    {
        if (row < 0 || row >= num_rows || cls == CcaOpClass::kNone)
            return false;
        if (cls == CcaOpClass::kArith)
            return row_allows_arith[static_cast<std::size_t>(row)];
        return true;  // Logic runs in every row.
    }

    /** Is @p opcode executable on *some* row of this CCA? */
    bool
    supports(Opcode opcode) const
    {
        const CcaOpClass cls = opcodeInfo(opcode).cca_class;
        for (int row = 0; row < num_rows; ++row) {
            if (rowSupports(row, cls))
                return true;
        }
        return false;
    }

    /** The paper's CCA design point. */
    static CcaSpec classic() { return CcaSpec{}; }

    /** Equal when every field is. */
    bool operator==(const CcaSpec&) const = default;
};

}  // namespace veal

#endif  // VEAL_ARCH_CCA_SPEC_H_
