#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

/**
 * @file
 * The benchmark's seeded input generator.  Every workload's input is a
 * pure function of the --seed value; the program under test receives
 * only the generated trace (service workloads) or grid (dse-grid).
 *
 * It deliberately does not reuse veal::generateTrace(), which draws
 * keys uniformly and gives every request 12 iterations: that hides key
 * popularity and the CPU model's 96-iteration simulation window.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "veal/arch/la_config.h"
#include "veal/service/trace.h"
#include "veal/vm/translator.h"

namespace perfbench {

/** Shape shared by every service workload. */
inline constexpr int kTenants = 4;
inline constexpr int kTickSize = 512;

/** Per-request iteration counts are drawn log-uniformly from this range. */
inline constexpr std::int64_t kMinIterations = 4;
inline constexpr std::int64_t kMaxIterations = 512;

/** Sizes of one epoch (one fresh program instance) per workload. */
inline constexpr int kWarmReuseLoops = 256;
inline constexpr int kWarmReuseTicks = 120;
inline constexpr int kColdChurnTicks = 24;
inline constexpr double kColdChurnZipfS = 0.8;
inline constexpr int kWarmRestartLoops = 4096;
inline constexpr int kWarmRestartTicks = 16;
inline constexpr int kDsePoints = 512;

/** The four static/dynamic translation splits, in a fixed order. */
extern const veal::TranslationMode kModes[4];

struct ServiceInputs {
    /**
     * Untimed pass before the timed replay: the warm-up of warm-reuse,
     * or the trace the warm-restart fixture process replays.  Empty for
     * cold-churn.
     */
    veal::ServiceTrace prepare;

    /** The replay that is timed. */
    veal::ServiceTrace timed;
};

ServiceInputs warmReuseInputs(std::uint64_t seed);
ServiceInputs coldChurnInputs(std::uint64_t seed);
ServiceInputs warmRestartInputs(std::uint64_t seed);

/** Dispatch by workload name ("warm-reuse", "cold-churn", ...). */
ServiceInputs serviceInputs(const std::string& workload,
                            std::uint64_t seed);

/** One LA design point of the DSE grid, with its translation mode. */
struct DesignPoint {
    veal::LaConfig la;
    veal::TranslationMode mode = veal::TranslationMode::kStatic;
};

std::vector<DesignPoint> dseGridInputs(std::uint64_t seed);

/** "int=2 fp=1 cca=on regs=16 ls=8 ss=4 maxii=16 mode=static". */
std::string describe(const DesignPoint& point);

/** Log-uniform draw in [kMinIterations, kMaxIterations]. */
std::int64_t drawIterations(std::uint64_t raw);

/** Distinct translation keys (loop seed + mode) of @p trace. */
std::vector<veal::TraceRequest> distinctKeys(const veal::ServiceTrace& trace);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
