#ifndef PERFBENCH_CALIBRATION_H_
#define PERFBENCH_CALIBRATION_H_

/**
 * @file
 * Machine-speed normalization of host times.
 *
 * The shared machines this benchmark runs on change speed by up to 2x
 * over tens of seconds (other tenants on the same cores), which swamps
 * the differences a change to the program should show.  A calibration
 * pass -- the frozen reference CPU timing model on a fixed set of loops,
 * code no change to the program's live paths touches -- is timed
 * between every two measured intervals, and each interval is reported
 * as it would have taken on a machine where one pass takes 200 us.
 * Across a 40 s run this cut the spread of 2 s tick medians from 9.4%
 * to 1.4% (4-core shared Xeon VM, Release build).
 */

#include <cstdint>
#include <vector>

#include "veal/ir/loop.h"

namespace perfbench {

inline constexpr double kReferencePassNs = 200'000.0;

class Calibrator {
  public:
    Calibrator();

    /**
     * Run one calibration pass on each of @p threads threads at once --
     * as many as the measured work keeps busy -- and return the mean
     * host ns of their passes.
     */
    std::int64_t pass(int threads = 1);

  private:
    std::int64_t passOnThisThread() const;

    std::vector<veal::Loop> loops_;
};

/** Append @p count passes of @p calibrator (ns) to @p into. */
void samplePasses(Calibrator& calibrator, int count, std::vector<double>& into);

/**
 * Intervals measured between calibration passes: pass, interval, pass,
 * interval, ..., pass.  Each interval is scaled by kReferencePassNs over
 * the mean of the two passes around it.  (A median over a wider window
 * of passes tracked the sub-second speed changes worse: warm-reuse p95
 * spread over ten seeds went from 3-5% to 12%.)
 */
class IntervalLog {
  public:
    /** Takes the first pass on @p threads threads. */
    IntervalLog(Calibrator& calibrator, int threads);

    /** Record an interval just measured, then take the pass after it. */
    void add(std::int64_t raw_ns);

    /** Every interval in ms, scaled to the reference speed. */
    std::vector<double> normalizedMs() const;

    /** Every interval in ms, as measured. */
    std::vector<double> rawMs() const;

    const std::vector<double>& passesNs() const { return passes_; }

  private:
    Calibrator& calibrator_;
    int threads_;
    std::vector<double> raw_;
    std::vector<double> passes_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATION_H_
