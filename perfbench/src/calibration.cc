#include "calibration.h"

#include <thread>

#include "spans.h"
#include "veal/arch/cpu_config.h"
#include "veal/service/trace.h"
#include "veal/sim/reference.h"

namespace perfbench {

namespace {

volatile std::int64_t g_sink = 0;

}  // namespace

Calibrator::Calibrator()
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        loops_.push_back(veal::makeTraceLoop(seed * 7919));
}

std::int64_t
Calibrator::passOnThisThread() const
{
    const veal::CpuConfig cpu = veal::CpuConfig::arm11();
    const std::int64_t start = nowNs();
    std::int64_t cycles = 0;
    for (const veal::Loop& loop : loops_)
        cycles += veal::reference::simulateLoopOnCpu(loop, cpu, 96).total_cycles;
    const std::int64_t elapsed = nowNs() - start;
    g_sink = cycles;
    return elapsed;
}

std::int64_t
Calibrator::pass(int threads)
{
    std::vector<std::int64_t> elapsed(static_cast<std::size_t>(threads), 0);
    std::vector<std::thread> helpers;
    for (int t = 1; t < threads; ++t) {
        helpers.emplace_back([this, &elapsed, t] {
            elapsed[static_cast<std::size_t>(t)] = passOnThisThread();
        });
    }
    elapsed[0] = passOnThisThread();
    for (std::thread& helper : helpers)
        helper.join();
    std::int64_t total = 0;
    for (const std::int64_t ns : elapsed)
        total += ns;
    return total / threads;
}

void
samplePasses(Calibrator& calibrator, int count, std::vector<double>& into)
{
    for (int i = 0; i < count; ++i)
        into.push_back(static_cast<double>(calibrator.pass()));
}

IntervalLog::IntervalLog(Calibrator& calibrator, int threads)
    : calibrator_(calibrator), threads_(threads)
{
    passes_.push_back(static_cast<double>(calibrator_.pass(threads_)));
}

void
IntervalLog::add(std::int64_t raw_ns)
{
    raw_.push_back(static_cast<double>(raw_ns));
    passes_.push_back(static_cast<double>(calibrator_.pass(threads_)));
}

std::vector<double>
IntervalLog::normalizedMs() const
{
    std::vector<double> out;
    for (std::size_t i = 0; i < raw_.size(); ++i) {
        const double pass = (passes_[i] + passes_[i + 1]) / 2.0;
        out.push_back(raw_[i] * kReferencePassNs / pass * 1e-6);
    }
    return out;
}

std::vector<double>
IntervalLog::rawMs() const
{
    std::vector<double> out;
    for (const double ns : raw_)
        out.push_back(ns * 1e-6);
    return out;
}

}  // namespace perfbench
