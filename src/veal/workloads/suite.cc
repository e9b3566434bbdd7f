#include "veal/workloads/suite.h"

#include <cmath>
#include <memory>

#include "veal/arch/cpu_config.h"
#include "veal/arch/la_config.h"
#include "veal/ir/transforms.h"
#include "veal/support/assert.h"
#include "veal/support/logging.h"
#include "veal/vm/vm.h"
#include "veal/workloads/kernels.h"

namespace veal {

namespace {

/** Builder state for one benchmark's pair of applications. */
class BenchmarkBuilder {
  public:
    BenchmarkBuilder(LaConfig fission_target, std::string name,
                     bool media_or_fp, CategoryFractions fractions)
        : fission_target_(std::move(fission_target))
    {
        benchmark_.name = std::move(name);
        benchmark_.media_or_fp = media_or_fp;
        benchmark_.fractions = fractions;
        benchmark_.transformed.name = benchmark_.name;
        benchmark_.untransformed.name = benchmark_.name + ".plain";
    }

    /**
     * Add a loop site.  @p transformed is the statically optimised body;
     * @p untransformed the plain one (often the same).  Transformed loops
     * that exceed the fission target's stream budget are fissioned here
     * -- this *is* the static compiler's fission pass, and the target is
     * the LA the static compiler was told about (a builder parameter,
     * NOT a global: a fleet scores the same loop against several shapes,
     * so two builds with different targets must not share state).  Both
     * sites get an empty front-end slot tagged with the target's CCA
     * spec and latency model; the first run that needs it fills it.
     */
    void
    addSite(Loop transformed, Loop untransformed, std::int64_t invocations,
            std::int64_t iterations)
    {
        LoopSite t{.loop = std::move(transformed),
                   .fissioned = {},
                   .invocations = invocations,
                   .iterations = iterations,
                   .front_ends = emptySlot()};
        const LaConfig& target = fission_target_;
        FissionBudget budget;
        budget.max_load_streams = target.num_load_streams;
        budget.max_store_streams = target.num_store_streams;
        budget.max_int_ops = target.num_int_units * target.max_ii;
        // FP latencies are long; leave II slack so register pressure fits.
        budget.max_fp_ops = target.num_fp_units * (target.max_ii - 4);
        if (auto fission = fissionLoop(t.loop, budget)) {
            t.fissioned = std::move(fission->loops);
        }
        benchmark_.transformed.sites.push_back(std::move(t));

        LoopSite u{.loop = std::move(untransformed),
                   .fissioned = {},
                   .invocations = invocations,
                   .iterations = iterations,
                   .front_ends = emptySlot()};
        benchmark_.untransformed.sites.push_back(std::move(u));
    }

    /** Shorthand when both binaries contain the identical loop. */
    void
    addSameSite(const Loop& loop, std::int64_t invocations,
                std::int64_t iterations)
    {
        addSite(loop, loop, invocations, iterations);
    }

    /**
     * Add a loop whose untransformed form keeps helper calls that the
     * static compiler inlines away (the Figure 7 mechanism).
     */
    void
    addInlinedSite(Loop with_calls, std::int64_t invocations,
                   std::int64_t iterations)
    {
        Loop inlined = inlineCalls(with_calls, standardCalleeLibrary());
        addSite(std::move(inlined), std::move(with_calls), invocations,
                iterations);
    }

    /**
     * Price the transformed binary's CPU lanes once on the baseline
     * (Application::cpu_baseline), then calibrate invocation counts of
     * speculation/subroutine sites and the acyclic residue so
     * baseline-CPU time splits match Figure 2 targets.  Prices are per
     * invocation, so the calibration leaves the table valid.
     */
    Benchmark
    calibrate()
    {
        Application& app = benchmark_.transformed;
        app.cpu_baseline = priceCpuBaseline(app, CpuConfig::arm11());
        double time_modulo = 0.0;
        double time_spec = 0.0;
        double time_sub = 0.0;
        std::vector<double> site_time(app.sites.size());
        for (std::size_t s = 0; s < app.sites.size(); ++s) {
            const auto& site = app.sites[s];
            site_time[s] =
                static_cast<double>(app.cpu_baseline->sites[s].loop) *
                static_cast<double>(site.invocations);
            switch (site.loop.feature()) {
              case LoopFeature::kModuloSchedulable:
                time_modulo += site_time[s];
                break;
              case LoopFeature::kNeedsSpeculation:
                time_spec += site_time[s];
                break;
              case LoopFeature::kHasSubroutineCall:
                time_sub += site_time[s];
                break;
            }
        }
        VEAL_ASSERT(time_modulo > 0.0, "benchmark ", benchmark_.name,
                    " has no modulo-schedulable loop time");
        const auto& f = benchmark_.fractions;
        VEAL_ASSERT(f.modulo > 0.0);
        const double total = time_modulo / f.modulo;

        auto scale_category = [&](LoopFeature feature, double current,
                                  double target_time) {
            if (current <= 0.0)
                return;
            const double mult = target_time / current;
            for (auto& site : benchmark_.transformed.sites) {
                if (site.loop.feature() == feature) {
                    site.invocations = std::max<std::int64_t>(
                        1, static_cast<std::int64_t>(std::llround(
                               static_cast<double>(site.invocations) *
                               mult)));
                }
            }
        };
        scale_category(LoopFeature::kNeedsSpeculation, time_spec,
                       f.speculation * total);
        scale_category(LoopFeature::kHasSubroutineCall, time_sub,
                       f.subroutine * total);
        benchmark_.transformed.acyclic_cycles =
            static_cast<std::int64_t>(f.acyclic * total);

        // The untransformed binary shares the execution profile.
        for (std::size_t s = 0; s < benchmark_.transformed.sites.size();
             ++s) {
            benchmark_.untransformed.sites[s].invocations =
                benchmark_.transformed.sites[s].invocations;
        }
        benchmark_.untransformed.acyclic_cycles =
            benchmark_.transformed.acyclic_cycles;
        return std::move(benchmark_);
    }

  private:
    std::shared_ptr<const FrontEndSlot>
    emptySlot() const
    {
        return std::make_shared<const FrontEndSlot>(
            fission_target_.cca, fission_target_.latencies);
    }

    LaConfig fission_target_;
    Benchmark benchmark_;
};

Benchmark
makeRawcaudio(const LaConfig& fission_target)
{
    BenchmarkBuilder b(fission_target, "rawcaudio", true, {0.97, 0.0, 0.0, 0.03});
    // One critical loop: the paper notes its translation cost amortises
    // completely.
    b.addInlinedSite(makeAdpcmStepLoop("adpcm_code", true), 600, 1024);
    return b.calibrate();
}

Benchmark
makeRawdaudio(const LaConfig& fission_target)
{
    BenchmarkBuilder b(fission_target, "rawdaudio", true, {0.96, 0.0, 0.0, 0.04});
    b.addInlinedSite(makeAdpcmStepLoop("adpcm_decode", true), 600, 1024);
    return b.calibrate();
}

Benchmark
makeG721Enc(const LaConfig& fission_target)
{
    BenchmarkBuilder b(fission_target, "g721enc", true, {0.82, 0.03, 0.05, 0.10});
    b.addInlinedSite(makeG721PredictorLoop("predictor_update", true), 60,
                     512);
    b.addInlinedSite(makeQuantLoop("quan", true), 60, 256);
    b.addSameSite(makeSearchWhileLoop("quan_search"), 40, 128);
    b.addSameSite(makeMathCallLoop("log_lookup"), 20, 128);
    return b.calibrate();
}

Benchmark
makeG721Dec(const LaConfig& fission_target)
{
    BenchmarkBuilder b(fission_target, "g721dec", true, {0.80, 0.04, 0.05, 0.11});
    b.addInlinedSite(makeG721PredictorLoop("predictor_update_d", true), 60,
                     512);
    b.addSameSite(makeCopyScaleLoop("reconstruct"), 40, 1024);
    b.addSameSite(makeSearchWhileLoop("tandem_adjust"), 40, 128);
    b.addSameSite(makeMathCallLoop("alaw_expand"), 20, 128);
    return b.calibrate();
}

Benchmark
makeEpic(const LaConfig& fission_target)
{
    BenchmarkBuilder b(fission_target, "epic", true, {0.90, 0.02, 0.0, 0.08});
    b.addInlinedSite(makeWaveletLiftLoop("build_pyramid_h", true), 70,
                     1024);
    b.addInlinedSite(makeWaveletLiftLoop("build_pyramid_v", true), 70,
                     1024);
    b.addSameSite(makeFirLoop("internal_filter", 8), 40, 512);
    b.addSameSite(makeSearchWhileLoop("huffman_encode"), 30, 256);
    return b.calibrate();
}

Benchmark
makeUnepic(const LaConfig& fission_target)
{
    BenchmarkBuilder b(fission_target, "unepic", true, {0.86, 0.04, 0.0, 0.10});
    b.addInlinedSite(makeWaveletLiftLoop("collapse_pyramid", true), 80,
                     1024);
    b.addSameSite(makeCopyScaleLoop("unquantize"), 35, 2048);
    b.addSameSite(makeSearchWhileLoop("huffman_decode"), 40, 256);
    return b.calibrate();
}

Benchmark
makeCjpeg(const LaConfig& fission_target)
{
    BenchmarkBuilder b(fission_target, "cjpeg", true, {0.72, 0.06, 0.05, 0.17});
    // The transformed binary uses the tuned (unroll=1) DCT; the plain
    // binary's over-unrolled variant exceeds the LA's store streams.
    b.addSite(makeDct8Loop("fdct_row", 1), makeDct8Loop("fdct_row", 2),
              60, 256);
    b.addInlinedSite(makeQuantLoop("quantize", true), 60, 1024);
    b.addSameSite(makeCopyScaleLoop("downsample"), 25, 2048);
    b.addSameSite(makeSearchWhileLoop("encode_one_block"), 60, 128);
    b.addSameSite(makeMathCallLoop("jpeg_fdct_islow_aux"), 20, 128);
    return b.calibrate();
}

Benchmark
makeDjpeg(const LaConfig& fission_target)
{
    BenchmarkBuilder b(fission_target, "djpeg", true, {0.75, 0.05, 0.04, 0.16});
    b.addSite(makeDct8Loop("idct_row", 1), makeDct8Loop("idct_row", 2),
              60, 256);
    b.addInlinedSite(makeSadLoop("range_limit", true), 50, 256);
    b.addSameSite(makeCopyScaleLoop("upsample"), 30, 2048);
    b.addSameSite(makeSearchWhileLoop("decode_mcu"), 50, 128);
    b.addSameSite(makeMathCallLoop("ycc_rgb_aux"), 15, 128);
    return b.calibrate();
}

Benchmark
makeMpeg2Dec(const LaConfig& fission_target)
{
    BenchmarkBuilder b(fission_target, "mpeg2dec", true, {0.80, 0.05, 0.03, 0.12});
    // Several large distinct loops: per-loop translation cost is paid for
    // each, and their runtimes are short enough that a fully dynamic
    // translator forfeits most of the benefit (paper: 2.1 -> 1.15).
    b.addSite(makeDct8Loop("idct_col", 1), makeDct8Loop("idct_col", 2),
              10, 256);
    b.addSite(makeDct8Loop("idct_row2", 1), makeDct8Loop("idct_row2", 2),
              10, 256);
    b.addInlinedSite(makeQuantLoop("dequant_intra", true), 8, 1024);
    b.addInlinedSite(makeQuantLoop("dequant_inter", true), 8, 1024);
    b.addSameSite(makeFirLoop("mc_halfpel_h", 6), 7, 512);
    b.addSameSite(makeFirLoop("mc_halfpel_v", 6), 7, 512);
    b.addInlinedSite(makeSadLoop("saturate_block", true), 8, 256);
    b.addSameSite(makeSearchWhileLoop("get_macroblock"), 8, 256);
    b.addSameSite(makeMathCallLoop("store_ppm_aux"), 4, 128);
    return b.calibrate();
}

Benchmark
makeMpeg2Enc(const LaConfig& fission_target)
{
    BenchmarkBuilder b(fission_target, "mpeg2enc", true, {0.83, 0.05, 0.02, 0.10});
    b.addInlinedSite(makeSadLoop("dist1_00", true), 120, 256);
    b.addInlinedSite(makeSadLoop("dist1_11", true), 90, 256);
    b.addSite(makeDct8Loop("fdct_enc", 1), makeDct8Loop("fdct_enc", 2),
              35, 256);
    b.addInlinedSite(makeQuantLoop("quant_intra", true), 35, 1024);
    b.addSameSite(makeSearchWhileLoop("motion_search"), 80, 256);
    b.addSameSite(makeMathCallLoop("variance_aux"), 15, 128);
    return b.calibrate();
}

Benchmark
makePegwitEnc(const LaConfig& fission_target)
{
    BenchmarkBuilder b(fission_target, "pegwitenc", true, {0.70, 0.05, 0.05, 0.20});
    // Long mixing recurrences: many ordering/criticality steps, so the
    // swing priority phase explodes; runtimes are modest, so the fully
    // dynamic translator loses the whole benefit (paper Figure 10).
    b.addInlinedSite(makeShaMixLoop("sha_transform_a", 2, true), 26, 512);
    b.addInlinedSite(makeShaMixLoop("sha_transform_b", 2, true), 26, 512);
    b.addSameSite(makeViterbiAcsLoop("gf_mult"), 30, 256);
    b.addSameSite(makeSearchWhileLoop("squash_parse"), 30, 256);
    b.addSameSite(makeMathCallLoop("prng_aux"), 12, 128);
    return b.calibrate();
}

Benchmark
makePegwitDec(const LaConfig& fission_target)
{
    BenchmarkBuilder b(fission_target, "pegwitdec", true, {0.68, 0.06, 0.05, 0.21});
    b.addInlinedSite(makeShaMixLoop("sha_transform_d", 2, true), 22, 512);
    b.addSameSite(makeViterbiAcsLoop("gf_mult_d"), 26, 256);
    b.addSameSite(makeSearchWhileLoop("unsquash_parse"), 30, 256);
    b.addSameSite(makeMathCallLoop("prng_aux_d"), 12, 128);
    return b.calibrate();
}

Benchmark
makeSwim(const LaConfig& fission_target)
{
    BenchmarkBuilder b(fission_target, "171.swim", true, {0.95, 0.0, 0.01, 0.04});
    b.addSite(makeStencil5Loop("calc1"),
              makeStencilNLoop("calc1_unrolled", 20), 260, 1024);
    b.addSite(makeStencil5Loop("calc2"),
              makeStencilNLoop("calc2_unrolled", 20), 260, 1024);
    b.addSameSite(makeStencil5Loop("calc3"), 200, 1024);
    b.addSameSite(makeMathCallLoop("init_cond"), 6, 128);
    return b.calibrate();
}

Benchmark
makeMgrid(const LaConfig& fission_target)
{
    BenchmarkBuilder b(fission_target, "172.mgrid", true, {0.93, 0.0, 0.02, 0.05});
    // Very large stencils: > 16 load streams, so the static compiler must
    // fission them (addSite does), and their size makes the swing priority
    // extremely expensive -- fully dynamic translation forfeits the gain.
    b.addSameSite(makeStencilNLoop("resid", 20), 6, 512);
    b.addSameSite(makeStencilNLoop("psinv", 20), 6, 512);
    b.addSameSite(makeStencil5Loop("interp"), 10, 1024);
    b.addSameSite(makeMathCallLoop("norm2u3_aux"), 8, 128);
    return b.calibrate();
}

Benchmark
makeMesa(const LaConfig& fission_target)
{
    BenchmarkBuilder b(fission_target, "177.mesa", true, {0.62, 0.08, 0.08, 0.22});
    b.addSameSite(makeMatVecLoop("transform_points3", 3, 3), 80, 1024);
    b.addSameSite(makeCopyScaleLoop("gl_write_span"), 40, 2048);
    b.addSameSite(makeSearchWhileLoop("clip_polygon"), 60, 256);
    b.addSameSite(makeMathCallLoop("smooth_shade_aux"), 25, 128);
    return b.calibrate();
}

Benchmark
makeAlvinn(const LaConfig& fission_target)
{
    BenchmarkBuilder b(fission_target, "052.alvinn", true, {0.94, 0.0, 0.02, 0.04});
    b.addSameSite(makeDotProductLoop("input_hidden"), 350, 4096);
    b.addSameSite(makeDotProductLoop("hidden_output"), 280, 4096);
    b.addSameSite(makeMathCallLoop("sigmoid_aux"), 10, 128);
    return b.calibrate();
}

/** A control-heavy integer benchmark (right of Figure 2). */
Benchmark
makeIntegerBenchmark(const LaConfig& fission_target,
                     const std::string& name, CategoryFractions fractions)
{
    BenchmarkBuilder b(fission_target, name, false, fractions);
    b.addSameSite(makeCopyScaleLoop(name + "_memops"), 40, 512);
    b.addSameSite(makeSearchWhileLoop(name + "_scan"), 120, 256);
    b.addSameSite(makeMathCallLoop(name + "_lib"), 60, 128);
    return b.calibrate();
}

}  // namespace

std::vector<Benchmark>
mediaFpSuite()
{
    return mediaFpSuite(LaConfig::proposed());
}

std::vector<Benchmark>
mediaFpSuite(const LaConfig& fission_target)
{
    std::vector<Benchmark> suite;
    suite.push_back(makeRawcaudio(fission_target));
    suite.push_back(makeRawdaudio(fission_target));
    suite.push_back(makeG721Enc(fission_target));
    suite.push_back(makeG721Dec(fission_target));
    suite.push_back(makeEpic(fission_target));
    suite.push_back(makeUnepic(fission_target));
    suite.push_back(makeCjpeg(fission_target));
    suite.push_back(makeDjpeg(fission_target));
    suite.push_back(makeMpeg2Dec(fission_target));
    suite.push_back(makeMpeg2Enc(fission_target));
    suite.push_back(makePegwitEnc(fission_target));
    suite.push_back(makePegwitDec(fission_target));
    suite.push_back(makeSwim(fission_target));
    suite.push_back(makeMgrid(fission_target));
    suite.push_back(makeMesa(fission_target));
    suite.push_back(makeAlvinn(fission_target));
    return suite;
}

std::vector<Benchmark>
integerSuite()
{
    return integerSuite(LaConfig::proposed());
}

std::vector<Benchmark>
integerSuite(const LaConfig& fission_target)
{
    std::vector<Benchmark> suite;
    suite.push_back(makeIntegerBenchmark(fission_target, "099.go",
                                         {0.05, 0.22, 0.08, 0.65}));
    suite.push_back(makeIntegerBenchmark(fission_target, "126.gcc",
                                         {0.04, 0.18, 0.16, 0.62}));
    suite.push_back(makeIntegerBenchmark(fission_target, "130.li",
                                         {0.03, 0.24, 0.21, 0.52}));
    suite.push_back(makeIntegerBenchmark(fission_target, "134.perl",
                                         {0.05, 0.20, 0.18, 0.57}));
    suite.push_back(makeIntegerBenchmark(fission_target, "147.vortex",
                                         {0.06, 0.15, 0.19, 0.60}));
    suite.push_back(makeIntegerBenchmark(fission_target, "129.compress",
                                         {0.12, 0.42, 0.04, 0.42}));
    return suite;
}

Benchmark
findBenchmark(const std::string& name)
{
    for (auto& benchmark : mediaFpSuite()) {
        if (benchmark.name == name)
            return benchmark;
    }
    fatal("unknown benchmark: ", name);
}

}  // namespace veal
