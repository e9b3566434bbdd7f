#include "veal/workloads/kernels.h"

#include "veal/ir/loop_builder.h"

namespace veal {

CalleeLibrary
standardCalleeLibrary()
{
    CalleeLibrary library;
    // clip(x, lo, hi) -> min(max(x, lo), hi)
    library["clip"] = [](Loop& loop, const std::vector<Operand>& args) {
        const OpId lo = args.size() > 1
                            ? args[1].producer
                            : appendOp(loop, Opcode::kConst, {}, -32768);
        const Operand lo_use = args.size() > 1 ? args[1] : Operand{lo, 0};
        const OpId hi = args.size() > 2
                            ? args[2].producer
                            : appendOp(loop, Opcode::kConst, {}, 32767);
        const Operand hi_use = args.size() > 2 ? args[2] : Operand{hi, 0};
        const OpId low = appendOp(loop, Opcode::kMax, {args[0], lo_use});
        return appendOp(loop, Opcode::kMin, {Operand{low, 0}, hi_use});
    };
    // sat8(x): clamp to [0, 255]
    library["sat8"] = [](Loop& loop, const std::vector<Operand>& args) {
        const OpId zero = appendOp(loop, Opcode::kConst, {}, 0);
        const OpId cap = appendOp(loop, Opcode::kConst, {}, 255);
        const OpId low =
            appendOp(loop, Opcode::kMax, {args[0], Operand{zero, 0}});
        return appendOp(loop, Opcode::kMin,
                        {Operand{low, 0}, Operand{cap, 0}});
    };
    // iabs(x): max(x, 0 - x)
    library["iabs"] = [](Loop& loop, const std::vector<Operand>& args) {
        const OpId zero = appendOp(loop, Opcode::kConst, {}, 0);
        const OpId negated =
            appendOp(loop, Opcode::kSub, {Operand{zero, 0}, args[0]});
        return appendOp(loop, Opcode::kMax, {args[0], Operand{negated, 0}});
    };
    // rol5(x): (x << 5) | (x >> 27)
    library["rol5"] = [](Loop& loop, const std::vector<Operand>& args) {
        const OpId c5 = appendOp(loop, Opcode::kConst, {}, 5);
        const OpId c27 = appendOp(loop, Opcode::kConst, {}, 27);
        const OpId hi =
            appendOp(loop, Opcode::kShl, {args[0], Operand{c5, 0}});
        const OpId lo =
            appendOp(loop, Opcode::kShr, {args[0], Operand{c27, 0}});
        return appendOp(loop, Opcode::kOr,
                        {Operand{hi, 0}, Operand{lo, 0}});
    };
    // avg2(a, b): (a + b + 1) >> 1
    library["avg2"] = [](Loop& loop, const std::vector<Operand>& args) {
        const OpId one = appendOp(loop, Opcode::kConst, {}, 1);
        const OpId sum = appendOp(loop, Opcode::kAdd, {args[0], args[1]});
        const OpId rounded = appendOp(loop, Opcode::kAdd,
                                      {Operand{sum, 0}, Operand{one, 0}});
        return appendOp(loop, Opcode::kShr,
                        {Operand{rounded, 0}, Operand{one, 0}});
    };
    return library;
}

Loop
makeAdpcmStepLoop(const std::string& name, bool with_call)
{
    LoopBuilder b(name);
    b.setTripCount(1024);
    const OpId iv = b.induction(1);
    const OpId delta = b.load("in", iv);

    // step-size recurrence: step' = (step * m(delta)) >> 6, via shifts.
    const OpId c7 = b.constant(7);
    const OpId c2 = b.constant(2);
    const OpId c6 = b.constant(6);
    const OpId masked = b.andOp(delta, c7);
    const OpId weight = b.add(masked, c2);
    // step reads its own previous value (distance-1 recurrence).
    const OpId scaled = b.mul(LoopBuilder::carried(kNoOp, 0), weight);
    const OpId step = b.shr(scaled, c6);
    b.loop().mutableOp(scaled).inputs[0] = LoopBuilder::carried(step, 1);

    // difference decode: diff = (step >> 1) + select(bit, step, 0)
    const OpId c1 = b.constant(1);
    const OpId half = b.shr(step, c1);
    const OpId bit = b.andOp(delta, c1);
    const OpId zero = b.constant(0);
    const OpId extra = b.select(bit, step, zero);
    const OpId diff = b.add(half, extra);

    // valpred recurrence with saturation.
    const OpId sign = b.andOp(b.shr(delta, c2), c1);
    const OpId signed_diff = b.select(sign, b.sub(zero, diff), diff);
    const OpId valpred = b.add(LoopBuilder::carried(kNoOp, 0), signed_diff);
    OpId clamped;
    if (with_call) {
        clamped = b.call("clip", {Operand{valpred, 0}});
    } else {
        const OpId lo = b.constant(-32768);
        const OpId hi = b.constant(32767);
        clamped = b.minOp(b.maxOp(valpred, lo), hi);
    }
    b.loop().mutableOp(valpred).inputs[0] = LoopBuilder::carried(clamped, 1);

    b.store("out", iv, clamped);
    b.markLiveOut(clamped);
    b.loopBack(iv, b.constant(1024));
    return b.build();
}

Loop
makeG721PredictorLoop(const std::string& name, bool with_call)
{
    LoopBuilder b(name);
    b.setTripCount(512);
    const OpId iv = b.induction(1);
    const OpId sample = b.load("speech", iv);

    const OpId c1 = b.constant(1);
    const OpId c3 = b.constant(3);
    const OpId c5 = b.constant(5);

    // Two pole coefficients with leak: a' = a - (a >> 5) + f(err).
    OpId coeffs[2];
    OpId err = b.sub(sample, b.constant(128));
    for (int pole = 0; pole < 2; ++pole) {
        const OpId leak = b.shr(LoopBuilder::carried(kNoOp, 0), c5);
        const OpId sgn = b.shr(err, c3);
        const OpId delta = b.andOp(sgn, c3);
        const OpId leaked = b.sub(LoopBuilder::carried(kNoOp, 0), leak);
        const OpId updated = b.add(leaked, delta);
        b.loop().mutableOp(leak).inputs[0] =
            LoopBuilder::carried(updated, 1);
        b.loop().mutableOp(leaked).inputs[0] =
            LoopBuilder::carried(updated, 1);
        coeffs[pole] = updated;
        err = b.xorOp(err, updated);
    }

    // Reconstruction with saturation.
    const OpId mixed = b.add(coeffs[0], b.shr(coeffs[1], c1));
    OpId recon;
    if (with_call) {
        recon = b.call("clip", {Operand{mixed, 0}});
    } else {
        recon = b.minOp(b.maxOp(mixed, b.constant(-2048)),
                        b.constant(2047));
    }
    b.store("recon", iv, recon);
    b.loopBack(iv, b.constant(512));
    return b.build();
}

Loop
makeFirLoop(const std::string& name, int taps)
{
    LoopBuilder b(name);
    b.setTripCount(2048);
    const OpId iv = b.induction(1);
    OpId acc = kNoOp;
    for (int t = 0; t < taps; ++t) {
        const OpId offset = b.constant(t);
        const OpId addr = b.add(iv, offset);
        const OpId x = b.load("x", addr);
        const OpId coeff = b.liveIn("c" + std::to_string(t));
        const OpId prod = b.mul(x, coeff);
        acc = acc == kNoOp ? prod : b.add(acc, prod);
    }
    b.store("y", iv, acc);
    b.loopBack(iv, b.constant(2048));
    return b.build();
}

Loop
makeDotProductLoop(const std::string& name)
{
    LoopBuilder b(name);
    b.setTripCount(4096);
    const OpId iv = b.induction(1);
    const OpId a = b.load("a", iv);
    const OpId c = b.load("b", iv);
    const OpId prod = b.mul(a, c);
    const OpId acc = b.add(prod, LoopBuilder::carried(kNoOp, 0));
    b.loop().mutableOp(acc).inputs[1] = LoopBuilder::carried(acc, 1);
    b.markLiveOut(acc);
    b.loopBack(iv, b.constant(4096));
    return b.build();
}

Loop
makeWaveletLiftLoop(const std::string& name, bool with_call)
{
    LoopBuilder b(name);
    b.setTripCount(1024);
    const OpId iv = b.induction(1);
    const OpId c1 = b.constant(1);
    const OpId c2 = b.constant(2);

    const OpId s0 = b.load("s", iv);
    const OpId s1 = b.load("s", b.add(iv, c1));
    const OpId d0 = b.load("d", iv);

    // Predict: d' = d - avg(s0, s1)
    OpId average;
    if (with_call) {
        average = b.call("avg2", {Operand{s0, 0}, Operand{s1, 0}});
    } else {
        average = b.shr(b.add(s0, s1), c1);
    }
    const OpId predict = b.sub(d0, average);
    // Update: s' = s0 + ((d'[i-1] + d'[i]) >> 2): carried use of predict.
    const OpId dsum =
        b.add(LoopBuilder::carried(predict, 1), Operand{predict, 0});
    const OpId update = b.add(s0, b.shr(dsum, c2));

    b.store("dout", iv, predict);
    b.store("sout", iv, update);
    b.loopBack(iv, b.constant(1024));
    return b.build();
}

Loop
makeDct8Loop(const std::string& name, int unroll)
{
    LoopBuilder b(name);
    b.setTripCount(256);
    const OpId iv = b.induction(1);
    const OpId c3 = b.constant(3);
    const OpId row = b.shl(iv, c3);  // row base = iv * 8

    for (int u = 0; u < unroll; ++u) {
        OpId x[8];
        for (int k = 0; k < 8; ++k) {
            const OpId offset = b.constant(k + 8 * u * 256);
            x[k] = b.load("block", b.add(row, offset));
        }
        // Butterfly stage 1.
        OpId s[8];
        for (int k = 0; k < 4; ++k) {
            s[k] = b.add(x[k], x[7 - k]);
            s[4 + k] = b.sub(x[k], x[7 - k]);
        }
        // Stage 2 with constant multiplies (fixed-point coefficients).
        const OpId w1 = b.constant(2217);
        const OpId w2 = b.constant(5352);
        OpId t[8];
        t[0] = b.add(s[0], s[3]);
        t[1] = b.add(s[1], s[2]);
        t[2] = b.sub(s[1], s[2]);
        t[3] = b.sub(s[0], s[3]);
        t[4] = b.mul(s[4], w1);
        t[5] = b.mul(s[5], w2);
        t[6] = b.mul(s[6], w1);
        t[7] = b.mul(s[7], w2);
        // Stage 3: outputs.
        const OpId c11 = b.constant(11);
        OpId out[8];
        out[0] = b.add(t[0], t[1]);
        out[1] = b.sub(t[0], t[1]);
        out[2] = b.add(t[2], t[3]);
        out[3] = b.sub(t[3], t[2]);
        out[4] = b.shr(b.add(t[4], t[5]), c11);
        out[5] = b.shr(b.sub(t[4], t[5]), c11);
        out[6] = b.shr(b.add(t[6], t[7]), c11);
        out[7] = b.shr(b.sub(t[6], t[7]), c11);
        for (int k = 0; k < 8; ++k) {
            const OpId offset = b.constant(k + 8 * u * 256);
            b.store("coef", b.add(row, offset), out[k]);
        }
    }
    b.loopBack(iv, b.constant(256));
    return b.build();
}

Loop
makeSadLoop(const std::string& name, bool with_call)
{
    LoopBuilder b(name);
    b.setTripCount(256);
    const OpId iv = b.induction(1);
    const OpId ref = b.load("ref", iv);
    const OpId cur = b.load("cur", iv);
    const OpId diff = b.sub(cur, ref);
    OpId magnitude;
    if (with_call) {
        magnitude = b.call("iabs", {Operand{diff, 0}});
    } else {
        magnitude = b.absOp(diff);
    }
    const OpId acc = b.add(magnitude, LoopBuilder::carried(kNoOp, 0));
    b.loop().mutableOp(acc).inputs[1] = LoopBuilder::carried(acc, 1);
    b.markLiveOut(acc);
    b.loopBack(iv, b.constant(256));
    return b.build();
}

Loop
makeQuantLoop(const std::string& name, bool with_call)
{
    LoopBuilder b(name);
    b.setTripCount(1024);
    const OpId iv = b.induction(1);
    const OpId x = b.load("coef", iv);
    const OpId scale = b.liveIn("qscale");
    const OpId rounding = b.liveIn("round");
    const OpId shift = b.constant(16);
    const OpId scaled = b.mul(x, scale);
    const OpId rounded = b.add(scaled, rounding);
    const OpId q = b.shr(rounded, shift);
    OpId clipped;
    if (with_call) {
        clipped = b.call("sat8", {Operand{q, 0}});
    } else {
        clipped = b.minOp(b.maxOp(q, b.constant(0)), b.constant(255));
    }
    b.store("qcoef", iv, clipped);
    b.loopBack(iv, b.constant(1024));
    return b.build();
}

Loop
makeShaMixLoop(const std::string& name, int rounds, bool with_call)
{
    LoopBuilder b(name);
    b.setTripCount(512);
    const OpId iv = b.induction(1);
    const OpId c5 = b.constant(5);
    const OpId c27 = b.constant(27);

    // State word `a` carries across iterations through `rounds` rounds of
    // rotate + nonlinear mixing: one long recurrence chain.
    const OpId w = b.load("msg", iv);
    OpId a = kNoOp;
    OpId first_hi = kNoOp;
    OpId first_lo = kNoOp;
    for (int r = 0; r < rounds; ++r) {
        const Operand prev =
            a == kNoOp ? LoopBuilder::carried(kNoOp, 0) : Operand{a, 0};
        OpId rot;
        OpId hi = kNoOp;
        OpId lo = kNoOp;
        if (with_call) {
            rot = b.call("rol5", {prev});
            if (a == kNoOp)
                first_hi = rot;
        } else {
            hi = b.shl(prev, c5);
            lo = b.shr(prev, c27);
            if (a == kNoOp) {
                first_hi = hi;
                first_lo = lo;
            }
            rot = b.orOp(hi, lo);
        }
        const OpId mixed = b.xorOp(rot, w);
        const OpId keyed = b.add(mixed, b.constant(0x5a827999 + r));
        a = b.andOp(keyed, b.constant(0x7fffffff));
    }
    // Close the recurrence: round 0 reads the *final* state of the
    // previous iteration, so the whole round chain is one dependence
    // cycle (RecMII grows with the number of rounds).
    b.loop().mutableOp(first_hi).inputs[0] = LoopBuilder::carried(a, 1);
    if (first_lo != kNoOp) {
        b.loop().mutableOp(first_lo).inputs[0] =
            LoopBuilder::carried(a, 1);
    }
    b.store("digest", iv, a);
    b.loopBack(iv, b.constant(512));
    return b.build();
}

Loop
makeStencil5Loop(const std::string& name)
{
    LoopBuilder b(name);
    b.setTripCount(1024);
    const OpId iv = b.induction(1);
    const OpId c1 = b.constant(1);
    const OpId cn = b.constant(128);  // row pitch

    const OpId center = b.load("u", iv);
    const OpId west = b.load("u", b.sub(iv, c1));
    const OpId east = b.load("u", b.add(iv, c1));
    const OpId north = b.load("u", b.sub(iv, cn));
    const OpId south = b.load("u", b.add(iv, cn));

    const OpId wc = b.liveIn("wc");
    const OpId wn = b.liveIn("wn");
    const OpId sum_ew = b.fadd(west, east);
    const OpId sum_ns = b.fadd(north, south);
    const OpId weighted =
        b.fadd(b.fmul(center, wc), b.fmul(b.fadd(sum_ew, sum_ns), wn));
    b.store("unew", iv, weighted);
    b.loopBack(iv, b.constant(1024));
    return b.build();
}

Loop
makeStencilNLoop(const std::string& name, int points)
{
    LoopBuilder b(name);
    b.setTripCount(512);
    const OpId iv = b.induction(1);
    const OpId w0 = b.liveIn("c0");
    const OpId w1 = b.liveIn("c1");

    OpId acc = kNoOp;
    for (int p = 0; p < points; ++p) {
        // Distinct neighbour offsets; each is its own memory stream.
        const OpId offset = b.constant((p % 2 == 0 ? 1 : -1) *
                                       ((p / 2) * 64 + p));
        const OpId v = b.load("r", b.add(iv, offset));
        const OpId weighted = b.fmul(v, p % 2 == 0 ? w0 : w1);
        acc = acc == kNoOp ? weighted : b.fadd(acc, weighted);
    }
    b.store("z", iv, acc);
    b.loopBack(iv, b.constant(512));
    return b.build();
}

Loop
makeMatVecLoop(const std::string& name, int rows, int cols)
{
    LoopBuilder b(name);
    b.setTripCount(1024);
    const OpId iv = b.induction(1);
    const OpId c2 = b.constant(2);
    const OpId base = b.shl(iv, c2);  // one vertex per iteration

    std::vector<OpId> x(static_cast<std::size_t>(cols));
    for (int k = 0; k < cols; ++k) {
        const OpId offset = b.constant(k);
        x[static_cast<std::size_t>(k)] =
            b.load("vin", b.add(base, offset));
    }
    for (int row = 0; row < rows; ++row) {
        OpId acc = kNoOp;
        for (int col = 0; col < cols; ++col) {
            const OpId m = b.liveIn("m" + std::to_string(row) +
                                    std::to_string(col));
            const OpId prod =
                b.fmul(x[static_cast<std::size_t>(col)], m);
            acc = acc == kNoOp ? prod : b.fadd(acc, prod);
        }
        const OpId offset = b.constant(row);
        b.store("vout", b.add(base, offset), acc);
    }
    b.loopBack(iv, b.constant(1024));
    return b.build();
}

Loop
makeViterbiAcsLoop(const std::string& name)
{
    LoopBuilder b(name);
    b.setTripCount(256);
    const OpId iv = b.induction(1);
    const OpId bm0 = b.load("branch0", iv);
    const OpId bm1 = b.load("branch1", iv);

    // Two path metrics, each a distance-1 recurrence through add+min.
    OpId survivors[2];
    for (int s = 0; s < 2; ++s) {
        const OpId cand0 = b.add(LoopBuilder::carried(kNoOp, 0),
                                 s == 0 ? bm0 : bm1);
        const OpId cand1 = b.add(LoopBuilder::carried(kNoOp, 0),
                                 s == 0 ? bm1 : bm0);
        const OpId best = b.minOp(cand0, cand1);
        b.loop().mutableOp(cand0).inputs[0] = LoopBuilder::carried(best, 1);
        b.loop().mutableOp(cand1).inputs[0] = LoopBuilder::carried(best, 1);
        survivors[s] = best;
    }
    const OpId decision = b.cmp(survivors[0], survivors[1]);
    b.store("path", iv, decision);
    b.loopBack(iv, b.constant(256));
    return b.build();
}

Loop
makeCopyScaleLoop(const std::string& name)
{
    LoopBuilder b(name);
    b.setTripCount(4096);
    const OpId iv = b.induction(1);
    const OpId x = b.load("src", iv);
    const OpId scale = b.liveIn("k");
    const OpId c7 = b.constant(7);
    const OpId scaled = b.shr(b.mul(x, scale), c7);
    b.store("dst", iv, scaled);
    b.loopBack(iv, b.constant(4096));
    return b.build();
}

Loop
makeSearchWhileLoop(const std::string& name)
{
    LoopBuilder b(name);
    b.setTripCount(512);
    b.markNeedsSpeculation();  // Data-dependent exit: needs speculation.
    const OpId iv = b.induction(1);
    const OpId x = b.load("hay", iv);
    const OpId needle = b.liveIn("needle");
    const OpId hit = b.cmp(x, needle);
    const OpId acc = b.orOp(hit, LoopBuilder::carried(kNoOp, 0));
    b.loop().mutableOp(acc).inputs[1] = LoopBuilder::carried(acc, 1);
    b.markLiveOut(acc);
    b.loopBack(iv, b.constant(512));
    return b.build();
}

Loop
makeMathCallLoop(const std::string& name)
{
    LoopBuilder b(name);
    b.setTripCount(256);
    const OpId iv = b.induction(1);
    const OpId x = b.load("angles", iv);
    // Non-inlinable library call: the compiler cannot see `sin`.
    const OpId s = b.call("sin", {Operand{x, 0}});
    b.store("sines", iv, s);
    b.loopBack(iv, b.constant(256));
    return b.build();
}

}  // namespace veal
