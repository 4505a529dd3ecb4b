/**
 * @file
 * The one source of the splat kernels' per-pixel arithmetic: the
 * forward blend, the backward gradient walk and the double core of the
 * exact exp, written once as templates over a lane type L.
 *
 * Two TUs include this file, each inside its own anonymous namespace,
 * so every instantiation has internal linkage and the linker can never
 * hand the -mavx2 copy to a scalar caller:
 *  - gs/row_kernels.cc with ScalarLanes, one pixel per step, so every
 *    `none` test below is a per-pixel early-out;
 *  - gs/row_kernels_avx2.cc with Avx2Lanes, lane k of step j being
 *    pixel sx0 + 8j + k of the row.
 * The file includes nothing; its includer provides gs/row_kernels.hh.
 *
 * L supplies the types F (float lanes), Mask, Acc (8 lane partial sums,
 * lane (px - sx0) mod 8) and Wide (the exp core's double lanes T, with
 * pow2 and throughDouble), the step width kWidth and the operations
 * used below. ScalarLanes spells out their per-lane semantics and
 * Avx2Lanes matches them bit for bit, with no FMA: min(a, b) is
 * a < b ? a : b, ngt/nlt are the unordered !(a > b) and !(a < b), a
 * lane outside the mask adds +0 to a partial sum, and reduce folds each
 * sum's partials as ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7)).
 */

#ifndef RTGS_GS_ROW_KERNELS_BODY_HH
#define RTGS_GS_ROW_KERNELS_BODY_HH

// det-lint: begin-allow(double-accum) — the exact exp widens ONE value
// per lane to double and narrows it back once, which raises precision
// rather than accumulating in double; with the lane types' Wide lanes
// it is the rule's sanctioned exception.
/**
 * expExact's core on clamped, widened lanes: n = round(x / ln 2) by the
 * 1.5 * 2^52 shifter (the sum rounds to an integer and its low mantissa
 * bits hold n), a hi/lo split of ln 2, Taylor to r^8 on [-ln2/2, ln2/2]
 * (truncation ~2e-10 relative) in Estrin's split so the terms do not
 * wait on each other, and 2^n through the exponent bits.
 */
template <typename W>
inline typename W::T
expCore(typename W::T x)
{
    // T is double or a GCC vector of doubles (__m256d), whose operators
    // act lane by lane and broadcast a scalar operand.
    using T = typename W::T;
    const T t = x * 1.4426950408889634074 + 6755399441055744.0;
    const T n = t - 6755399441055744.0;
    const T r = (x - n * 6.93147180369123816490e-01) -
                n * 1.90821492927058770002e-10;
    const T r2 = r * r;
    const T r4 = r2 * r2;
    const T p01 = 1.0 + r;
    const T p23 = (1.0 / 2) + (1.0 / 6) * r;
    const T p45 = (1.0 / 24) + (1.0 / 120) * r;
    const T p67 = (1.0 / 720) + (1.0 / 5040) * r;
    const T p03 = p01 + p23 * r2;
    const T p47 = p45 + p67 * r2;
    const T p = p03 + (p47 + (1.0 / 40320) * r4) * r4;
    return p * W::pow2(t);
}
// det-lint: end-allow(double-accum)

/**
 * expExact on float lanes. The clamp keeps 2^n a normal double where
 * the float result is still 0 below and inf above; NaN fails both
 * compares and passes through.
 */
template <typename L>
inline typename L::F
expLanes(typename L::F x)
{
    using W = typename L::Wide;
    x = L::max(L::splat(Real(-104)), x);
    x = L::min(L::splat(Real(89)), x);
    return W::throughDouble(
        x, [](typename W::T xd) { return expCore<W>(xd); });
}

/** The kernels' exp over a batch; a tail runs as one zero-padded step. */
template <typename L>
void
expBatch(const Real *x, Real *out, size_t n)
{
    size_t i = 0;
    for (; i + L::kWidth <= n; i += L::kWidth)
        L::store(out + i, expLanes<L>(L::load(x + i)));
    if (i < n) {
        Real in[L::kWidth] = {};
        Real res[L::kWidth];
        for (size_t j = i; j < n; ++j)
            in[j - i] = x[j];
        L::store(res, expLanes<L>(L::load(in)));
        for (size_t j = i; j < n; ++j)
            out[j] = res[j - i];
    }
}

/** Broadcast constants and the per-lane power shared by both kernels. */
template <typename L>
struct SplatConsts
{
    using F = typename L::F;
    F mx, cxx, cxy2, skip, half, negHalf, zero, one, step, pxFirst, pxEnd;
    F opacity, alphaMin, alphaMax, colR, colG, colB, colD;

    SplatConsts(const HotSplat &g, const SplatFootprint &fp,
                const SplatKernelCtx &ctx)
        : mx(L::splat(g.mx)), cxx(L::splat(g.cxx)),
          cxy2(L::splat(Real(2) * g.cxy)), skip(L::splat(g.powerSkip)),
          half(L::splat(Real(0.5))), negHalf(L::splat(Real(-0.5))),
          zero(L::splat(Real(0))), one(L::splat(Real(1))),
          step(L::splat(static_cast<Real>(L::kWidth))),
          pxFirst(L::iota(static_cast<Real>(fp.sx0))),
          pxEnd(L::splat(static_cast<Real>(fp.sx1))),
          opacity(L::splat(g.opacity)), alphaMin(L::splat(ctx.alphaMin)),
          alphaMax(L::splat(ctx.alphaMax)), colR(L::splat(g.r)),
          colG(L::splat(g.g)), colB(L::splat(g.b)), colD(L::splat(g.depth))
    {
    }

    /** dx = (px + 0.5) - mx for the lanes' pixel x (exact below 2^23). */
    F
    dx(F pxf) const
    {
        return L::sub(L::add(pxf, half), mx);
    }

    /** power = -0.5 (((cxx dx) dx + ((2 cxy) dx) dy) + (cyy dy) dy). */
    F
    power(F dx, F dy, F qy) const
    {
        const F q = L::add(L::add(L::mul(L::mul(cxx, dx), dx),
                                  L::mul(L::mul(cxy2, dx), dy)),
                           qy);
        return L::mul(negHalf, q);
    }

    /** Lanes inside the footprint with !(power > 0) && !(power < skip). */
    typename L::Mask
    live(F pxf, F power) const
    {
        return L::both(L::inRow(pxf, pxEnd),
                       L::both(L::ngt(power, zero), L::nlt(power, skip)));
    }
};

/** *p += v on the lanes of m; the others store back what they loaded. */
template <typename L>
inline void
addOnLanes(Real *p, typename L::F v, typename L::Mask m)
{
    const typename L::F old = L::load(p);
    L::store(p, L::blend(old, L::add(old, v), m));
}

/** ForwardSplatFn: blend splat g into every pixel of its footprint. */
template <typename L>
u32
forwardSplat(const HotSplat &g, const SplatFootprint &fp,
             const SplatKernelCtx &ctx, const ForwardTileState &st)
{
    using F = typename L::F;
    using Mask = typename L::Mask;
    const SplatConsts<L> c(g, fp, ctx);
    const F t_eps = L::splat(ctx.tEps);
    const u32 n = fp.sx1 - fp.sx0;

    u32 newly_terminated = 0;
    for (u32 py = fp.sy0; py < fp.sy1; ++py) {
        const Real dy_s = (static_cast<Real>(py) + Real(0.5)) - g.my;
        const F dy = L::splat(dy_s);
        const F qy = L::splat(g.cyy * dy_s * dy_s);
        const size_t row = size_t(py - fp.y0) * fp.tw + (fp.sx0 - fp.x0);
        F pxf = c.pxFirst;
        for (u32 i = 0; i < n; i += L::kWidth, pxf = L::add(pxf, c.step)) {
            const F power = c.power(c.dx(pxf), dy, qy);
            Mask blend = c.live(pxf, power);
            if (L::none(blend))
                continue;

            // Pixels with T < tEps terminated earlier in the stream.
            const size_t p = row + i;
            const F T = L::load(st.T + p);
            blend = L::both(blend, L::nlt(T, t_eps));
            const F alpha =
                L::min(L::mul(c.opacity, expLanes<L>(power)), c.alphaMax);
            blend = L::both(blend, L::nlt(alpha, c.alphaMin));
            if (L::none(blend))
                continue;

            // Early termination preserves compositing order (Sec 2.1).
            const F t_next = L::mul(T, L::sub(c.one, alpha));
            const F w = L::mul(alpha, T);
            addOnLanes<L>(st.r + p, L::mul(c.colR, w), blend);
            addOnLanes<L>(st.g + p, L::mul(c.colG, w), blend);
            addOnLanes<L>(st.b + p, L::mul(c.colB, w), blend);
            addOnLanes<L>(st.d + p, L::mul(c.colD, w), blend);
            L::store(st.T + p, L::blend(T, t_next, blend));
            L::bump(st.blended + p, blend);

            // Newly terminated: blended this step and fell below tEps.
            const Mask term = L::both(blend, L::lt(t_next, t_eps));
            if (!L::none(term)) {
                L::put(st.term + p, term, fp.slot);
                newly_terminated += L::count(term);
            }
        }
    }
    return newly_terminated;
}

/**
 * BackwardSplatFn: accumulate splat g's gradient over its footprint,
 * rewinding the tile's rear state.
 */
template <typename L>
BackwardSplatAccum
backwardSplat(const HotSplat &g, const SplatFootprint &fp,
              const SplatKernelCtx &ctx, const BackwardTileState &st,
              const u32 *row_ce)
{
    using F = typename L::F;
    using Mask = typename L::Mask;
    const SplatConsts<L> c(g, fp, ctx);
    const u32 n = fp.sx1 - fp.sx0;

    using Acc = typename L::Acc;
    Acc a_r{}, a_g{}, a_b{}, a_d{}, a_op{};
    Acc a_sx{}, a_sy{}, a_sxx{}, a_sxy{}, a_syy{};

    for (u32 py = fp.sy0; py < fp.sy1; ++py) {
        if (fp.slot >= row_ce[py - fp.y0])
            continue; // every pixel of the row terminated earlier
        const Real dy_s = (static_cast<Real>(py) + Real(0.5)) - g.my;
        const F dy = L::splat(dy_s);
        const F qy = L::splat(g.cyy * dy_s * dy_s);
        const size_t row = size_t(py - fp.y0) * fp.tw + (fp.sx0 - fp.x0);
        F pxf = c.pxFirst;
        for (u32 i = 0; i < n; i += L::kWidth, pxf = L::add(pxf, c.step)) {
            const F dx = c.dx(pxf);
            const F power = c.power(dx, dy, qy);
            Mask blend = c.live(pxf, power);
            if (L::none(blend))
                continue;

            // This splat was examined forward only where slot < ce.
            const size_t p = row + i;
            blend = L::both(blend, L::above(st.ce + p, fp.slot));
            if (L::none(blend))
                continue;

            const F gval = expLanes<L>(power);
            const F raw_alpha = L::mul(c.opacity, gval);
            const Mask clamped = L::gt(raw_alpha, c.alphaMax);
            const F alpha = L::blend(raw_alpha, c.alphaMax, clamped);
            blend = L::both(blend, L::nlt(alpha, c.alphaMin));
            if (L::none(blend))
                continue;

            // Recover the transmittance in front of this fragment from
            // the running rear value; the forward pass only stored the
            // final product.
            const F om = L::sub(c.one, alpha);
            const F inv_om = L::div(c.one, om);
            const F T = L::load(st.T + p);
            const F t_before = L::mul(T, inv_om);
            L::store(st.T + p, L::blend(T, t_before, blend));

            // Colour gradient: dC/dc_j = alpha_j * T_j.
            const F dlR = L::load(st.dlR + p);
            const F dlG = L::load(st.dlG + p);
            const F dlB = L::load(st.dlB + p);
            const F dlD = L::load(st.dlD + p);
            const F w = L::mul(alpha, t_before);
            L::accumulate(a_r, i, L::mul(dlR, w), blend);
            L::accumulate(a_g, i, L::mul(dlG, w), blend);
            L::accumulate(a_b, i, L::mul(dlB, w), blend);
            L::accumulate(a_d, i, L::mul(dlD, w), blend);

            // The splat's colour/depth dotted with the adjoints; feeds
            // both Eq. 4 and the rear accumulation.
            const F gd = L::add(
                L::add(L::add(L::mul(c.colR, dlR), L::mul(c.colG, dlG)),
                       L::mul(c.colB, dlB)),
                L::mul(c.colD, dlD));
            const F acc = L::load(st.acc + p);

            // Alpha gradient (Eq. 4 plus the background term), only
            // where alpha did not saturate; alpha = opacity * G with
            // G = exp(power), and power = -0.5 d^T conic d for
            // d = pixel - mean2d.
            const Mask grad = L::andNot(clamped, blend);
            const F dl_dalpha =
                L::sub(L::mul(L::sub(gd, acc), t_before),
                       L::mul(L::load(st.bgT + p), inv_om));
            L::accumulate(a_op, i, L::mul(gval, dl_dalpha), grad);
            const F dl_dpower = L::mul(alpha, dl_dalpha);
            const F mx = L::mul(dx, dl_dpower);
            const F my = L::mul(dy, dl_dpower);
            L::accumulate(a_sx, i, mx, grad);
            L::accumulate(a_sy, i, my, grad);
            L::accumulate(a_sxx, i, L::mul(dx, mx), grad);
            L::accumulate(a_sxy, i, L::mul(dx, my), grad);
            L::accumulate(a_syy, i, L::mul(dy, my), grad);

            // Rear accumulation now includes this fragment; the next
            // (front-er) fragment's Eq. 4 term reads it.
            L::store(st.acc + p,
                     L::blend(acc, L::add(L::mul(gd, alpha), L::mul(acc, om)),
                              blend));
        }
    }

    // Reduced in BackwardSplatAccum's member order.
    Real s[12];
    L::reduce(s, a_r, a_g, a_b, a_d);
    L::reduce(s + 4, a_op, a_sx, a_sy, a_sxx);
    L::reduce(s + 8, a_sxy, a_syy, Acc{}, Acc{});
    return {s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9]};
}

#endif // RTGS_GS_ROW_KERNELS_BODY_HH
