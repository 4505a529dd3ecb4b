/**
 * @file
 * 8-wide AVX2 bodies of the splat kernels, plus expExact8, the AVX2
 * twin of expExact (two 4-wide double halves running the scalar
 * function's IEEE operations, so the two give the same bytes).
 *
 * Lane k of step j is pixel sx0 + 8j + k of the row. Every per-lane
 * operation is the scalar twin's (gs/row_kernels.cc), in the same
 * order, with no FMA: the library pins -ffp-contract=off, and this TU
 * adds -mavx2 alone, so a fused intrinsic fails to compile here unless
 * the global flags enable FMA. Lanes that fail a test keep their state
 * through a blend and add +0 to the gradient sums (the products are
 * masked, so NaN or inf in a rejected lane never leaks), which is why
 * the body gives the scalar twin's bytes.
 *
 * This is the only TU compiled with -mavx2 (set per-file in
 * CMakeLists.txt); when the toolchain can't do that, the whole body
 * compiles away and splatKernelsAvx2() returns nullptr, so the
 * dispatcher falls back to scalar.
 */

#include "gs/row_kernels.hh"

#if defined(__AVX2__)

#include <immintrin.h>

namespace rtgs::gs
{

namespace
{

static_assert(sizeof(Real) == 4, "AVX2 kernels assume float Real");

/** Popcount of a lane mask (number of set lanes). */
inline u32
laneCount(__m256 mask)
{
    return static_cast<u32>(
        __builtin_popcount(static_cast<unsigned>(_mm256_movemask_ps(mask))));
}

// det-lint: begin-allow(double-accum) — the AVX2 twin of expExact:
// double on purpose, it widens one value per lane, evaluates it and
// narrows back once; nothing accumulates in double.
/** expExact's operations on 4 clamped doubles. */
inline __m256d
expExact4(__m256d x)
{
    const __m256d shifter = _mm256_set1_pd(6755399441055744.0);
    const __m256d t = _mm256_add_pd(
        _mm256_mul_pd(x, _mm256_set1_pd(1.4426950408889634074)), shifter);
    const __m256d n = _mm256_sub_pd(t, shifter);
    const __m256d r = _mm256_sub_pd(
        _mm256_sub_pd(x, _mm256_mul_pd(
                             n, _mm256_set1_pd(6.93147180369123816490e-01))),
        _mm256_mul_pd(n, _mm256_set1_pd(1.90821492927058770002e-10)));

    const __m256d r2 = _mm256_mul_pd(r, r);
    const __m256d r4 = _mm256_mul_pd(r2, r2);
    const __m256d p01 = _mm256_add_pd(_mm256_set1_pd(1.0), r);
    const __m256d p23 = _mm256_add_pd(
        _mm256_set1_pd(1.0 / 2), _mm256_mul_pd(_mm256_set1_pd(1.0 / 6), r));
    const __m256d p45 =
        _mm256_add_pd(_mm256_set1_pd(1.0 / 24),
                      _mm256_mul_pd(_mm256_set1_pd(1.0 / 120), r));
    const __m256d p67 =
        _mm256_add_pd(_mm256_set1_pd(1.0 / 720),
                      _mm256_mul_pd(_mm256_set1_pd(1.0 / 5040), r));
    const __m256d p03 = _mm256_add_pd(p01, _mm256_mul_pd(p23, r2));
    const __m256d p47 = _mm256_add_pd(p45, _mm256_mul_pd(p67, r2));
    const __m256d p = _mm256_add_pd(
        p03,
        _mm256_mul_pd(
            _mm256_add_pd(p47,
                          _mm256_mul_pd(_mm256_set1_pd(1.0 / 40320), r4)),
            r4));

    const __m256i pow2 = _mm256_slli_epi64(
        _mm256_add_epi64(_mm256_castpd_si256(t), _mm256_set1_epi64x(1023)),
        52);
    return _mm256_mul_pd(p, _mm256_castsi256_pd(pow2));
}

/** expExact on 8 floats: the same clamp, two double halves. */
inline __m256
expExact8(__m256 x)
{
    // max/min return their second operand when either is NaN, the
    // scalar ternaries' behaviour.
    x = _mm256_max_ps(_mm256_set1_ps(-104.0f), x);
    x = _mm256_min_ps(_mm256_set1_ps(89.0f), x);
    const __m128 lo = _mm256_cvtpd_ps(
        expExact4(_mm256_cvtps_pd(_mm256_castps256_ps128(x))));
    const __m128 hi = _mm256_cvtpd_ps(
        expExact4(_mm256_cvtps_pd(_mm256_extractf128_ps(x, 1))));
    return _mm256_set_m128(hi, lo);
}
// det-lint: end-allow(double-accum)

/** Lane iota 0..7 as floats. */
inline __m256
iota8()
{
    return _mm256_setr_ps(0, 1, 2, 3, 4, 5, 6, 7);
}

/** Broadcast constants and per-lane power shared by both kernels. */
struct SplatLanes
{
    __m256 mx, cxx, cxy2, skip, half, negHalf, zero, pxFirst, pxEnd;

    explicit SplatLanes(const HotSplat &g, const SplatFootprint &fp)
        : mx(_mm256_set1_ps(g.mx)), cxx(_mm256_set1_ps(g.cxx)),
          cxy2(_mm256_set1_ps(Real(2) * g.cxy)),
          skip(_mm256_set1_ps(g.powerSkip)), half(_mm256_set1_ps(0.5f)),
          negHalf(_mm256_set1_ps(-0.5f)), zero(_mm256_setzero_ps()),
          pxFirst(_mm256_add_ps(
              _mm256_set1_ps(static_cast<Real>(fp.sx0)), iota8())),
          pxEnd(_mm256_set1_ps(static_cast<Real>(fp.sx1)))
    {
    }

    /** dx = (px + 0.5) - mx for the lanes' pixel x (exact below 2^23). */
    __m256
    dx(__m256 pxf) const
    {
        return _mm256_sub_ps(_mm256_add_ps(pxf, half), mx);
    }

    /** power = -0.5 (((cxx dx) dx + ((2 cxy) dx) dy) + (cyy dy) dy). */
    __m256
    power(__m256 dx, __m256 dy, __m256 qy) const
    {
        const __m256 q = _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(cxx, dx), dx),
                          _mm256_mul_ps(_mm256_mul_ps(cxy2, dx), dy)),
            qy);
        return _mm256_mul_ps(negHalf, q);
    }

    /** Lanes inside the footprint with !(power > 0) && !(power < skip). */
    __m256
    live(__m256 pxf, __m256 power) const
    {
        return _mm256_and_ps(
            _mm256_cmp_ps(pxf, pxEnd, _CMP_LT_OQ),
            _mm256_and_ps(_mm256_cmp_ps(power, zero, _CMP_NGT_UQ),
                          _mm256_cmp_ps(power, skip, _CMP_NLT_UQ)));
    }
};

/** Old value on lanes outside `mask`, new value inside. */
inline void
storeBlend(Real *p, __m256 old_v, __m256 new_v, __m256 mask)
{
    _mm256_storeu_ps(p, _mm256_blendv_ps(old_v, new_v, mask));
}

u32
forwardSplatAvx2(const HotSplat &g, const SplatFootprint &fp,
                 const SplatKernelCtx &ctx, const ForwardTileState &st)
{
    const SplatLanes L(g, fp);
    const __m256 opacity = _mm256_set1_ps(g.opacity);
    const __m256 alpha_min = _mm256_set1_ps(ctx.alphaMin);
    const __m256 alpha_max = _mm256_set1_ps(ctx.alphaMax);
    const __m256 t_eps = _mm256_set1_ps(ctx.tEps);
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 eight = _mm256_set1_ps(8.0f);
    const __m256 col_r = _mm256_set1_ps(g.r);
    const __m256 col_g = _mm256_set1_ps(g.g);
    const __m256 col_b = _mm256_set1_ps(g.b);
    const __m256 col_d = _mm256_set1_ps(g.depth);
    const __m256i vslot = _mm256_set1_epi32(static_cast<i32>(fp.slot));
    const u32 n = fp.sx1 - fp.sx0;

    u32 newly_terminated = 0;
    for (u32 py = fp.sy0; py < fp.sy1; ++py) {
        const Real dy_s = (static_cast<Real>(py) + Real(0.5)) - g.my;
        const __m256 dy = _mm256_set1_ps(dy_s);
        const __m256 qy = _mm256_set1_ps(g.cyy * dy_s * dy_s);
        const size_t row = size_t(py - fp.y0) * fp.tw + (fp.sx0 - fp.x0);
        __m256 pxf = L.pxFirst;
        for (u32 i = 0; i < n; i += 8, pxf = _mm256_add_ps(pxf, eight)) {
            const __m256 power = L.power(L.dx(pxf), dy, qy);
            __m256 blend = L.live(pxf, power);
            if (_mm256_testz_ps(blend, blend))
                continue;

            const size_t p = row + i;
            const __m256 T = _mm256_loadu_ps(st.T + p);
            blend = _mm256_and_ps(blend,
                                  _mm256_cmp_ps(T, t_eps, _CMP_NLT_UQ));
            // std::min(alphaMax, v) is (v < alphaMax) ? v : alphaMax.
            const __m256 alpha = _mm256_min_ps(
                _mm256_mul_ps(opacity, expExact8(power)), alpha_max);
            blend = _mm256_and_ps(
                blend, _mm256_cmp_ps(alpha, alpha_min, _CMP_NLT_UQ));
            if (_mm256_testz_ps(blend, blend))
                continue;

            const __m256 t_next = _mm256_mul_ps(T, _mm256_sub_ps(one, alpha));
            const __m256 w = _mm256_mul_ps(alpha, T);
            const __m256 r = _mm256_loadu_ps(st.r + p);
            const __m256 gc = _mm256_loadu_ps(st.g + p);
            const __m256 b = _mm256_loadu_ps(st.b + p);
            const __m256 d = _mm256_loadu_ps(st.d + p);
            storeBlend(st.r + p, r,
                       _mm256_add_ps(r, _mm256_mul_ps(col_r, w)), blend);
            storeBlend(st.g + p, gc,
                       _mm256_add_ps(gc, _mm256_mul_ps(col_g, w)), blend);
            storeBlend(st.b + p, b,
                       _mm256_add_ps(b, _mm256_mul_ps(col_b, w)), blend);
            storeBlend(st.d + p, d,
                       _mm256_add_ps(d, _mm256_mul_ps(col_d, w)), blend);
            storeBlend(st.T + p, T, t_next, blend);

            // blended += 1 on blend lanes (the mask is -1 there).
            __m256i *bl = reinterpret_cast<__m256i *>(st.blended + p);
            _mm256_storeu_si256(
                bl, _mm256_sub_epi32(_mm256_loadu_si256(bl),
                                     _mm256_castps_si256(blend)));

            // Newly terminated: blended this step and fell below t_eps.
            const __m256 term = _mm256_and_ps(
                blend, _mm256_cmp_ps(t_next, t_eps, _CMP_LT_OQ));
            if (!_mm256_testz_ps(term, term)) {
                _mm256_maskstore_epi32(
                    reinterpret_cast<i32 *>(st.term + p),
                    _mm256_castps_si256(term), vslot);
                newly_terminated += laneCount(term);
            }
        }
    }
    return newly_terminated;
}

/**
 * Tree-reduce four accumulators at once: lane i of the result is
 * ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7)) of the i-th argument.
 */
inline __m128
reduce4(__m256 a, __m256 b, __m256 c, __m256 d)
{
    const __m256 pairs =
        _mm256_hadd_ps(_mm256_hadd_ps(a, b), _mm256_hadd_ps(c, d));
    return _mm_add_ps(_mm256_castps256_ps128(pairs),
                      _mm256_extractf128_ps(pairs, 1));
}

/** acc + (v on mask lanes, +0 elsewhere). */
inline __m256
addMasked(__m256 acc, __m256 v, __m256 mask)
{
    return _mm256_add_ps(acc, _mm256_and_ps(v, mask));
}

BackwardSplatAccum
backwardSplatAvx2(const HotSplat &g, const SplatFootprint &fp,
                  const SplatKernelCtx &ctx, const BackwardTileState &st,
                  const u32 *row_ce)
{
    const SplatLanes L(g, fp);
    const __m256 opacity = _mm256_set1_ps(g.opacity);
    const __m256 alpha_min = _mm256_set1_ps(ctx.alphaMin);
    const __m256 alpha_max = _mm256_set1_ps(ctx.alphaMax);
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 eight = _mm256_set1_ps(8.0f);
    const __m256 col_r = _mm256_set1_ps(g.r);
    const __m256 col_g = _mm256_set1_ps(g.g);
    const __m256 col_b = _mm256_set1_ps(g.b);
    const __m256 col_d = _mm256_set1_ps(g.depth);
    const __m256i vslot = _mm256_set1_epi32(static_cast<i32>(fp.slot));
    const u32 n = fp.sx1 - fp.sx0;

    const __m256 zero = L.zero;
    __m256 a_r = zero, a_g = zero, a_b = zero, a_d = zero, a_op = zero;
    __m256 a_sx = zero, a_sy = zero;
    __m256 a_sxx = zero, a_sxy = zero, a_syy = zero;

    for (u32 py = fp.sy0; py < fp.sy1; ++py) {
        if (fp.slot >= row_ce[py - fp.y0])
            continue; // every pixel of the row terminated earlier
        const Real dy_s = (static_cast<Real>(py) + Real(0.5)) - g.my;
        const __m256 dy = _mm256_set1_ps(dy_s);
        const __m256 qy = _mm256_set1_ps(g.cyy * dy_s * dy_s);
        const size_t row = size_t(py - fp.y0) * fp.tw + (fp.sx0 - fp.x0);
        __m256 pxf = L.pxFirst;
        for (u32 i = 0; i < n; i += 8, pxf = _mm256_add_ps(pxf, eight)) {
            const __m256 dx = L.dx(pxf);
            const __m256 power = L.power(dx, dy, qy);
            __m256 blend = L.live(pxf, power);
            if (_mm256_testz_ps(blend, blend))
                continue;

            // This splat was examined forward only where slot < ce.
            const size_t p = row + i;
            const __m256i ce = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(st.ce + p));
            blend = _mm256_and_ps(
                blend, _mm256_castsi256_ps(_mm256_cmpgt_epi32(ce, vslot)));
            if (_mm256_testz_ps(blend, blend))
                continue;

            const __m256 gval = expExact8(power);
            const __m256 raw_alpha = _mm256_mul_ps(opacity, gval);
            const __m256 clamped =
                _mm256_cmp_ps(raw_alpha, alpha_max, _CMP_GT_OQ);
            const __m256 alpha =
                _mm256_blendv_ps(raw_alpha, alpha_max, clamped);
            blend = _mm256_and_ps(
                blend, _mm256_cmp_ps(alpha, alpha_min, _CMP_NLT_UQ));
            if (_mm256_testz_ps(blend, blend))
                continue;

            const __m256 om = _mm256_sub_ps(one, alpha);
            const __m256 inv_om = _mm256_div_ps(one, om);
            const __m256 T = _mm256_loadu_ps(st.T + p);
            const __m256 t_before = _mm256_mul_ps(T, inv_om);
            storeBlend(st.T + p, T, t_before, blend);

            const __m256 dlR = _mm256_loadu_ps(st.dlR + p);
            const __m256 dlG = _mm256_loadu_ps(st.dlG + p);
            const __m256 dlB = _mm256_loadu_ps(st.dlB + p);
            const __m256 dlD = _mm256_loadu_ps(st.dlD + p);
            const __m256 w = _mm256_mul_ps(alpha, t_before);
            a_r = addMasked(a_r, _mm256_mul_ps(dlR, w), blend);
            a_g = addMasked(a_g, _mm256_mul_ps(dlG, w), blend);
            a_b = addMasked(a_b, _mm256_mul_ps(dlB, w), blend);
            a_d = addMasked(a_d, _mm256_mul_ps(dlD, w), blend);

            const __m256 gd = _mm256_add_ps(
                _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(col_r, dlR),
                                            _mm256_mul_ps(col_g, dlG)),
                              _mm256_mul_ps(col_b, dlB)),
                _mm256_mul_ps(col_d, dlD));
            const __m256 acc = _mm256_loadu_ps(st.acc + p);

            // Alpha gradient (Eq. 4 plus the background term), only
            // where alpha did not saturate.
            const __m256 grad = _mm256_andnot_ps(clamped, blend);
            const __m256 dl_dalpha = _mm256_sub_ps(
                _mm256_mul_ps(_mm256_sub_ps(gd, acc), t_before),
                _mm256_mul_ps(_mm256_loadu_ps(st.bgT + p), inv_om));
            a_op = addMasked(a_op, _mm256_mul_ps(gval, dl_dalpha), grad);
            const __m256 dl_dpower = _mm256_mul_ps(alpha, dl_dalpha);
            const __m256 mx = _mm256_mul_ps(dx, dl_dpower);
            const __m256 my = _mm256_mul_ps(dy, dl_dpower);
            a_sx = addMasked(a_sx, mx, grad);
            a_sy = addMasked(a_sy, my, grad);
            a_sxx = addMasked(a_sxx, _mm256_mul_ps(dx, mx), grad);
            a_sxy = addMasked(a_sxy, _mm256_mul_ps(dx, my), grad);
            a_syy = addMasked(a_syy, _mm256_mul_ps(dy, my), grad);

            storeBlend(st.acc + p, acc,
                       _mm256_add_ps(_mm256_mul_ps(gd, alpha),
                                     _mm256_mul_ps(acc, om)),
                       blend);
        }
    }

    alignas(16) Real s[12];
    _mm_store_ps(s, reduce4(a_r, a_g, a_b, a_d));
    _mm_store_ps(s + 4, reduce4(a_op, a_sx, a_sy, a_sxx));
    _mm_store_ps(s + 8, reduce4(a_sxy, a_syy, zero, zero));
    BackwardSplatAccum out;
    out.dR = s[0];
    out.dG = s[1];
    out.dB = s[2];
    out.dDepth = s[3];
    out.dOp = s[4];
    out.sX = s[5];
    out.sY = s[6];
    out.sXX = s[7];
    out.sXY = s[8];
    out.sYY = s[9];
    return out;
}

void
expBatchAvx2(const Real *x, Real *out, size_t n)
{
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(out + i, expExact8(_mm256_loadu_ps(x + i)));
    if (i < n) {
        Real buf_in[8] = {};
        Real buf_out[8];
        for (size_t j = i; j < n; ++j)
            buf_in[j - i] = x[j];
        _mm256_storeu_ps(buf_out, expExact8(_mm256_loadu_ps(buf_in)));
        for (size_t j = i; j < n; ++j)
            out[j] = buf_out[j - i];
    }
}

const SplatKernels kAvx2{forwardSplatAvx2, backwardSplatAvx2, expBatchAvx2,
                        "avx2-exact"};

} // namespace

const SplatKernels *
splatKernelsAvx2()
{
    return &kAvx2;
}

} // namespace rtgs::gs

#else // !__AVX2__

namespace rtgs::gs
{

const SplatKernels *
splatKernelsAvx2()
{
    return nullptr; // toolchain built this TU without AVX2 support
}

} // namespace rtgs::gs

#endif
