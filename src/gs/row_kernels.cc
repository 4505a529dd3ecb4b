#include "gs/row_kernels.hh"

#include <algorithm>
#include <cstring>

namespace rtgs::gs
{

namespace
{

/**
 * Scalar forward twin. The AVX2 body and the serial reference run the
 * same operations and the same expExact, so all three give the same
 * bytes.
 */
u32
forwardSplatScalar(const HotSplat &g, const SplatFootprint &fp,
                   const SplatKernelCtx &ctx, const ForwardTileState &st)
{
    const Real cxx = g.cxx, cxy2 = Real(2) * g.cxy, cyy = g.cyy;
    const Real skip = g.powerSkip;
    const u32 n = fp.sx1 - fp.sx0;
    u32 newly_terminated = 0;
    for (u32 py = fp.sy0; py < fp.sy1; ++py) {
        const Real dy = (static_cast<Real>(py) + Real(0.5)) - g.my;
        const Real qy = cyy * dy * dy;
        const size_t off = size_t(py - fp.y0) * fp.tw + (fp.sx0 - fp.x0);
        Real *T = st.T + off;
        for (u32 i = 0; i < n; ++i) {
            const Real dx =
                (static_cast<Real>(fp.sx0 + i) + Real(0.5)) - g.mx;
            const Real power =
                Real(-0.5) * (cxx * dx * dx + cxy2 * dx * dy + qy);
            if (power > 0)
                continue;
            if (power < skip)
                continue;
            const Real t = T[i];
            if (t < ctx.tEps)
                continue; // terminated earlier in the stream
            const Real alpha =
                std::min(ctx.alphaMax, g.opacity * expExact(power));
            if (alpha < ctx.alphaMin)
                continue;

            const Real t_next = t * (1 - alpha);
            // Early termination preserves compositing order (Sec 2.1).
            const Real w = alpha * t;
            st.r[off + i] += g.r * w;
            st.g[off + i] += g.g * w;
            st.b[off + i] += g.b * w;
            st.d[off + i] += g.depth * w;
            ++st.blended[off + i];
            T[i] = t_next;
            if (t_next < ctx.tEps) {
                st.term[off + i] = fp.slot;
                ++newly_terminated;
            }
        }
    }
    return newly_terminated;
}

/** ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7)), the backward's fixed tree. */
Real
reduceLanes(const Real (&l)[8])
{
    return ((l[0] + l[1]) + (l[2] + l[3])) +
           ((l[4] + l[5]) + (l[6] + l[7]));
}

/**
 * Scalar backward twin. Each sum keeps 8 lane partial sums, lane
 * (px - sx0) mod 8, exactly as the AVX2 body's vector accumulators do,
 * and reduces them once per splat with the same tree.
 */
BackwardSplatAccum
backwardSplatScalar(const HotSplat &g, const SplatFootprint &fp,
                    const SplatKernelCtx &ctx, const BackwardTileState &st,
                    const u32 *row_ce)
{
    const Real cxx = g.cxx, cxy2 = Real(2) * g.cxy, cyy = g.cyy;
    const Real skip = g.powerSkip;
    const u32 n = fp.sx1 - fp.sx0;
    Real d_r[8] = {}, d_g[8] = {}, d_b[8] = {}, d_depth[8] = {};
    Real d_op[8] = {}, s_x[8] = {}, s_y[8] = {};
    Real s_xx[8] = {}, s_xy[8] = {}, s_yy[8] = {};

    for (u32 py = fp.sy0; py < fp.sy1; ++py) {
        if (fp.slot >= row_ce[py - fp.y0])
            continue; // every pixel of the row terminated earlier
        const Real dy = (static_cast<Real>(py) + Real(0.5)) - g.my;
        const Real qy = cyy * dy * dy;
        const size_t off = size_t(py - fp.y0) * fp.tw + (fp.sx0 - fp.x0);
        for (u32 i = 0; i < n; ++i) {
            const Real dx =
                (static_cast<Real>(fp.sx0 + i) + Real(0.5)) - g.mx;
            const Real power =
                Real(-0.5) * (cxx * dx * dx + cxy2 * dx * dy + qy);
            if (power > 0)
                continue;
            if (power < skip)
                continue;
            const size_t p = off + i;
            if (fp.slot >= st.ce[p])
                continue; // never examined forward at this pixel
            const Real gval = expExact(power);
            const Real raw_alpha = g.opacity * gval;
            const bool clamped = raw_alpha > ctx.alphaMax;
            const Real alpha = clamped ? ctx.alphaMax : raw_alpha;
            if (alpha < ctx.alphaMin)
                continue;

            // Recover the transmittance in front of this fragment from
            // the running rear value; the forward pass only stored the
            // final product.
            const Real om = 1 - alpha;
            const Real inv_om = Real(1) / om;
            const Real t_before = st.T[p] * inv_om;
            st.T[p] = t_before;

            // Colour gradient: dC/dc_j = alpha_j * T_j.
            const u32 k = i & 7u;
            const Real w = alpha * t_before;
            d_r[k] += st.dlR[p] * w;
            d_g[k] += st.dlG[p] * w;
            d_b[k] += st.dlB[p] * w;
            d_depth[k] += st.dlD[p] * w;

            // The splat's colour/depth dotted with the adjoints; feeds
            // both Eq. 4 and the rear accumulation.
            const Real gd = g.r * st.dlR[p] + g.g * st.dlG[p] +
                            g.b * st.dlB[p] + g.depth * st.dlD[p];
            const Real acc = st.acc[p];

            if (!clamped) {
                // Alpha gradient: Eq. 4 plus the background term.
                const Real dl_dalpha =
                    (gd - acc) * t_before - st.bgT[p] * inv_om;

                // alpha = opacity * G, G = exp(power).
                d_op[k] += gval * dl_dalpha;
                const Real dl_dpower = alpha * dl_dalpha;

                // power = -0.5 d^T conic d, d = pixel - mean2d.
                const Real mx = dx * dl_dpower;
                const Real my = dy * dl_dpower;
                s_x[k] += mx;
                s_y[k] += my;
                s_xx[k] += dx * mx;
                s_xy[k] += dx * my;
                s_yy[k] += dy * my;
            }

            // Rear accumulation now includes this fragment; the next
            // (front-er) fragment's Eq. 4 term reads it.
            st.acc[p] = gd * alpha + acc * om;
        }
    }

    BackwardSplatAccum out;
    out.dR = reduceLanes(d_r);
    out.dG = reduceLanes(d_g);
    out.dB = reduceLanes(d_b);
    out.dDepth = reduceLanes(d_depth);
    out.dOp = reduceLanes(d_op);
    out.sX = reduceLanes(s_x);
    out.sY = reduceLanes(s_y);
    out.sXX = reduceLanes(s_xx);
    out.sXY = reduceLanes(s_xy);
    out.sYY = reduceLanes(s_yy);
    return out;
}

void
expBatchScalar(const Real *x, Real *out, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        out[i] = expExact(x[i]);
}

const SplatKernels kScalar{forwardSplatScalar, backwardSplatScalar,
                          expBatchScalar, "scalar-exact"};

} // namespace

// det-lint: begin-allow(double-accum) — the exact exp is double on
// purpose: it widens ONE value, evaluates it and narrows back once,
// which raises precision rather than accumulating in double. The lint
// rule exists to stop float sums drifting through double accumulators;
// this function and its AVX2 twin are the sanctioned exception.
Real
expExact(Real x)
{
    // Clamp to where the float result is still 0 below and inf above,
    // so 2^n stays a normal double; NaN fails both tests and passes
    // through. The operand order matches the AVX2 max/min.
    x = Real(-104) > x ? Real(-104) : x;
    x = Real(89) < x ? Real(89) : x;
    const double xd = x;
    // n = round(x / ln 2) by the 1.5 * 2^52 shifter: the sum rounds to
    // an integer and its low mantissa bits hold n.
    const double t = xd * 1.4426950408889634074 + 6755399441055744.0;
    const double n = t - 6755399441055744.0;
    const double r = (xd - n * 6.93147180369123816490e-01) -
                     n * 1.90821492927058770002e-10;
    // Taylor to r^8 on [-ln2/2, ln2/2] (truncation ~2e-10 relative),
    // Estrin's split so the terms do not wait on each other.
    const double r2 = r * r;
    const double r4 = r2 * r2;
    const double p01 = 1.0 + r;
    const double p23 = (1.0 / 2) + (1.0 / 6) * r;
    const double p45 = (1.0 / 24) + (1.0 / 120) * r;
    const double p67 = (1.0 / 720) + (1.0 / 5040) * r;
    const double p03 = p01 + p23 * r2;
    const double p47 = p45 + p67 * r2;
    const double p = p03 + (p47 + (1.0 / 40320) * r4) * r4;
    // 2^n: (n + 1023) << 52, read from the shifter's low bits.
    u64 bits;
    std::memcpy(&bits, &t, sizeof bits);
    bits = (bits + 1023) << 52;
    double scale;
    std::memcpy(&scale, &bits, sizeof scale);
    return static_cast<Real>(p * scale);
}
// det-lint: end-allow(double-accum)

const SplatKernels &
selectSplatKernels(SimdLevel level)
{
    if (level >= SimdLevel::Avx2) {
        if (const SplatKernels *k = splatKernelsAvx2())
            return *k;
    }
    return kScalar;
}

} // namespace rtgs::gs
