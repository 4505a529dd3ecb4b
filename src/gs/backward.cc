#include "gs/backward.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "gs/row_kernels.hh"

namespace rtgs::gs
{

namespace
{

/**
 * Symmetric-storage gradient to full-matrix form. Our Sym2f gradients
 * store the off-diagonal as the sum over both matrix positions, so the
 * full-matrix gradient carries half in each.
 */
Mat2f
symGradToFull(const Sym2f &g)
{
    return {g.xx, Real(0.5) * g.xy, Real(0.5) * g.xy, g.yy};
}

/** One blended fragment recorded during the forward re-walk. */
struct FragRecord
{
    u32 slot;     //!< position within the tile's hot-splat stream
    Real alpha;
    Real gval;    //!< exp(power), the unclamped Gaussian falloff
    Vec2f d;      //!< pixel - mean2d
    Real tBefore; //!< transmittance before blending this fragment
    bool clamped; //!< alpha hit the saturation cap
};

} // namespace

void
Gradient2DBuffers::resize(size_t n)
{
    dMean2d.assign(n, {});
    dConic.assign(n, {});
    dColor.assign(n, {});
    dOpacityAct.assign(n, 0);
    dDepth.assign(n, 0);
}

void
Gradient2DBuffers::accumulateRange(const Gradient2DBuffers &other,
                                   size_t lo, size_t hi)
{
    for (size_t i = lo; i < hi; ++i) {
        dMean2d[i] += other.dMean2d[i];
        dConic[i] = dConic[i] + other.dConic[i];
        dColor[i] += other.dColor[i];
        dOpacityAct[i] += other.dOpacityAct[i];
        dDepth[i] += other.dDepth[i];
    }
}

void
Gradient2DBuffers::scaleRange(Real s, size_t lo, size_t hi)
{
    for (size_t i = lo; i < hi; ++i) {
        dMean2d[i] = dMean2d[i] * s;
        dConic[i] = dConic[i] * s;
        dColor[i] = dColor[i] * s;
        dOpacityAct[i] *= s;
        dDepth[i] *= s;
    }
}

void
backwardTile(u32 tile, const ProjectedCloud &projected,
             const TileBins &bins, const TileGrid &grid,
             const RenderSettings &settings, const RenderResult &result,
             const ImageRGB &dl_dcolor, const ImageF *dl_ddepth,
             Gradient2DBuffers &acc)
{
    u32 x0, y0, x1, y1;
    grid.tileBounds(tile, x0, y0, x1, y1);
    if (bins.count(tile) == 0)
        return; // no fragments, nothing to accumulate

    // Same contiguous hot-splat stream the forward rasteriser walks.
    const std::vector<HotSplat> &splats =
        gatherTileSplats(projected, bins, tile);
    const u32 *tile_ids = bins.tileData(tile);

    std::vector<FragRecord> frags;
    frags.reserve(64);

    for (u32 py = y0; py < y1; ++py) {
        for (u32 px = x0; px < x1; ++px) {
            Vec2f pixel{static_cast<Real>(px) + Real(0.5),
                        static_cast<Real>(py) + Real(0.5)};
            Vec3f dl_dc = dl_dcolor.at(px, py);
            Real dl_dd = dl_ddepth ? dl_ddepth->at(px, py) : Real(0);
            if (dl_dc.squaredNorm() == 0 && dl_dd == 0)
                continue;

            // Re-walk the forward pass, recording blended fragments.
            frags.clear();
            Real T = 1;
            for (u32 s = 0; s < static_cast<u32>(splats.size()); ++s) {
                const HotSplat &g = splats[s];
                Vec2f d{pixel.x - g.mx, pixel.y - g.my};
                Sym2f conic{g.cxx, g.cxy, g.cyy};
                Real power = Real(-0.5) * conic.quadForm(d);
                if (power > 0)
                    continue;
                // Below alphaMin for certain: never blended forward.
                if (power < g.powerSkip)
                    continue;
                Real gval = expExact(power);
                Real raw_alpha = g.opacity * gval;
                bool clamped = raw_alpha > settings.alphaMax;
                Real alpha = clamped ? settings.alphaMax : raw_alpha;
                if (alpha < settings.alphaMin)
                    continue;
                frags.push_back({s, alpha, gval, d, T, clamped});
                T *= 1 - alpha;
                if (T < settings.transmittanceEps)
                    break;
            }

            Real t_final = T;
            Real bg_dot = settings.background.dot(dl_dc);

            // Reverse compositing-order walk (Eq. 4): maintain the
            // rear-accumulated colour/depth E_j = sum_{n>j} c_n a_n T_n
            // normalised by T_{j+1}.
            Vec3f accum_color{};
            Real accum_depth = 0;
            Vec3f last_color{};
            Real last_depth = 0;
            Real last_alpha = 0;

            for (size_t j = frags.size(); j-- > 0;) {
                const FragRecord &f = frags[j];
                const HotSplat &g = splats[f.slot];
                const u32 gid = tile_ids[f.slot];
                const Vec3f g_color{g.r, g.g, g.b};
                Real t_before = f.tBefore;

                // Colour gradient: dC/dc_j = alpha_j * T_j.
                acc.dColor[gid] += dl_dc * (f.alpha * t_before);
                acc.dDepth[gid] += dl_dd * (f.alpha * t_before);

                // Alpha gradient (Eq. 4 plus the background term).
                accum_color = last_color * last_alpha +
                              accum_color * (1 - last_alpha);
                accum_depth = last_depth * last_alpha +
                              accum_depth * (1 - last_alpha);
                last_color = g_color;
                last_depth = g.depth;
                last_alpha = f.alpha;

                Real dl_dalpha =
                    (g_color - accum_color).dot(dl_dc) * t_before +
                    (g.depth - accum_depth) * dl_dd * t_before;
                dl_dalpha += (-t_final / (1 - f.alpha)) * bg_dot;

                if (f.clamped)
                    continue; // saturation: zero gradient through alpha

                // alpha = opacity * G, G = exp(power).
                acc.dOpacityAct[gid] += f.gval * dl_dalpha;
                Real dl_dpower = f.alpha * dl_dalpha;

                // power = -0.5 d^T conic d, d = pixel - mean2d.
                Mat2f conic_full{g.cxx, g.cxy, g.cxy, g.cyy};
                Vec2f cd = conic_full * f.d;
                acc.dMean2d[gid] += cd * dl_dpower;
                acc.dConic[gid] = acc.dConic[gid] +
                    Sym2f{Real(-0.5) * f.d.x * f.d.x * dl_dpower,
                          -f.d.x * f.d.y * dl_dpower,
                          Real(-0.5) * f.d.y * f.d.y * dl_dpower};
            }
            (void)result;
        }
    }
}

void
backwardTileSplatMajor(u32 tile, const ProjectedCloud &projected,
                       const TileBins &bins, const TileGrid &grid,
                       const RenderSettings &settings,
                       const RenderResult &result,
                       const ImageRGB &dl_dcolor, const ImageF *dl_ddepth,
                       SplatGradRecord *records)
{
    u32 x0, y0, x1, y1;
    grid.tileBounds(tile, x0, y0, x1, y1);
    const u32 lo = bins.offsets[tile];
    const u32 n_splats = bins.offsets[tile + 1] - lo;
    if (n_splats == 0)
        return; // no slots to fill, nothing to accumulate

    SplatGradRecord *recs = records + lo;

    // Seed the per-pixel walk state from the forward pass's terminal
    // state. `cap` is the tile-wide last-contributor bound: stream
    // positions >= cap were examined by no pixel, so the reverse walk
    // never has to visit them at all (the backward twin of forward
    // early termination); rowCe is the same bound per tile row. The
    // state is SoA — T (rear transmittance), acc (rear colour/depth
    // pre-dotted with the adjoints), bgT (finalT * background.dL/dC),
    // the four adjoints, and ce (forward nContrib; 0 marks a
    // zero-adjoint pixel) — padded by kTileStatePad like the forward's;
    // the per-pixel arithmetic of one splat lives in the splat kernel
    // (gs/row_kernels.hh).
    const u32 tw = x1 - x0, th = y1 - y0;
    const u32 n_px = tw * th;
    const size_t n_st = size_t(n_px) + kTileStatePad;
    static thread_local std::vector<Real> bw_T, bw_acc, bw_bgT;
    static thread_local std::vector<Real> bw_dlR, bw_dlG, bw_dlB, bw_dlD;
    static thread_local std::vector<u32> bw_ce;
    static thread_local std::vector<u32> row_ce;
    // The padding only has to hold initialised values: the AVX2 body
    // reads it in lanes it then masks out.
    bw_T.resize(n_st);
    bw_acc.resize(n_st);
    bw_bgT.resize(n_st);
    bw_dlR.resize(n_st);
    bw_dlG.resize(n_st);
    bw_dlB.resize(n_st);
    bw_dlD.resize(n_st);
    bw_ce.resize(n_st);
    row_ce.assign(th, 0);
    u32 cap = 0;
    for (u32 py = y0; py < y1; ++py) {
        u32 rce = 0;
        for (u32 px = x0; px < x1; ++px) {
            const size_t i = (py - y0) * tw + (px - x0);
            Vec3f dl_dc = dl_dcolor.at(px, py);
            Real dl_dd = dl_ddepth ? dl_ddepth->at(px, py) : Real(0);
            u32 contrib = result.nContrib.at(px, py);
            if (dl_dc.squaredNorm() == 0 && dl_dd == 0)
                contrib = 0; // zero adjoint: pixel contributes nothing
            Real t_final = result.finalT.at(px, py);
            bw_T[i] = t_final;
            bw_acc[i] = 0;
            bw_bgT[i] = t_final * settings.background.dot(dl_dc);
            bw_dlR[i] = dl_dc.x;
            bw_dlG[i] = dl_dc.y;
            bw_dlB[i] = dl_dc.z;
            bw_dlD[i] = dl_dd;
            bw_ce[i] = contrib;
            rce = std::max(rce, contrib);
        }
        row_ce[py - y0] = rce;
        cap = std::max(cap, rce);
    }
    if (cap < n_splats)
        std::fill(recs + cap, recs + n_splats, SplatGradRecord{});
    if (cap == 0)
        return;

    const std::vector<HotSplat> &splats =
        gatherTileSplats(projected, bins, tile);
    const BackwardTileState st{bw_T.data(),   bw_acc.data(), bw_bgT.data(),
                               bw_dlR.data(), bw_dlG.data(), bw_dlB.data(),
                               bw_dlD.data(), bw_ce.data()};

    const SplatKernels &kern = selectSplatKernels();
    const SplatKernelCtx ctx{settings.alphaMin, settings.alphaMax,
                             settings.transmittanceEps};

    for (u32 s = cap; s-- > 0;) {
        const HotSplat &g = splats[s];
        SplatFootprint fp{0, 0, 0, 0, x0, y0, tw, s};
        if (!cutoffEllipseBounds(g, x0, y0, x1, y1, fp.sx0, fp.sy0, fp.sx1,
                                 fp.sy1)) {
            recs[s] = SplatGradRecord{}; // below alphaMin everywhere
            continue;
        }

        // The whole splat's gradient lives in the kernel's accumulators
        // until its footprint is walked: one store per (tile, splat)
        // instead of one scatter per fragment. The mean/conic gradients
        // accumulate as raw moment sums of dl_dpower (s_x = sum dx dp,
        // s_xx = sum dx^2 dp, ...); the constant conic factors and the
        // -1/2 are applied once per splat when the record is written —
        // the distributed form of the reference's per-fragment
        // expressions, within this kernel's documented tolerance.
        const BackwardSplatAccum a = kern.backwardSplat(g, fp, ctx, st,
                                                        row_ce.data());
        recs[s] = SplatGradRecord{g.cxx * a.sX + g.cxy * a.sY,
                                  g.cxy * a.sX + g.cyy * a.sY,
                                  Real(-0.5) * a.sXX,
                                  -a.sXY,
                                  Real(-0.5) * a.sYY,
                                  a.dR,
                                  a.dG,
                                  a.dB,
                                  a.dOp,
                                  a.dDepth};
    }
}

void
gatherSplatGradients(const TileBins &bins,
                     const std::vector<SplatGradRecord> &records,
                     Gradient2DBuffers &out)
{
    rtgs_assert(records.size() == bins.indices.size());
    for (size_t i = 0; i < records.size(); ++i) {
        const SplatGradRecord &r = records[i];
        const u32 gid = bins.indices[i];
        out.dMean2d[gid] += Vec2f{r.dMeanX, r.dMeanY};
        out.dConic[gid] = out.dConic[gid] +
                          Sym2f{r.dConicXX, r.dConicXY, r.dConicYY};
        out.dColor[gid] += Vec3f{r.dColorR, r.dColorG, r.dColorB};
        out.dOpacityAct[gid] += r.dOpacityAct;
        out.dDepth[gid] += r.dDepth;
    }
}

void
preprocessBackwardOne(size_t k, const GaussianCloud &cloud,
                      const Camera &camera, const Gradient2DBuffers &g2d,
                      const ProjectedCloud &projected, CloudGrads &out,
                      Twist *pose_grad)
{
    const Projected2D &p = projected[k];
    if (!p.valid)
        return;

    const Mat3f &W = camera.pose.rot;
    const Intrinsics &intr = camera.intr;
    const Vec3f &t = p.camPoint;

    // --- conic -> blurred covariance -> raw covariance ----------------
    Mat2f dl_dconic = symGradToFull(g2d.dConic[k]);
    Mat2f conic_full = p.conic.toMat();
    // d(A^-1) rule: dL/dCov = -C^T dL/dconic C^T (C symmetric).
    Mat2f dl_dcov_full =
        (conic_full * dl_dconic * conic_full) * Real(-1);
    // Blur is additive, so dL/dcov2d passes through unchanged.

    // --- cov2d = T Sigma3 T^T with T = J W ----------------------------
    Mat3f Rq = cloud.rotations[k].toMat();
    Vec3f scale{std::exp(cloud.logScales[k].x),
                std::exp(cloud.logScales[k].y),
                std::exp(cloud.logScales[k].z)};
    Mat3f M = Rq * Mat3f::diagonal(scale);
    Mat3f sigma3 = M * M.transpose();

    bool clamp_x, clamp_y;
    Vec3f tc = clampedCamPoint(intr, t, clamp_x, clamp_y);
    Mat2x3f J = intr.projectJacobian(tc);
    Mat2x3f T2x3 = J * W;

    // dL/dSigma3 (full, symmetric): T^T G T.
    Mat3f dl_dsigma3;
    for (int i = 0; i < 3; ++i) {
        for (int j = 0; j < 3; ++j) {
            Real v = 0;
            for (int a = 0; a < 2; ++a)
                for (int b = 0; b < 2; ++b)
                    v += T2x3(a, i) * dl_dcov_full(a, b) * T2x3(b, j);
            dl_dsigma3(i, j) = v;
        }
    }
    out.covGradNorms[k] = std::sqrt(std::max(Real(0), [&] {
        Real s = 0;
        for (int i = 0; i < 3; ++i)
            for (int j = 0; j < 3; ++j)
                s += dl_dsigma3(i, j) * dl_dsigma3(i, j);
        return s;
    }()));

    // dL/dT (2x3) = 2 G T Sigma3.
    Mat2x3f dl_dT;
    {
        Mat2x3f TS = T2x3 * sigma3;
        for (int a = 0; a < 2; ++a)
            for (int i = 0; i < 3; ++i) {
                Real v = 0;
                for (int b = 0; b < 2; ++b)
                    v += 2 * dl_dcov_full(a, b) * TS(b, i);
                dl_dT(a, i) = v;
            }
    }

    // T = J W: dL/dJ = dL/dT W^T; dL/dW = J^T dL/dT.
    Mat2x3f dl_dJ;
    for (int a = 0; a < 2; ++a)
        for (int i = 0; i < 3; ++i) {
            Real v = 0;
            for (int j = 0; j < 3; ++j)
                v += dl_dT(a, j) * W(i, j); // W^T(j,i) = W(i,j)
            dl_dJ(a, i) = v;
        }
    Mat3f dl_dW;
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            dl_dW(i, j) = J(0, i) * dl_dT(0, j) + J(1, i) * dl_dT(1, j);

    // --- camera-point gradient dL/dt -----------------------------------
    // From the 2D mean (exact projection Jacobian at the true point):
    Vec3f dl_dt = intr.projectJacobian(t).transposeMult(g2d.dMean2d[k]);
    // From the depth render channel (depth = t.z):
    dl_dt.z += g2d.dDepth[k];
    // From J's dependence on the *clamped* point tc: first dL/dtc ...
    Real fx = intr.fx, fy = intr.fy;
    Real inv_z = Real(1) / tc.z;
    Real inv_z2 = inv_z * inv_z;
    Real inv_z3 = inv_z2 * inv_z;
    Vec3f dl_dtc{};
    dl_dtc.x = dl_dJ(0, 2) * (-fx * inv_z2);
    dl_dtc.y = dl_dJ(1, 2) * (-fy * inv_z2);
    dl_dtc.z = dl_dJ(0, 0) * (-fx * inv_z2) + dl_dJ(1, 1) * (-fy * inv_z2) +
               dl_dJ(0, 2) * (2 * fx * tc.x * inv_z3) +
               dl_dJ(1, 2) * (2 * fy * tc.y * inv_z3);
    // ... then through the clamp: tc.x = clamp(tx/tz)*tz. Unclamped it
    // passes straight through; clamped it depends only on tz.
    dl_dt.x += clamp_x ? Real(0) : dl_dtc.x;
    dl_dt.y += clamp_y ? Real(0) : dl_dtc.y;
    dl_dt.z += dl_dtc.z +
               (clamp_x ? dl_dtc.x * (tc.x * inv_z) : Real(0)) +
               (clamp_y ? dl_dtc.y * (tc.y * inv_z) : Real(0));

    // --- world position gradient ---------------------------------------
    Vec3f dl_dpos = W.transpose() * dl_dt;
    out.dPositions[k] += dl_dpos;

    // --- Sigma3 = M M^T, M = Rq * diag(scale) ---------------------------
    Mat3f dl_dM = (dl_dsigma3 + dl_dsigma3.transpose()) * M;
    // dL/dRq = dL/dM diag(scale); dL/dscale_i = column i of Rq^T dL/dM.
    Mat3f dl_dRq;
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            dl_dRq(i, j) = dl_dM(i, j) * scale[j];
    Vec3f dl_dscale;
    for (int j = 0; j < 3; ++j) {
        Real v = 0;
        for (int i = 0; i < 3; ++i)
            v += Rq(i, j) * dl_dM(i, j);
        dl_dscale[j] = v;
    }
    // scale = exp(logScale).
    out.dLogScales[k] += dl_dscale.cwiseProduct(scale);

    Quatf dq = rotationMatrixBackward(cloud.rotations[k], dl_dRq);
    out.dRotations[k].w += dq.w;
    out.dRotations[k].x += dq.x;
    out.dRotations[k].y += dq.y;
    out.dRotations[k].z += dq.z;

    // --- opacity logit ---------------------------------------------------
    Real o = p.opacity;
    out.dOpacityLogits[k] += g2d.dOpacityAct[k] * o * (1 - o);

    // --- SH colour (degree 0 with clamp mask) ---------------------------
    Vec3f dc = g2d.dColor[k].cwiseProduct(p.colorClampMask);
    out.dShCoeffs[k] += dc * shC0;

    // --- camera pose twist (tracking): left perturbation ----------------
    if (pose_grad) {
        // Through t: dt/drho = I, dt/dphi = -[t]x.
        pose_grad->rho += dl_dt;
        pose_grad->phi += t.cross(dl_dt);
        // Through W (covariance path): dW/dphi_a = skew(e_a) W.
        const Mat3f &G = dl_dW;
        Vec3f w0 = W.row(0), w1 = W.row(1), w2 = W.row(2);
        Vec3f g0 = G.row(0), g1 = G.row(1), g2 = G.row(2);
        pose_grad->phi.x += -g1.dot(w2) + g2.dot(w1);
        pose_grad->phi.y += g0.dot(w2) - g2.dot(w0);
        pose_grad->phi.z += -g0.dot(w1) + g1.dot(w0);
    }
}

BackwardResult
backwardFull(const GaussianCloud &cloud, const ProjectedCloud &projected,
             const TileBins &bins, const TileGrid &grid,
             const RenderSettings &settings, const RenderResult &result,
             const Camera &camera, const ImageRGB &dl_dcolor,
             const ImageF *dl_ddepth, bool compute_pose_grad)
{
    BackwardResult br;
    br.grad2d.resize(cloud.size());
    for (u32 t = 0; t < grid.tileCount(); ++t) {
        backwardTile(t, projected, bins, grid, settings, result,
                     dl_dcolor, dl_ddepth, br.grad2d);
    }

    br.grads.resize(cloud.size());
    Twist pose{};
    for (size_t k = 0; k < cloud.size(); ++k) {
        preprocessBackwardOne(k, cloud, camera, br.grad2d, projected,
                              br.grads, compute_pose_grad ? &pose : nullptr);
    }
    br.poseGrad = pose;
    return br;
}

} // namespace rtgs::gs
