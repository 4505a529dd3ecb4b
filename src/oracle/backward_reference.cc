#include "oracle/backward_reference.hh"

#include <vector>

#include "gs/row_kernels.hh"

namespace rtgs::gs
{

namespace
{

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
                bool clamped = raw_alpha > kAlphaMax;
                Real alpha = clamped ? kAlphaMax : raw_alpha;
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
