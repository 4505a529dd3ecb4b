#include "gs/rasterizer.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "gs/row_kernels.hh"

namespace rtgs::gs
{

u64
RenderResult::totalFragments() const
{
    u64 n = 0;
    for (size_t i = 0; i < nContrib.pixelCount(); ++i)
        n += nContrib[i];
    return n;
}

u64
RenderResult::totalBlended() const
{
    u64 n = 0;
    for (size_t i = 0; i < nBlended.pixelCount(); ++i)
        n += nBlended[i];
    return n;
}

RenderResult
makeRenderResult(const TileGrid &grid)
{
    RenderResult r;
    r.image = ImageRGB(grid.width, grid.height);
    r.depth = ImageF(grid.width, grid.height);
    r.alpha = ImageF(grid.width, grid.height);
    r.finalT = ImageF(grid.width, grid.height, Real(1));
    r.nContrib = Image<u32>(grid.width, grid.height);
    r.nBlended = Image<u32>(grid.width, grid.height);
    return r;
}

const std::vector<HotSplat> &
gatherTileSplats(const ProjectedCloud &projected, const TileBins &bins,
                 u32 tile)
{
    static thread_local std::vector<HotSplat> scratch;
    u32 lo = bins.offsets[tile], hi = bins.offsets[tile + 1];
    scratch.resize(hi - lo);
    for (u32 i = lo; i < hi; ++i) {
        const Projected2D &p = projected.items[bins.indices[i]];
        HotSplat &h = scratch[i - lo];
        h.mx = p.mean2d.x;
        h.my = p.mean2d.y;
        h.cxx = p.conic.xx;
        h.cxy = p.conic.xy;
        h.cyy = p.conic.yy;
        h.powerSkip = p.powerSkip;
        h.opacity = p.opacity;
        h.r = p.color.x;
        h.g = p.color.y;
        h.b = p.color.z;
        h.depth = p.depth;
    }
    return scratch;
}

void
rasterizeTile(u32 tile, const ProjectedCloud &projected,
              const TileBins &bins, const TileGrid &grid,
              const RenderSettings &settings, RenderResult &result)
{
    u32 x0, y0, x1, y1;
    grid.tileBounds(tile, x0, y0, x1, y1);

    // Empty bin: the tile is pure background; skip the per-pixel loop.
    if (bins.count(tile) == 0) {
        for (u32 py = y0; py < y1; ++py) {
            for (u32 px = x0; px < x1; ++px) {
                result.image.at(px, py) = settings.background;
                result.depth.at(px, py) = 0;
                result.alpha.at(px, py) = 0;
                result.finalT.at(px, py) = 1;
                result.nContrib.at(px, py) = 0;
                result.nBlended.at(px, py) = 0;
            }
        }
        return;
    }

    const std::vector<HotSplat> &splats =
        gatherTileSplats(projected, bins, tile);
    const u32 n_splats = static_cast<u32>(splats.size());
    const Real alpha_min = settings.alphaMin;
    const Real alpha_max = kAlphaMax;
    const Real t_eps = settings.transmittanceEps;

    // Splat-major traversal with per-pixel compositing state. Walking
    // the depth-ordered stream once and touching only the pixels inside
    // each splat's sub-alphaMin cutoff ellipse skips the fragments the
    // pixel-major loop rejects one by one; blend order per pixel (and
    // hence the image) is unchanged. The state is SoA (~8 KB for a
    // 16x16 tile, comfortably L1-resident, padded by kTileStatePad for
    // the AVX2 body's whole-step loads) and the per-pixel arithmetic of
    // one splat lives in the splat kernel (gs/row_kernels.hh); either
    // SIMD dispatch gives the serial reference's bytes.
    const u32 tw = x1 - x0, th = y1 - y0;
    const u32 n_px = tw * th;
    const size_t n_st = size_t(n_px) + kTileStatePad;
    static thread_local std::vector<Real> st_T, st_r, st_g, st_b, st_d;
    static thread_local std::vector<u32> st_blend, st_term;
    st_T.assign(n_st, Real(1));
    st_r.assign(n_st, Real(0));
    st_g.assign(n_st, Real(0));
    st_b.assign(n_st, Real(0));
    st_d.assign(n_st, Real(0));
    st_blend.assign(n_st, 0);
    st_term.assign(n_st, kRowNotTerminated);
    const ForwardTileState st{st_T.data(), st_r.data(), st_g.data(),
                              st_b.data(), st_d.data(), st_blend.data(),
                              st_term.data()};
    u32 alive = n_px;

    const SplatKernels &kern = selectSplatKernels();
    const SplatKernelCtx ctx{alpha_min, alpha_max, t_eps};

    for (u32 s = 0; s < n_splats && alive > 0; ++s) {
        const HotSplat &g = splats[s];
        SplatFootprint fp{0, 0, 0, 0, x0, y0, tw, s};
        if (!cutoffEllipseBounds(g, x0, y0, x1, y1, fp.sx0, fp.sy0, fp.sx1,
                                 fp.sy1))
            continue; // whole splat below alphaMin everywhere
        alive -= kern.forwardSplat(g, fp, ctx, st);
    }

    for (u32 py = y0; py < y1; ++py) {
        for (u32 px = x0; px < x1; ++px) {
            const size_t i = (py - y0) * tw + (px - x0);
            const Real T = st_T[i];
            Vec3f color{st_r[i], st_g[i], st_b[i]};
            color += settings.background * T;
            result.image.at(px, py) = color;
            result.depth.at(px, py) = st_d[i];
            result.alpha.at(px, py) = 1 - T;
            result.finalT.at(px, py) = T;
            // A pixel that terminated at stream position s examined
            // s + 1 fragments; everyone else walked the whole bin.
            result.nContrib.at(px, py) = st_term[i] != kRowNotTerminated
                                             ? st_term[i] + 1
                                             : n_splats;
            result.nBlended.at(px, py) = st_blend[i];
        }
    }
}

} // namespace rtgs::gs
