/**
 * @file
 * Step 3 (Rendering): per-pixel alpha computing (Eq. 2) and front-to-back
 * alpha blending (Eq. 3) with early ray termination.
 *
 * Besides the image, the rasterizer captures the per-pixel workload
 * counters the paper's hardware models consume: fragments iterated
 * (Gaussians examined) and fragments blended (alpha above threshold).
 */

#ifndef RTGS_GS_RASTERIZER_HH
#define RTGS_GS_RASTERIZER_HH

#include <algorithm>
#include <cmath>

#include "image/image.hh"
#include "gs/sorting.hh"
#include "gs/tiling.hh"

namespace rtgs::gs
{

/**
 * Forward rendering outputs, kept for the backward pass.
 *
 * `finalT` and `nContrib` are the per-pixel terminal state the
 * splat-major backward kernel runs its back-to-front blending
 * recurrence from: the transmittance after the last blended fragment,
 * and the exclusive end of the examined prefix of the tile's hot-splat
 * stream (fragments at stream positions >= nContrib were never reached
 * because the pixel terminated first).
 */
struct RenderResult
{
    ImageRGB image;          //!< composited colour (with background)
    ImageF depth;            //!< alpha-weighted expected depth
    ImageF alpha;            //!< per-pixel final opacity (1 - T_final)
    ImageF finalT;           //!< final transmittance per pixel
    Image<u32> nContrib;     //!< fragments iterated before termination
    Image<u32> nBlended;     //!< fragments that passed the alpha threshold

    /** Total fragments iterated over the frame. */
    u64 totalFragments() const;

    /** Total fragments blended over the frame. */
    u64 totalBlended() const;
};

/**
 * One tile-local splat record: the 11 hot scalars a fragment reads,
 * gathered from the Projected2D records so the per-pixel loops walk a
 * single contiguous 44-byte-stride stream instead of gathering through
 * the index buffer on every fragment. The fields the reject paths need
 * come first.
 */
struct HotSplat
{
    Real mx, my;            //!< 2D mean
    Real cxx, cxy, cyy;     //!< conic
    Real powerSkip;         //!< exact sub-alphaMin exp-skip bound
    Real opacity;
    Real r, g, b;           //!< colour
    Real depth;
};

/**
 * Gather one tile's (depth-ordered) bin range from the projected
 * records into a thread-local scratch buffer; valid until the next call
 * on the same thread. Shared by the forward and backward tile kernels.
 */
const std::vector<HotSplat> &gatherTileSplats(
    const ProjectedCloud &projected, const TileBins &bins, u32 tile);

/**
 * Clip splat g's cutoff-ellipse bounding box — the pixel region where
 * alpha can still reach alphaMin, i.e. d^T conic d <= -2 powerSkip — to
 * the tile rect [x0,x1) x [y0,y1), writing the result to [sx0,sx1) x
 * [sy0,sy1). Returns false when the whole splat is below alphaMin
 * (q <= 0): no pixel anywhere can blend it. Shared by the forward and
 * backward splat-major tile kernels so both walk the exact same pixels.
 */
inline bool
cutoffEllipseBounds(const HotSplat &g, u32 x0, u32 y0, u32 x1, u32 y1,
                    u32 &sx0, u32 &sy0, u32 &sx1, u32 &sy1)
{
    // Pixels that can blend satisfy power >= powerSkip, i.e. lie in
    // the ellipse d^T conic d <= q. Its axis-aligned bounding box
    // (padded a pixel against rounding; powerSkip itself already
    // carries the exactness margin) is all we rasterise.
    Real q = Real(-2) * g.powerSkip;
    if (!(q > 0))
        return false; // whole splat below alphaMin everywhere
    // A degenerate conic (det <= 0) yields NaN/inf extents and
    // falls through to the full-tile path, matching the reference
    // rasteriser's behaviour for such splats.
    Real det = g.cxx * g.cyy - g.cxy * g.cxy;
    Real ex = std::sqrt(q * g.cyy / det);
    Real ey = std::sqrt(q * g.cxx / det);
    sx0 = x0;
    sx1 = x1;
    sy0 = y0;
    sy1 = y1;
    // The extent bound keeps the float->i64 casts defined for
    // extreme (but finite) splat scales; oversized extents just
    // take the full-tile path.
    if (ex < Real(1e9) && ey < Real(1e9)) {
        i64 bx0 = static_cast<i64>(std::floor(g.mx - ex - Real(1.5)));
        i64 bx1 = static_cast<i64>(std::ceil(g.mx + ex + Real(0.5)));
        i64 by0 = static_cast<i64>(std::floor(g.my - ey - Real(1.5)));
        i64 by1 = static_cast<i64>(std::ceil(g.my + ey + Real(0.5)));
        sx0 = static_cast<u32>(std::clamp<i64>(bx0, x0, x1));
        sx1 = static_cast<u32>(std::clamp<i64>(bx1 + 1, x0, x1));
        sy0 = static_cast<u32>(std::clamp<i64>(by0, y0, y1));
        sy1 = static_cast<u32>(std::clamp<i64>(by1 + 1, y0, y1));
    }
    return true;
}

/**
 * Rasterise one tile into the result images. Exposed separately so the
 * render pipeline can parallelise over tiles.
 */
void rasterizeTile(u32 tile, const ProjectedCloud &projected,
                   const TileBins &bins, const TileGrid &grid,
                   const RenderSettings &settings, RenderResult &result);

/** Allocate a RenderResult of the grid's image size. */
RenderResult makeRenderResult(const TileGrid &grid);

} // namespace rtgs::gs

#endif // RTGS_GS_RASTERIZER_HH
