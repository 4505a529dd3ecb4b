/**
 * @file
 * The seed's serial forward pipeline: serial projection, per-tile
 * std::vector push_back binning, per-tile std::stable_sort by depth,
 * and an AoS per-pixel rasteriser. The rasteriser's per-fragment exp is
 * expExact (gs/row_kernels.hh), the one the splat kernels call, so the
 * production pipeline stays byte-identical to it under either SIMD
 * dispatch.
 *
 * This is NOT used by the production RenderPipeline. It exists as the
 * golden reference the parallel pipeline is validated against
 * (tests require <= 1e-6 per-channel agreement) and as the baseline the
 * micro-benchmark measures speedup from.
 */

#ifndef RTGS_GS_REFERENCE_HH
#define RTGS_GS_REFERENCE_HH

#include <vector>

#include "gs/rasterizer.hh"

namespace rtgs::gs
{

/** The seed's per-tile Gaussian index lists (one vector per tile). */
struct ReferenceTileLists
{
    std::vector<std::vector<u32>> lists;

    u64 totalIntersections() const;
};

/**
 * Serial projection, identical math to projectGaussians. It leaves
 * Projected2D::powerSkip at its default, which skips nothing.
 */
ProjectedCloud projectGaussiansReference(const GaussianCloud &cloud,
                                         const Camera &camera,
                                         const RenderSettings &settings);

/** Serial per-tile push_back binning (the seed's intersectTiles). */
ReferenceTileLists intersectTilesReference(const ProjectedCloud &projected,
                                           const TileGrid &grid);

/** Per-tile stable_sort by depth (the seed's sortTilesByDepth). */
void sortTilesByDepthReference(ReferenceTileLists &lists,
                               const ProjectedCloud &projected);

/** Serial AoS rasterisation over all tiles (the seed's rasterize). */
RenderResult rasterizeReference(const ProjectedCloud &projected,
                                const ReferenceTileLists &lists,
                                const TileGrid &grid,
                                const RenderSettings &settings);

/** Intermediates of one reference forward pass. */
struct ReferenceForward
{
    TileGrid grid;
    ProjectedCloud projected;
    ReferenceTileLists lists;
    RenderResult result;
};

/** Run the full seed forward path (project, bin, sort, rasterise). */
ReferenceForward forwardReference(const GaussianCloud &cloud,
                                  const Camera &camera,
                                  const RenderSettings &settings);

} // namespace rtgs::gs

#endif // RTGS_GS_REFERENCE_HH
