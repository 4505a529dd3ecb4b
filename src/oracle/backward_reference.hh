/**
 * @file
 * The seed's pixel-major backward (Step 4 of the pipeline): for each
 * pixel, re-walk the forward pass recording the blended fragments, then
 * walk them in reverse compositing order and scatter the pixel-level
 * 2D gradients into per-Gaussian accumulators.
 *
 * It is built into the rtgs_oracle target, which only the tests and
 * bench_micro_rasterizer link: the bit-exact serial reference the
 * splat-major production backward (gs/backward.hh) is validated
 * against, and the baseline the micro-benchmark times it from.
 */

#ifndef RTGS_ORACLE_BACKWARD_REFERENCE_HH
#define RTGS_ORACLE_BACKWARD_REFERENCE_HH

#include "gs/backward.hh"

namespace rtgs::gs
{

/**
 * Step 4 for a single tile: walk each pixel's blended fragments in
 * reverse compositing order and accumulate 2D gradients into `acc`.
 *
 * @param dl_dcolor  per-pixel dL/dC (same shape as the image)
 * @param dl_ddepth  optional per-pixel dL/dDepth (nullptr to disable)
 */
void backwardTile(u32 tile, const ProjectedCloud &projected,
                  const TileBins &bins, const TileGrid &grid,
                  const RenderSettings &settings,
                  const RenderResult &result, const ImageRGB &dl_dcolor,
                  const ImageF *dl_ddepth, Gradient2DBuffers &acc);

/**
 * Full backward pass (Steps 4+5) over all tiles, single-threaded:
 * backwardTile per tile, then preprocessBackwardOne per Gaussian.
 *
 * @param compute_pose_grad accumulate dL/dP (tracking) when true
 */
BackwardResult backwardFull(const GaussianCloud &cloud,
                            const ProjectedCloud &projected,
                            const TileBins &bins, const TileGrid &grid,
                            const RenderSettings &settings,
                            const RenderResult &result,
                            const Camera &camera,
                            const ImageRGB &dl_dcolor,
                            const ImageF *dl_ddepth,
                            bool compute_pose_grad);

} // namespace rtgs::gs

#endif // RTGS_ORACLE_BACKWARD_REFERENCE_HH
