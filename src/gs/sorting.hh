/**
 * @file
 * Step 2 (Sorting): order each tile's Gaussians front-to-back by
 * camera-space depth so alpha blending composites correctly.
 *
 * One tile-parallel pass sorts every tile's range of the flat index
 * buffer in place. Each range is ordered by the 64-bit key
 * (depthBits << 32) | id in a buffer owned by the thread sorting it:
 * positive IEEE-754 depths compare like their bit patterns, and ids are
 * unique within a tile, so every key is distinct and equal depths come
 * out in ascending id order. intersectTiles emits every range in
 * ascending id order, so this is exactly the order a stable
 * comparison sort by depth gives (sortTilesByDepthReference).
 */

#ifndef RTGS_GS_SORTING_HH
#define RTGS_GS_SORTING_HH

#include "gs/tiling.hh"

namespace rtgs::gs
{

/**
 * Sort every tile range in place by ascending projected depth
 * (projected[id].depth), ties by ascending Gaussian id, in parallel over
 * tiles on `pool`. Binned depths must be positive: projectGaussians
 * keeps only depths in [kNearClip, kFarClip], and kNearClip is
 * positive.
 */
void sortTilesByDepth(TileBins &bins, const ProjectedCloud &projected,
                      ThreadPool &pool = globalPool());

/** True if every tile range is in non-decreasing depth order. */
bool tilesAreDepthSorted(const TileBins &bins,
                         const ProjectedCloud &projected);

} // namespace rtgs::gs

#endif // RTGS_GS_SORTING_HH
