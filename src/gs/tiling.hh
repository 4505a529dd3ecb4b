/**
 * @file
 * Step 1-2 (Tile intersection): assign projected 2D Gaussians to the
 * 16x16-pixel tiles their footprint overlaps.
 *
 * Binning runs on the calling thread in three steps: count each
 * Gaussian's tiles, take an exclusive prefix sum over the counts, and
 * scatter the ids in ascending Gaussian order into one flat index
 * buffer. At SLAM sizes (a few thousand Gaussian-tile pairs per view) a
 * parallel split costs more in dispatch than it saves. Every consumer
 * reads a contiguous [offsets[t], offsets[t+1]) range of the flat array.
 */

#ifndef RTGS_GS_TILING_HH
#define RTGS_GS_TILING_HH

#include <vector>

#include "gs/projection.hh"

namespace rtgs::gs
{

/** Image-space tile grid. */
struct TileGrid
{
    u32 tileSize = 16;
    u32 width = 0;   //!< image width in pixels
    u32 height = 0;  //!< image height in pixels
    u32 tilesX = 0;
    u32 tilesY = 0;

    TileGrid() = default;
    TileGrid(u32 image_w, u32 image_h, u32 tile_size);

    u32 tileCount() const { return tilesX * tilesY; }

    u32 tileOfPixel(u32 x, u32 y) const
    {
        return (y / tileSize) * tilesX + (x / tileSize);
    }

    /** Pixel bounds [x0,x1) x [y0,y1) of a tile (clipped to the image). */
    void tileBounds(u32 tile, u32 &x0, u32 &y0, u32 &x1, u32 &y1) const;
};

/**
 * Flat per-tile Gaussian index bins. Tile t owns the contiguous range
 * indices[offsets[t] .. offsets[t+1]) of Gaussian ids (into the
 * ProjectedCloud). intersectTiles emits each tile's ids in ascending
 * Gaussian order; sortTilesByDepth reorders every range front-to-back
 * in place.
 */
struct TileBins
{
    u32 tiles = 0;             //!< tile count (== offsets.size() - 1)
    std::vector<u32> offsets;  //!< exclusive prefix sums, size tiles + 1
    std::vector<u32> indices;  //!< flat Gaussian ids, grouped by tile

    /** Number of Gaussians binned to tile t. */
    u32 count(u32 tile) const
    {
        return offsets[tile + 1] - offsets[tile];
    }

    /** Pointer to tile t's ids (count(t) entries). */
    const u32 *tileData(u32 tile) const
    {
        return indices.data() + offsets[tile];
    }

    /** Total tile-Gaussian intersection count (used by adaptive pruning). */
    u64 totalIntersections() const { return indices.size(); }
};

/**
 * Assign each valid projected Gaussian to all tiles it overlaps, on the
 * calling thread. Gaussians are scattered in ascending id order, so
 * each tile's range lists its ids in ascending order.
 */
TileBins intersectTiles(const ProjectedCloud &projected,
                        const TileGrid &grid);

} // namespace rtgs::gs

#endif // RTGS_GS_TILING_HH
