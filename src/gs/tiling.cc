#include "gs/tiling.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace rtgs::gs
{

TileGrid::TileGrid(u32 image_w, u32 image_h, u32 tile_size)
    : tileSize(tile_size), width(image_w), height(image_h)
{
    rtgs_assert(tile_size > 0 && image_w > 0 && image_h > 0);
    tilesX = (image_w + tile_size - 1) / tile_size;
    tilesY = (image_h + tile_size - 1) / tile_size;
}

void
TileGrid::tileBounds(u32 tile, u32 &x0, u32 &y0, u32 &x1, u32 &y1) const
{
    u32 tx = tile % tilesX;
    u32 ty = tile / tilesX;
    x0 = tx * tileSize;
    y0 = ty * tileSize;
    x1 = std::min(width, x0 + tileSize);
    y1 = std::min(height, y0 + tileSize);
}

namespace
{

/** Inclusive tile-coordinate rectangle of one Gaussian's footprint. */
struct FootprintRect
{
    u32 tx0 = 0, tx1 = 0, ty0 = 0, ty1 = 0;
    u8 valid = 0;
};

FootprintRect
footprintRect(const Projected2D &p, const TileGrid &grid)
{
    FootprintRect r;
    if (!p.valid)
        return r;
    auto clamp_tile = [](long v, long hi) {
        return static_cast<u32>(std::clamp<long>(v, 0, hi));
    };
    long ts = static_cast<long>(grid.tileSize);
    r.tx0 = clamp_tile(static_cast<long>(
                std::floor((p.mean2d.x - p.radius) / ts)),
            grid.tilesX - 1);
    r.tx1 = clamp_tile(static_cast<long>(
                std::floor((p.mean2d.x + p.radius) / ts)),
            grid.tilesX - 1);
    r.ty0 = clamp_tile(static_cast<long>(
                std::floor((p.mean2d.y - p.radius) / ts)),
            grid.tilesY - 1);
    r.ty1 = clamp_tile(static_cast<long>(
                std::floor((p.mean2d.y + p.radius) / ts)),
            grid.tilesY - 1);
    r.valid = 1;
    return r;
}

} // namespace

TileBins
intersectTiles(const ProjectedCloud &projected, const TileGrid &grid,
               ThreadPool &pool)
{
    TileBins bins;
    bins.tiles = grid.tileCount();
    bins.offsets.assign(static_cast<size_t>(bins.tiles) + 1, 0);

    const size_t n = projected.size();
    if (n == 0 || bins.tiles == 0)
        return bins;

    // Fixed chunk boundaries (independent of pool scheduling) make the
    // scatter stable: chunk c's slice of each tile's range starts right
    // after the slices of chunks 0..c-1, so ids land in ascending
    // Gaussian order no matter which thread runs which chunk.
    const size_t nchunks =
        std::min<size_t>(n, (pool.size() + 1) * 4);
    const size_t chunk = (n + nchunks - 1) / nchunks;

    std::vector<FootprintRect> rects(n);
    std::vector<std::vector<u32>> hist(
        nchunks, std::vector<u32>(bins.tiles, 0));

    // Pass 1 (parallel over Gaussians): footprint rect + per-tile counts.
    pool.parallelFor(0, nchunks, [&](size_t c) {
        size_t lo = c * chunk;
        size_t hi = std::min(n, lo + chunk);
        std::vector<u32> &h = hist[c];
        for (size_t k = lo; k < hi; ++k) {
            FootprintRect r = footprintRect(projected[k], grid);
            rects[k] = r;
            if (!r.valid)
                continue;
            for (u32 ty = r.ty0; ty <= r.ty1; ++ty)
                for (u32 tx = r.tx0; tx <= r.tx1; ++tx)
                    ++h[static_cast<size_t>(ty) * grid.tilesX + tx];
        }
    });

    // Exclusive prefix sum over tiles -> offsets; then turn each chunk's
    // histogram into its write cursors within the tile ranges.
    u64 total = 0;
    for (u32 t = 0; t < bins.tiles; ++t) {
        bins.offsets[t] = static_cast<u32>(total);
        for (size_t c = 0; c < nchunks; ++c) {
            u32 cnt = hist[c][t];
            hist[c][t] = static_cast<u32>(total);
            total += cnt;
        }
    }
    rtgs_assert(total <= 0xFFFFFFFFull);
    bins.offsets[bins.tiles] = static_cast<u32>(total);

    bins.indices.resize(total);

    // Pass 2 (parallel over Gaussians): scatter ids into tile ranges.
    pool.parallelFor(0, nchunks, [&](size_t c) {
        size_t lo = c * chunk;
        size_t hi = std::min(n, lo + chunk);
        std::vector<u32> &cursor = hist[c];
        for (size_t k = lo; k < hi; ++k) {
            const FootprintRect &r = rects[k];
            if (!r.valid)
                continue;
            for (u32 ty = r.ty0; ty <= r.ty1; ++ty) {
                for (u32 tx = r.tx0; tx <= r.tx1; ++tx) {
                    u32 tile =
                        static_cast<u32>(ty) * grid.tilesX + tx;
                    bins.indices[cursor[tile]++] = static_cast<u32>(k);
                }
            }
        }
    });
    return bins;
}

} // namespace rtgs::gs
