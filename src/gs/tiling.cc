#include "gs/tiling.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

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
intersectTiles(const ProjectedCloud &projected, const TileGrid &grid)
{
    TileBins bins;
    bins.tiles = grid.tileCount();
    bins.offsets.assign(static_cast<size_t>(bins.tiles) + 1, 0);

    const size_t n = projected.size();
    if (n == 0 || bins.tiles == 0)
        return bins;

    auto tile_of = [&grid](u32 tx, u32 ty) {
        return static_cast<size_t>(ty) * grid.tilesX + tx;
    };

    // Pass 1: each Gaussian's footprint rect, counted into the slot one
    // past its tile's (offsets[t + 1] holds tile t's count).
    std::vector<FootprintRect> rects(n);
    for (size_t k = 0; k < n; ++k) {
        const FootprintRect r = footprintRect(projected[k], grid);
        rects[k] = r;
        if (!r.valid)
            continue;
        for (u32 ty = r.ty0; ty <= r.ty1; ++ty)
            for (u32 tx = r.tx0; tx <= r.tx1; ++tx)
                ++bins.offsets[tile_of(tx, ty) + 1];
    }

    // Prefix sum in 64 bits, so a pair count past u32 asserts instead
    // of wrapping the offsets.
    u64 total = 0;
    for (u32 t = 1; t <= bins.tiles; ++t) {
        total += bins.offsets[t];
        rtgs_assert(total <= 0xFFFFFFFFull);
        bins.offsets[t] = static_cast<u32>(total);
    }

    // Pass 2: scatter ids in ascending Gaussian order, so every tile's
    // range lists its ids in ascending order.
    bins.indices.resize(total);
    std::vector<u32> cursor(bins.offsets.begin(), bins.offsets.end() - 1);
    for (size_t k = 0; k < n; ++k) {
        const FootprintRect &r = rects[k];
        if (!r.valid)
            continue;
        for (u32 ty = r.ty0; ty <= r.ty1; ++ty)
            for (u32 tx = r.tx0; tx <= r.tx1; ++tx)
                bins.indices[cursor[tile_of(tx, ty)]++] =
                    static_cast<u32>(k);
    }
    return bins;
}

} // namespace rtgs::gs
