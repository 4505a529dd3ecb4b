/**
 * @file
 * Property tests for the per-tile depth sort. On the bins
 * intersectTiles produces, sortTilesByDepth must give exactly the order
 * of the seed's per-tile std::stable_sort (sortTilesByDepthReference),
 * index for index, on any worker count. The scenes stress what a key
 * sort can get wrong: depths quantised to a few values (ties almost
 * everywhere), empty tiles, one-entry tiles and tiles with more than
 * 256 entries. The suite runs under the ThreadSanitizer CI job.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "gs/sorting.hh"
#include "oracle/reference.hh"

namespace rtgs::gs
{

namespace
{

/** 6 x 4 tiles of 16 px. */
constexpr u32 kWidth = 96;
constexpr u32 kHeight = 64;

/** A depth from `levels` evenly spaced values, or any depth for 0. */
Real
drawDepth(Rng &rng, u32 levels)
{
    if (levels == 0)
        return static_cast<Real>(rng.uniform(0.5, 20.0));
    return Real(1) + Real(0.5) * static_cast<Real>(rng.uniformInt(levels));
}

/**
 * A projected cloud built directly, so tile occupancy is exact:
 *  - tile 0 holds 300 splats, tile 1 exactly one, tiles 2-5 (the rest
 *    of the top row) none;
 *  - every other splat has a random footprint below the top row, and
 *    some entries are culled (valid = false);
 *  - the kinds are shuffled, so no tile's ids are contiguous.
 */
ProjectedCloud
quantisedScene(u64 seed, u32 levels)
{
    enum Kind { kTile0, kTile1, kRandom, kCulled };
    std::vector<Kind> kinds(300, kTile0);
    kinds.push_back(kTile1);
    kinds.insert(kinds.end(), 400, kRandom);
    kinds.insert(kinds.end(), 40, kCulled);
    Rng rng(seed);
    for (size_t i = kinds.size() - 1; i > 0; --i)
        std::swap(kinds[i], kinds[rng.uniformInt(i + 1)]);

    ProjectedCloud cloud;
    cloud.items.resize(kinds.size());
    for (size_t k = 0; k < kinds.size(); ++k) {
        Projected2D &p = cloud.items[k];
        switch (kinds[k]) {
        case kTile0:
            p.mean2d = {static_cast<Real>(rng.uniform(2, 14)),
                        static_cast<Real>(rng.uniform(2, 14))};
            p.radius = 1;
            break;
        case kTile1:
            p.mean2d = {24, 8};
            p.radius = 2;
            break;
        case kRandom:
            p.radius = static_cast<Real>(rng.uniform(0.5, 30));
            p.mean2d = {static_cast<Real>(rng.uniform(-20, kWidth + 20)),
                        static_cast<Real>(
                            rng.uniform(16 + p.radius, kHeight + 20))};
            break;
        case kCulled:
            continue;
        }
        p.depth = drawDepth(rng, levels);
        p.valid = true;
    }
    return cloud;
}

/** Expect bins to list exactly the reference's ids, tile by tile. */
void
expectSameOrder(const TileBins &bins, const ReferenceTileLists &ref)
{
    ASSERT_EQ(bins.tiles, ref.lists.size());
    for (u32 t = 0; t < bins.tiles; ++t) {
        ASSERT_EQ(bins.count(t), ref.lists[t].size()) << "tile " << t;
        for (u32 i = 0; i < bins.count(t); ++i)
            ASSERT_EQ(bins.tileData(t)[i], ref.lists[t][i])
                << "tile " << t << " slot " << i;
    }
}

} // namespace

TEST(TileDepthSort, MatchesStableReferenceOnEveryWorkerCount)
{
    const TileGrid grid(kWidth, kHeight, 16);
    for (size_t workers : {1, 2, 4}) {
        ThreadPool pool(workers);
        for (u32 levels : {1u, 3u, 8u, 0u}) {
            for (u64 seed = 1; seed <= 3; ++seed) {
                SCOPED_TRACE(testing::Message()
                             << workers << " workers, " << levels
                             << " depth levels, seed " << seed);
                ProjectedCloud cloud = quantisedScene(seed, levels);
                ReferenceTileLists ref =
                    intersectTilesReference(cloud, grid);
                sortTilesByDepthReference(ref, cloud);

                TileBins bins = intersectTiles(cloud, grid);
                ASSERT_EQ(bins.count(0), 300u);
                ASSERT_EQ(bins.count(1), 1u);
                for (u32 t = 2; t < grid.tilesX; ++t)
                    ASSERT_EQ(bins.count(t), 0u) << "tile " << t;

                sortTilesByDepth(bins, cloud, pool);
                EXPECT_TRUE(tilesAreDepthSorted(bins, cloud));
                expectSameOrder(bins, ref);
            }
        }
    }
}

} // namespace rtgs::gs
