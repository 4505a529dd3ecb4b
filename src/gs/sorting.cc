#include "gs/sorting.hh"

#include <algorithm>
#include <cstring>

namespace rtgs::gs
{

void
sortTilesByDepth(TileBins &bins, const ProjectedCloud &projected,
                 ThreadPool &pool)
{
    if (bins.indices.size() < 2)
        return;

    // Tile ranges are disjoint, so one pass over tiles sorts them all.
    pool.parallelForChunks(0, bins.tiles, [&](size_t lo, size_t hi) {
        // Packed keys sort ~1.25x faster than ids under a comparator
        // that loads both records' depths on every comparison.
        thread_local std::vector<u64> keys;
        for (u32 t = static_cast<u32>(lo); t < hi; ++t) {
            const u32 n = bins.count(t);
            if (n < 2)
                continue;
            u32 *ids = bins.indices.data() + bins.offsets[t];
            keys.resize(n);
            for (u32 i = 0; i < n; ++i) {
                u32 depth_bits;
                static_assert(sizeof(depth_bits) == sizeof(Real));
                std::memcpy(&depth_bits, &projected[ids[i]].depth,
                            sizeof(depth_bits));
                keys[i] = static_cast<u64>(depth_bits) << 32 | ids[i];
            }
            std::sort(keys.begin(), keys.end());
            for (u32 i = 0; i < n; ++i)
                ids[i] = static_cast<u32>(keys[i]);
        }
    });
}

bool
tilesAreDepthSorted(const TileBins &bins, const ProjectedCloud &projected)
{
    for (u32 t = 0; t < bins.tiles; ++t) {
        for (u32 i = bins.offsets[t] + 1; i < bins.offsets[t + 1]; ++i) {
            if (projected[bins.indices[i - 1]].depth >
                projected[bins.indices[i]].depth)
                return false;
        }
    }
    return true;
}

} // namespace rtgs::gs
