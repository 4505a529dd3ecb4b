#include "gs/gaussian.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace rtgs::gs
{

namespace detail
{

void
parallelCopyBytes(void *dst, const void *src, size_t bytes)
{
    if (bytes == 0)
        return; // empty columns have null data(); memcpy(null) is UB
    // Below this size the parallel dispatch costs more than the copy.
    constexpr size_t parallelThreshold = size_t(1) << 20;
    if (bytes < parallelThreshold ||
        std::thread::hardware_concurrency() <= 1) {
        std::memcpy(dst, src, bytes);
        return;
    }
    auto *d = static_cast<char *>(dst);
    const auto *s = static_cast<const char *>(src);
    globalPool().parallelForChunks(0, bytes,
                                   [d, s](size_t lo, size_t hi) {
                                       std::memcpy(d + lo, s + lo,
                                                   hi - lo);
                                   });
}

} // namespace detail

size_t
GaussianCloud::activeCount() const
{
    size_t n = 0;
    for (u8 a : active.view())
        n += a ? 1 : 0;
    return n;
}

void
GaussianCloud::push(const Vec3f &pos, const Vec3f &log_scale,
                    const Quatf &rot, Real opacity_logit, const Vec3f &sh)
{
    positions.mut().push_back(pos);
    logScales.mut().push_back(log_scale);
    rotations.mut().push_back(rot);
    opacityLogits.mut().push_back(opacity_logit);
    shCoeffs.mut().push_back(sh);
    active.mut().push_back(1);
    ids.mut().push_back(nextId_++);
}

void
GaussianCloud::pushIsotropic(const Vec3f &pos, Real scale, Real opacity,
                             const Vec3f &rgb)
{
    rtgs_assert(scale > 0 && opacity > 0 && opacity < 1);
    Real ls = std::log(scale);
    push(pos, {ls, ls, ls}, Quatf::identity(), inverseSigmoid(opacity),
         rgbToSh(rgb));
}

void
GaussianCloud::compact(const std::vector<u8> &keep)
{
    rtgs_assert(keep.size() == size());
    // All-kept masks are common (e.g. prune requests the map already
    // absorbed); don't re-materialise seven columns for a no-op.
    if (std::find(keep.begin(), keep.end(), u8(0)) == keep.end())
        return;
    positions.compactKeep(keep);
    logScales.compactKeep(keep);
    rotations.compactKeep(keep);
    opacityLogits.compactKeep(keep);
    shCoeffs.compactKeep(keep);
    active.compactKeep(keep);
    ids.compactKeep(keep);
}

std::vector<u8>
GaussianCloud::translateKeepMask(
    const std::vector<u64> &dropped_ids) const
{
    // Both id sequences are strictly increasing (push assigns
    // monotonically, compact preserves order), so a two-pointer merge
    // suffices. Ids this cloud no longer holds are skipped; ids it
    // gained since the mask was computed are kept.
    const auto &mine = ids.view();
    std::vector<u8> keep(mine.size(), 1);
    size_t d = 0;
    for (size_t k = 0; k < mine.size() && d < dropped_ids.size(); ++k) {
        while (d < dropped_ids.size() && dropped_ids[d] < mine[k])
            ++d;
        if (d < dropped_ids.size() && dropped_ids[d] == mine[k])
            keep[k] = 0;
    }
    return keep;
}

void
GaussianCloud::reserve(size_t n)
{
    positions.mut().reserve(n);
    logScales.mut().reserve(n);
    rotations.mut().reserve(n);
    opacityLogits.mut().reserve(n);
    shCoeffs.mut().reserve(n);
    active.mut().reserve(n);
    ids.mut().reserve(n);
}

size_t
GaussianCloud::parameterBytes() const
{
    // Every parameter column holds size() elements. (The stable-id
    // column is COW bookkeeping, not a model parameter.)
    return size() * (sizeof(Vec3f) + sizeof(Vec3f) + sizeof(Quatf) +
                     sizeof(Real) + sizeof(Vec3f) + sizeof(u8));
}

size_t
GaussianCloud::sharedColumnsWith(const GaussianCloud &other) const
{
    size_t n = 0;
    n += positions.shares(other.positions) ? 1 : 0;
    n += logScales.shares(other.logScales) ? 1 : 0;
    n += rotations.shares(other.rotations) ? 1 : 0;
    n += opacityLogits.shares(other.opacityLogits) ? 1 : 0;
    n += shCoeffs.shares(other.shCoeffs) ? 1 : 0;
    n += active.shares(other.active) ? 1 : 0;
    n += ids.shares(other.ids) ? 1 : 0;
    return n;
}

void
CloudGrads::resize(size_t n)
{
    dPositions.assign(n, {});
    dLogScales.assign(n, {});
    dRotations.assign(n, {0, 0, 0, 0});
    dOpacityLogits.assign(n, 0);
    dShCoeffs.assign(n, {});
    covGradNorms.assign(n, 0);
}

void
CloudGrads::accumulateRange(const CloudGrads &other, size_t lo,
                            size_t hi)
{
    for (size_t i = lo; i < hi; ++i) {
        dPositions[i] += other.dPositions[i];
        dLogScales[i] += other.dLogScales[i];
        dRotations[i].w += other.dRotations[i].w;
        dRotations[i].x += other.dRotations[i].x;
        dRotations[i].y += other.dRotations[i].y;
        dRotations[i].z += other.dRotations[i].z;
        dOpacityLogits[i] += other.dOpacityLogits[i];
        dShCoeffs[i] += other.dShCoeffs[i];
        covGradNorms[i] += other.covGradNorms[i];
    }
}

void
CloudGrads::scaleRange(Real s, size_t lo, size_t hi)
{
    for (size_t i = lo; i < hi; ++i) {
        dPositions[i] = dPositions[i] * s;
        dLogScales[i] = dLogScales[i] * s;
        dRotations[i].w *= s;
        dRotations[i].x *= s;
        dRotations[i].y *= s;
        dRotations[i].z *= s;
        dOpacityLogits[i] *= s;
        dShCoeffs[i] = dShCoeffs[i] * s;
        covGradNorms[i] *= s;
    }
}

} // namespace rtgs::gs
