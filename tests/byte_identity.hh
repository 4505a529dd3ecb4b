/**
 * @file
 * The tests' one definition of byte-identical output: trajectories and
 * Gaussian clouds compare by their raw bytes, and runs fold into the
 * same bytes through FNV-1a (as slambench's outputHash does).
 */

#ifndef RTGS_TESTS_BYTE_IDENTITY_HH
#define RTGS_TESTS_BYTE_IDENTITY_HH

#include <cstring>
#include <type_traits>
#include <vector>

#include "geometry/se3.hh"
#include "gs/gaussian.hh"

namespace rtgs
{

/** Byte-compare two SE3 sequences. */
inline bool
trajectoriesIdentical(const std::vector<SE3> &a, const std::vector<SE3> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (std::memcmp(&a[i].rot, &b[i].rot, sizeof(a[i].rot)) != 0 ||
            std::memcmp(&a[i].trans, &b[i].trans, sizeof(a[i].trans)) !=
                0) {
            return false;
        }
    }
    return true;
}

/** Byte-compare the parameter arrays of two clouds. */
inline bool
cloudsIdentical(const gs::GaussianCloud &a, const gs::GaussianCloud &b)
{
    auto eq = [](const auto &u, const auto &v) {
        using T = typename std::decay_t<decltype(u)>::value_type;
        return u.size() == v.size() &&
               (u.empty() ||
                std::memcmp(u.data(), v.data(), u.size() * sizeof(T)) ==
                    0);
    };
    return eq(a.positions, b.positions) && eq(a.logScales, b.logScales) &&
           eq(a.rotations, b.rotations) &&
           eq(a.opacityLogits, b.opacityLogits) &&
           eq(a.shCoeffs, b.shCoeffs) && eq(a.active, b.active);
}

/** FNV-1a over a byte range. */
inline u64
fnv1a(const void *bytes, size_t n, u64 hash)
{
    const unsigned char *p = static_cast<const unsigned char *>(bytes);
    for (size_t i = 0; i < n; ++i) {
        hash ^= p[i];
        hash *= 1099511628211ull;
    }
    return hash;
}

/** One run's output FNV: every pose, then every cloud column (the
 *  recipe of slambench's outputHash). */
inline u64
outputFnv(const std::vector<SE3> &trajectory, const gs::GaussianCloud &cloud)
{
    u64 hash = 1469598103934665603ull;
    for (const SE3 &pose : trajectory) {
        hash = fnv1a(&pose.rot, sizeof(pose.rot), hash);
        hash = fnv1a(&pose.trans, sizeof(pose.trans), hash);
    }
    auto mix = [&hash](const auto &column) {
        using T = typename std::decay_t<decltype(column)>::value_type;
        if (column.size())
            hash = fnv1a(column.data(), column.size() * sizeof(T), hash);
    };
    mix(cloud.positions);
    mix(cloud.logScales);
    mix(cloud.rotations);
    mix(cloud.opacityLogits);
    mix(cloud.shCoeffs);
    mix(cloud.active);
    return hash;
}

} // namespace rtgs

#endif // RTGS_TESTS_BYTE_IDENTITY_HH
