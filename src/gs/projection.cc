#include "gs/projection.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/thread_pool.hh"

namespace rtgs::gs
{

size_t
ProjectedCloud::validCount() const
{
    size_t n = 0;
    for (const auto &p : items)
        n += p.valid ? 1 : 0;
    return n;
}

namespace
{

/**
 * Exact exp-skip bound for one Gaussian: alpha = opacity * exp(power)
 * drops below alphaMin exactly when power < ln(alphaMin / opacity). The
 * 1e-3 margin is orders of magnitude above float rounding on either
 * side of the comparison, so fragments the reference path would blend
 * are never skipped; fragments near the boundary still take the exact
 * exp + compare path.
 */
Real
expSkipBound(Real opacity, Real alpha_min)
{
    if (!(opacity > Real(0)) || !(alpha_min > Real(0)))
        return -std::numeric_limits<Real>::infinity();
    return std::log(alpha_min / opacity) - Real(1e-3);
}

} // namespace

Vec3f
clampedCamPoint(const Intrinsics &intr, const Vec3f &t, bool &clamped_x,
                bool &clamped_y)
{
    Real lim_x = Real(1.3) * (Real(0.5) * static_cast<Real>(intr.width) /
                              intr.fx);
    Real lim_y = Real(1.3) * (Real(0.5) * static_cast<Real>(intr.height) /
                              intr.fy);
    Real txtz = t.x / t.z;
    Real tytz = t.y / t.z;
    clamped_x = txtz < -lim_x || txtz > lim_x;
    clamped_y = tytz < -lim_y || tytz > lim_y;
    return {std::clamp(txtz, -lim_x, lim_x) * t.z,
            std::clamp(tytz, -lim_y, lim_y) * t.z, t.z};
}

ProjectedCloud
projectGaussians(const GaussianCloud &cloud, const Camera &camera,
                 const RenderSettings &settings, ThreadPool &pool)
{
    ProjectedCloud out;
    out.items.resize(cloud.size());

    const Mat3f &W = camera.pose.rot;
    const Intrinsics &intr = camera.intr;

    // Hoist the COW column views once; the loop then reads plain
    // vectors (no per-access shared-pointer indirection).
    const auto &active = cloud.active.view();
    const auto &positions = cloud.positions.view();
    const auto &rotations = cloud.rotations.view();
    const auto &log_scales = cloud.logScales.view();
    const auto &sh_coeffs = cloud.shCoeffs.view();
    const auto &opacity_logits = cloud.opacityLogits.view();

    // Each Gaussian writes only its own record, so the loop is
    // embarrassingly parallel and deterministic.
    pool.parallelForChunks(
        0, cloud.size(), [&](size_t lo, size_t hi) {
        for (size_t k = lo; k < hi; ++k) {
            Projected2D &p = out.items[k];
            if (!active[k])
                continue;

            Vec3f t = camera.pose.apply(positions[k]);
            // Written so that a NaN depth fails the test as well.
            if (!(t.z >= settings.nearClip && t.z <= settings.farClip))
                continue;

            // 2D mean via exact pinhole projection.
            Vec2f mean2d = intr.project(t);

            // 3D covariance from scale and rotation: Sigma = M M^T,
            // M = R S.
            Mat3f R = rotations[k].toMat();
            Vec3f scale{std::exp(log_scales[k].x),
                        std::exp(log_scales[k].y),
                        std::exp(log_scales[k].z)};
            Mat3f M = R * Mat3f::diagonal(scale);
            Mat3f sigma3d = M * M.transpose();

            // EWA: cov2d = J W Sigma W^T J^T with J the projection
            // Jacobian evaluated at the frustum-clamped point (see
            // clampedCamPoint).
            bool cx, cy;
            Vec3f tc = clampedCamPoint(intr, t, cx, cy);
            Mat2x3f J = intr.projectJacobian(tc);
            Mat2x3f T = J * W;
            Mat2x3f TS = T * sigma3d;
            Sym2f cov2d = Sym2f::fromMat(TS.multTranspose(T));

            Sym2f cov_blur = cov2d;
            cov_blur.xx += settings.covBlur;
            cov_blur.yy += settings.covBlur;
            Real det = cov_blur.det();
            if (det <= Real(0))
                continue;

            Real radius =
                settings.radiusSigma * std::sqrt(cov_blur.maxEigen());
            if (radius < Real(0.5))
                continue;

            // A non-finite position, scale or rotation must not reach
            // binning, whose footprint rect casts floor() of the mean
            // and radius to an integer tile coordinate.
            Sym2f conic = cov_blur.inverse();
            if (!std::isfinite(mean2d.x) || !std::isfinite(mean2d.y) ||
                !std::isfinite(radius) || !std::isfinite(conic.xx) ||
                !std::isfinite(conic.xy) || !std::isfinite(conic.yy))
                continue;

            // Cull splats entirely outside the image (with footprint
            // margin).
            if (mean2d.x + radius < 0 ||
                mean2d.x - radius > static_cast<Real>(intr.width) ||
                mean2d.y + radius < 0 ||
                mean2d.y - radius > static_cast<Real>(intr.height)) {
                continue;
            }

            p.mean2d = mean2d;
            p.depth = t.z;
            p.cov2d = cov2d;
            p.conic = conic;
            p.opacity = sigmoid(opacity_logits[k]);
            p.powerSkip = expSkipBound(p.opacity, settings.alphaMin);

            Vec3f raw = sh_coeffs[k] * shC0 + Vec3f{0.5f, 0.5f, 0.5f};
            p.color = {std::max(Real(0), raw.x), std::max(Real(0), raw.y),
                       std::max(Real(0), raw.z)};
            p.colorClampMask = {raw.x > 0 ? Real(1) : Real(0),
                                raw.y > 0 ? Real(1) : Real(0),
                                raw.z > 0 ? Real(1) : Real(0)};
            p.radius = radius;
            p.camPoint = t;
            p.valid = true;
        }
    });
    return out;
}

} // namespace rtgs::gs
