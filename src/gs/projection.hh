/**
 * @file
 * Step 1 (Preprocessing) of the rendering pipeline: project each 3D
 * Gaussian into an elliptical 2D Gaussian on the image plane (EWA
 * splatting) and compute its screen-space footprint. The result is one
 * Projected2D record per Gaussian; the tile kernels gather the fields
 * they read straight from these records.
 */

#ifndef RTGS_GS_PROJECTION_HH
#define RTGS_GS_PROJECTION_HH

#include <limits>
#include <vector>

#include "common/thread_pool.hh"
#include "geometry/camera.hh"
#include "gs/gaussian.hh"

namespace rtgs::gs
{

/** Tunables shared across the rendering pipeline. */
struct RenderSettings
{
    Real nearClip = Real(0.05);
    Real farClip = Real(100);
    /** Low-pass filter added to 2D covariance diagonals (pixels^2). */
    Real covBlur = Real(0.3);
    /** Fragments with alpha below this are skipped. */
    Real alphaMin = Real(1) / 255;
    /** Alpha saturation value. */
    Real alphaMax = Real(0.99);
    /** Early ray termination threshold on transmittance. */
    Real transmittanceEps = Real(1e-4);
    /** Tile side length in pixels (Sec. 2.1 footnote: 16x16). */
    u32 tileSize = 16;
    /** Background colour composited behind the splats. */
    Vec3f background{0, 0, 0};
    /** Splat radius in standard deviations. */
    Real radiusSigma = Real(3);
};

/** A projected (2D) Gaussian: the per-Gaussian outputs of Step 1. */
struct Projected2D
{
    Vec2f mean2d;    //!< pixel-space centre
    Real depth = 0;  //!< camera-space z
    Sym2f cov2d;     //!< pre-blur 2D covariance (kept for BP)
    Sym2f conic;     //!< inverse of blurred covariance
    Vec3f color;     //!< activated RGB
    Real opacity = 0; //!< activated opacity
    /**
     * Exact alpha-threshold skip bound: any fragment whose exponent
     * power satisfies power < powerSkip is guaranteed (with a safety
     * margin well above float rounding) to land below alphaMin, so the
     * rasterizer can skip the std::exp without changing the output.
     * projectGaussians sets it for every valid record; the default
     * skips nothing.
     */
    Real powerSkip = -std::numeric_limits<Real>::infinity();
    Real radius = 0; //!< 3-sigma footprint radius in pixels
    Vec3f camPoint;  //!< camera-space mean (t), reused by BP
    bool valid = false;
    /** Per-channel clamp mask from colour activation (1 = pass-through). */
    Vec3f colorClampMask{1, 1, 1};
};

/** Result of projecting an entire cloud. */
struct ProjectedCloud
{
    std::vector<Projected2D> items;

    size_t size() const { return items.size(); }
    const Projected2D &operator[](size_t i) const { return items[i]; }
    Projected2D &operator[](size_t i) { return items[i]; }

    /** Number of Gaussians that survived culling. */
    size_t validCount() const;
};

/**
 * Project all active Gaussians through the camera, in parallel over
 * Gaussians on `pool` (each writes only its own record, so the result
 * is deterministic). Masked or culled Gaussians produce entries with
 * valid = false so indices stay aligned with the cloud; a Gaussian
 * whose depth, 2D mean, radius or conic is not finite is culled.
 */
ProjectedCloud projectGaussians(const GaussianCloud &cloud,
                                const Camera &camera,
                                const RenderSettings &settings,
                                ThreadPool &pool = globalPool());

/**
 * Frustum-clamped camera point used for the EWA covariance Jacobian.
 * Without the clamp, grazing splats (tiny z, large x/z or y/z) blow up
 * J and smear phantom content across the image — the reference 3DGS
 * rasteriser clamps to 1.3x the field of view, and so do we. The
 * output flags report whether x / y were clamped (their gradients are
 * then masked in the backward pass).
 */
Vec3f clampedCamPoint(const Intrinsics &intr, const Vec3f &t,
                      bool &clamped_x, bool &clamped_y);

} // namespace rtgs::gs

#endif // RTGS_GS_PROJECTION_HH
