/**
 * @file
 * The tracking/mapping objective (Eq. 6):
 *   L = lambda_pho * E_pho + (1 - lambda_pho) * E_geo,
 * with E_pho the mean photometric residual between the rendered and
 * observed images and E_geo the mean depth residual. Both residuals use
 * a Huber (smooth-L1) kernel for robustness, as is standard in the
 * 3DGS-SLAM systems the paper builds on.
 */

#ifndef RTGS_SLAM_LOSS_HH
#define RTGS_SLAM_LOSS_HH

#include "gs/rasterizer.hh"

namespace rtgs::slam
{

/** Loss configuration. */
struct LossConfig
{
    /** Weight of the photometric term (Eq. 6's lambda_pho). */
    Real lambdaPho = Real(0.9);
    /** Huber transition point for colour residuals ([0,1] scale). */
    Real huberDeltaColor = Real(0.1);
    /** Use the geometric term at all (false for RGB-only tracking).
     *  No caller sets it, but slambench reads it, and the benchmark's
     *  files stay as they are.
     *  det-lint: allow(unset-config-field) */
    bool useDepth = true;
};

/** Scalar loss plus the per-pixel adjoints the backward pass consumes. */
struct LossResult
{
    double loss = 0;
    double photometric = 0; //!< E_pho component
    double geometric = 0;   //!< E_geo component
    ImageRGB dlDColor;
    ImageF dlDDepth;
};

/**
 * Evaluate the loss between a render and an observation.
 *
 * The depth residual compares alpha-normalised rendered depth with the
 * observation, masked to pixels where both are valid.
 */
LossResult computeLoss(const gs::RenderResult &render,
                       const ImageRGB &observed_rgb,
                       const ImageF *observed_depth,
                       const LossConfig &config);

} // namespace rtgs::slam

#endif // RTGS_SLAM_LOSS_HH
