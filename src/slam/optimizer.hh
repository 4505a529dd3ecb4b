/**
 * @file
 * First-order optimisers: Adam over the Gaussian cloud's raw parameters
 * (mapping) and Adam on the se(3) tangent space for the camera pose
 * (tracking), matching the optimisation style of MonoGS-class systems.
 */

#ifndef RTGS_SLAM_OPTIMIZER_HH
#define RTGS_SLAM_OPTIMIZER_HH

#include <vector>

#include "geometry/se3.hh"
#include "gs/gaussian.hh"

namespace rtgs::slam
{

/**
 * Adam over every raw parameter of a GaussianCloud, with one fixed
 * learning rate per parameter group (optimizer.cc). Moment buffers
 * follow the cloud's size; growing the cloud (densification) extends
 * them with zeros, and compact() must be mirrored with remap().
 */
class MapOptimizer
{
  public:
    /** Apply one Adam step from the given gradients. */
    void step(gs::GaussianCloud &cloud, const gs::CloudGrads &grads);

    /** Resize moment state to the cloud (new entries start at zero). */
    void ensureSize(size_t n);

    /** Keep only entries where keep[i], mirroring cloud.compact(). */
    void remap(const std::vector<u8> &keep);

    size_t stepCount() const { return stepCount_; }

  private:
    size_t stepCount_ = 0;

    // First/second moments, flattened per group.
    std::vector<Vec3f> mPos_, vPos_;
    std::vector<Vec3f> mScale_, vScale_;
    std::vector<Quatf> mRot_, vRot_;
    std::vector<Real> mOpa_, vOpa_;
    std::vector<Vec3f> mSh_, vSh_;
};

/**
 * Adam on the 6-dof twist of a world-to-camera pose with left-perturbed
 * retraction, as used for camera optimisation in 3DGS-SLAM trackers.
 */
class PoseOptimizer
{
  public:
    /**
     * @param lr_trans learning rate for the translational tangent
     * @param lr_rot   learning rate for the rotational tangent
     */
    PoseOptimizer(Real lr_trans = Real(3e-3), Real lr_rot = Real(3e-3));

    /** One Adam step; returns the applied twist (for diagnostics). */
    Twist step(SE3 &pose, const Twist &grad);

    /** Adjust learning rates (e.g. per-iteration decay); keeps moments. */
    void setLearningRates(Real lr_trans, Real lr_rot);

  private:
    Real lrTrans_;
    Real lrRot_;
    size_t stepCount_ = 0;
    Twist m_{};
    Twist v_{};
};

} // namespace rtgs::slam

#endif // RTGS_SLAM_OPTIMIZER_HH
