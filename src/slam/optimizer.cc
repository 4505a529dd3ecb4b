#include "slam/optimizer.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace rtgs::slam
{

namespace
{

/** One Adam update for a scalar lane. */
inline Real
adamLane(Real grad, Real &m, Real &v, Real lr, const AdamConfig &cfg,
         Real bias1, Real bias2)
{
    m = cfg.beta1 * m + (1 - cfg.beta1) * grad;
    v = cfg.beta2 * v + (1 - cfg.beta2) * grad * grad;
    Real mhat = m / bias1;
    Real vhat = v / bias2;
    return -lr * mhat / (std::sqrt(vhat) + cfg.epsilon);
}

} // namespace

MapOptimizer::MapOptimizer(const MapLearningRates &lrs,
                           const AdamConfig &adam)
    : lrs_(lrs), adam_(adam)
{
}

void
MapOptimizer::ensureSize(size_t n)
{
    if (mPos_.size() >= n)
        return;
    mPos_.resize(n, {});
    vPos_.resize(n, {});
    mScale_.resize(n, {});
    vScale_.resize(n, {});
    mRot_.resize(n, {0, 0, 0, 0});
    vRot_.resize(n, {0, 0, 0, 0});
    mOpa_.resize(n, 0);
    vOpa_.resize(n, 0);
    mSh_.resize(n, {});
    vSh_.resize(n, {});
}

void
MapOptimizer::remap(const std::vector<u8> &keep)
{
    rtgs_assert(keep.size() <= mPos_.size());
    size_t w = 0;
    for (size_t r = 0; r < keep.size(); ++r) {
        if (!keep[r])
            continue;
        mPos_[w] = mPos_[r]; vPos_[w] = vPos_[r];
        mScale_[w] = mScale_[r]; vScale_[w] = vScale_[r];
        mRot_[w] = mRot_[r]; vRot_[w] = vRot_[r];
        mOpa_[w] = mOpa_[r]; vOpa_[w] = vOpa_[r];
        mSh_[w] = mSh_[r]; vSh_[w] = vSh_[r];
        ++w;
    }
    mPos_.resize(w); vPos_.resize(w);
    mScale_.resize(w); vScale_.resize(w);
    mRot_.resize(w); vRot_.resize(w);
    mOpa_.resize(w); vOpa_.resize(w);
    mSh_.resize(w); vSh_.resize(w);
}

void
MapOptimizer::reset()
{
    mPos_.clear(); vPos_.clear();
    mScale_.clear(); vScale_.clear();
    mRot_.clear(); vRot_.clear();
    mOpa_.clear(); vOpa_.clear();
    mSh_.clear(); vSh_.clear();
    stepCount_ = 0;
}

void
MapOptimizer::step(gs::GaussianCloud &cloud, const gs::CloudGrads &grads)
{
    rtgs_assert(grads.size() == cloud.size());
    ensureSize(cloud.size());
    ++stepCount_;
    Real bias1 = 1 - std::pow(adam_.beta1,
                              static_cast<Real>(stepCount_));
    Real bias2 = 1 - std::pow(adam_.beta2,
                              static_cast<Real>(stepCount_));

    // One re-materialisation per mutated COW column up front (a no-op
    // while the cloud is unshared), not one aliasing check per lane.
    const auto &active = cloud.active.view();
    auto &positions = cloud.positions.mut();
    auto &log_scales = cloud.logScales.mut();
    auto &rotations = cloud.rotations.mut();
    auto &opacity_logits = cloud.opacityLogits.mut();
    auto &sh_coeffs = cloud.shCoeffs.mut();

    for (size_t k = 0; k < cloud.size(); ++k) {
        if (!active[k])
            continue;
        for (int c = 0; c < 3; ++c) {
            positions[k][c] +=
                adamLane(grads.dPositions[k][c], mPos_[k][c], vPos_[k][c],
                         lrs_.position, adam_, bias1, bias2);
            log_scales[k][c] +=
                adamLane(grads.dLogScales[k][c], mScale_[k][c],
                         vScale_[k][c], lrs_.logScale, adam_, bias1, bias2);
            sh_coeffs[k][c] +=
                adamLane(grads.dShCoeffs[k][c], mSh_[k][c], vSh_[k][c],
                         lrs_.sh, adam_, bias1, bias2);
        }
        rotations[k].w +=
            adamLane(grads.dRotations[k].w, mRot_[k].w, vRot_[k].w,
                     lrs_.rotation, adam_, bias1, bias2);
        rotations[k].x +=
            adamLane(grads.dRotations[k].x, mRot_[k].x, vRot_[k].x,
                     lrs_.rotation, adam_, bias1, bias2);
        rotations[k].y +=
            adamLane(grads.dRotations[k].y, mRot_[k].y, vRot_[k].y,
                     lrs_.rotation, adam_, bias1, bias2);
        rotations[k].z +=
            adamLane(grads.dRotations[k].z, mRot_[k].z, vRot_[k].z,
                     lrs_.rotation, adam_, bias1, bias2);
        opacity_logits[k] +=
            adamLane(grads.dOpacityLogits[k], mOpa_[k], vOpa_[k],
                     lrs_.opacity, adam_, bias1, bias2);
        // Clamp the raw parameters to sane numeric ranges.
        opacity_logits[k] =
            std::clamp(opacity_logits[k], Real(-9), Real(9));
        for (int c = 0; c < 3; ++c) {
            log_scales[k][c] =
                std::clamp(log_scales[k][c], Real(-8), Real(2));
        }
    }
}

PoseOptimizer::PoseOptimizer(Real lr_trans, Real lr_rot,
                             const AdamConfig &adam)
    : lrTrans_(lr_trans), lrRot_(lr_rot), adam_(adam)
{
}

void
PoseOptimizer::setLearningRates(Real lr_trans, Real lr_rot)
{
    lrTrans_ = lr_trans;
    lrRot_ = lr_rot;
}

void
PoseOptimizer::reset()
{
    m_ = Twist{};
    v_ = Twist{};
    stepCount_ = 0;
}

Twist
PoseOptimizer::step(SE3 &pose, const Twist &grad)
{
    ++stepCount_;
    Real bias1 = 1 - std::pow(adam_.beta1, static_cast<Real>(stepCount_));
    Real bias2 = 1 - std::pow(adam_.beta2, static_cast<Real>(stepCount_));

    Twist update{};
    for (int c = 0; c < 6; ++c) {
        Real lr = c < 3 ? lrTrans_ : lrRot_;
        Real g = grad[c];
        Real &m = c < 3 ? m_.rho[c] : m_.phi[c - 3];
        Real &v = c < 3 ? v_.rho[c] : v_.phi[c - 3];
        update[c] = adamLane(g, m, v, lr, adam_, bias1, bias2);
    }
    pose = pose.retract(update);
    return update;
}

} // namespace rtgs::slam
