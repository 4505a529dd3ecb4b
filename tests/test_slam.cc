/**
 * @file
 * SLAM substrate tests: loss gradients, Adam optimizers, keyframe
 * policies and ATE/alignment.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hh"
#include "slam/evaluation.hh"
#include "slam/loss.hh"
#include "slam/optimizer.hh"
#include "slam/pipeline.hh"

namespace rtgs::slam
{

namespace
{

gs::RenderResult
makeRender(u32 w, u32 h, const Vec3f &color, Real alpha, Real depth)
{
    gs::RenderResult r;
    r.image = ImageRGB(w, h, color);
    r.depth = ImageF(w, h, depth);
    r.alpha = ImageF(w, h, alpha);
    r.finalT = ImageF(w, h, 1 - alpha);
    r.nContrib = Image<u32>(w, h, 1);
    r.nBlended = Image<u32>(w, h, 1);
    return r;
}

} // namespace

TEST(Loss, ZeroForPerfectRender)
{
    auto render = makeRender(8, 8, {0.5f, 0.5f, 0.5f}, 0.95f, 2.0f);
    ImageRGB gt(8, 8, {0.5f, 0.5f, 0.5f});
    ImageF gt_depth(8, 8, 2.0f);
    LossResult lr = computeLoss(render, gt, &gt_depth, {});
    EXPECT_NEAR(lr.loss, 0.0, 1e-9);
    for (size_t i = 0; i < lr.dlDColor.pixelCount(); ++i) {
        EXPECT_EQ(lr.dlDColor[i].norm(), 0);
        EXPECT_EQ(lr.dlDDepth[i], 0);
    }
}

TEST(Loss, PhotometricGradientSign)
{
    // Rendered brighter than observed -> positive gradient on colour.
    auto render = makeRender(4, 4, {0.8f, 0.8f, 0.8f}, 0.95f, 2.0f);
    ImageRGB gt(4, 4, {0.5f, 0.5f, 0.5f});
    LossResult lr = computeLoss(render, gt, nullptr, {});
    EXPECT_GT(lr.loss, 0);
    for (size_t i = 0; i < lr.dlDColor.pixelCount(); ++i)
        EXPECT_GT(lr.dlDColor[i].x, 0);
}

TEST(Loss, Eq6WeightingSplitsTerms)
{
    auto render = makeRender(4, 4, {0.8f, 0.8f, 0.8f}, 0.95f, 2.5f);
    ImageRGB gt(4, 4, {0.5f, 0.5f, 0.5f});
    ImageF gt_depth(4, 4, 2.0f);
    LossConfig cfg;
    cfg.lambdaPho = Real(0.9);
    LossResult lr = computeLoss(render, gt, &gt_depth, cfg);
    EXPECT_GT(lr.photometric, 0);
    EXPECT_GT(lr.geometric, 0);
    EXPECT_NEAR(lr.loss, 0.9 * lr.photometric + 0.1 * lr.geometric,
                1e-9);
}

TEST(Loss, AlphaMaskExcludesUncoveredPixels)
{
    auto render = makeRender(4, 4, {0.9f, 0.9f, 0.9f}, 0.0f, 0.0f);
    ImageRGB gt(4, 4, {0.1f, 0.1f, 0.1f});
    LossResult lr = computeLoss(render, gt, nullptr, {});
    // No pixel is covered: the loss must be exactly zero (no gradient
    // dragging the empty map toward the background).
    EXPECT_EQ(lr.loss, 0.0);
}

TEST(Loss, DepthMaskRequiresValidObservation)
{
    auto render = makeRender(4, 4, {0.5f, 0.5f, 0.5f}, 0.95f, 3.0f);
    ImageRGB gt(4, 4, {0.5f, 0.5f, 0.5f});
    ImageF gt_depth(4, 4, 0.0f); // all invalid
    LossResult lr = computeLoss(render, gt, &gt_depth, {});
    EXPECT_EQ(lr.geometric, 0.0);
}

TEST(Loss, HuberSaturatesGradient)
{
    // A gross outlier produces |grad| = deriv 1 * weight, not linear.
    auto render_small = makeRender(1, 1, {0.55f, 0.5f, 0.5f}, 0.95f, 0);
    auto render_large = makeRender(1, 1, {1.0f, 0.5f, 0.5f}, 0.95f, 0);
    ImageRGB gt(1, 1, {0.5f, 0.5f, 0.5f});
    LossConfig cfg;
    cfg.huberDeltaColor = Real(0.1);
    LossResult small = computeLoss(render_small, gt, nullptr, cfg);
    LossResult large = computeLoss(render_large, gt, nullptr, cfg);
    // 0.05 residual is inside the quadratic zone; 0.5 is saturated.
    EXPECT_LT(small.dlDColor[0].x, large.dlDColor[0].x * 0.8);
    double ratio = large.dlDColor[0].x / small.dlDColor[0].x;
    EXPECT_LT(ratio, 2.1); // not 10x despite 10x residual
}

TEST(MapOptimizer, DescendsQuadratic)
{
    // Single Gaussian, synthetic gradient pointing away from target.
    // Adam moves a position by about its learning rate (1e-3) per
    // step, so the unit distance takes ~1000 steps.
    gs::GaussianCloud cloud;
    cloud.pushIsotropic({1, 1, 1}, 0.2f, 0.5f, {0.5f, 0.5f, 0.5f});
    MapOptimizer opt;
    Vec3f target{0, 0, 0};
    for (int i = 0; i < 2000; ++i) {
        gs::CloudGrads grads;
        grads.resize(1);
        grads.dPositions[0] = cloud.positions[0] - target;
        opt.step(cloud, grads);
    }
    EXPECT_LT(cloud.positions[0].norm(), 0.3f);
}

TEST(MapOptimizer, SkipsMaskedGaussians)
{
    gs::GaussianCloud cloud;
    cloud.pushIsotropic({1, 0, 0}, 0.2f, 0.5f, {0.5f, 0.5f, 0.5f});
    cloud.active.mut()[0] = 0;
    MapOptimizer opt;
    gs::CloudGrads grads;
    grads.resize(1);
    grads.dPositions[0] = {10, 10, 10};
    opt.step(cloud, grads);
    EXPECT_EQ(cloud.positions[0].x, 1);
}

TEST(MapOptimizer, RemapFollowsCompaction)
{
    gs::GaussianCloud cloud;
    for (int i = 0; i < 4; ++i)
        cloud.pushIsotropic({Real(i), 0, 0}, 0.2f, 0.5f, {0.5f, 0.5f, 0.5f});
    MapOptimizer opt;
    gs::CloudGrads grads;
    grads.resize(4);
    for (int i = 0; i < 4; ++i)
        grads.dPositions[i] = {Real(i + 1), 0, 0};
    opt.step(cloud, grads); // builds distinct moments per entry
    std::vector<u8> keep{1, 0, 1, 0};
    cloud.compact(keep);
    opt.remap(keep);
    // Another step must not throw and must only touch survivors.
    grads.resize(2);
    opt.step(cloud, grads);
    EXPECT_EQ(cloud.size(), 2u);
}

TEST(MapOptimizer, ClampsOpacityLogit)
{
    gs::GaussianCloud cloud;
    cloud.pushIsotropic({0, 0, 1}, 0.2f, 0.5f, {0.5f, 0.5f, 0.5f});
    // A constant gradient moves the logit by the opacity learning rate
    // (2e-2) per step: past the clamp at 9 after ~450 steps.
    MapOptimizer opt;
    for (int i = 0; i < 500; ++i) {
        gs::CloudGrads grads;
        grads.resize(1);
        grads.dOpacityLogits[0] = -100;
        opt.step(cloud, grads);
    }
    EXPECT_LE(cloud.opacityLogits[0], 9.0f);
}

TEST(PoseOptimizer, ConvergesToTargetPose)
{
    // Minimise ||log(pose * target^-1)||^2 by gradient descent; the
    // gradient of 0.5*||xi||^2 w.r.t. the left perturbation is xi
    // itself at first order.
    SE3 target = SE3::lookAt({1, 0.5f, -1}, {0, 0, 2});
    SE3 pose = SE3::lookAt({1.2f, 0.4f, -0.8f}, {0.1f, 0, 2});
    PoseOptimizer opt(Real(2e-2), Real(2e-2));
    for (int i = 0; i < 400; ++i) {
        Twist err = (pose * target.inverse()).log();
        opt.step(pose, err);
    }
    EXPECT_LT(SE3::translationDistance(pose, target), 0.05);
    EXPECT_LT(SE3::rotationDistance(pose, target), 0.05);
}

// kf_interval only steers the MonoGS policy; the other profiles'
// thresholds are fixed (0.15 m / 0.20 rad pose distance, 0.08 RMSE).
constexpr u32 kUnusedInterval = 8;

TEST(Keyframe, IntervalPolicy)
{
    KeyframeQuery q;
    q.frameIndex = 0;
    EXPECT_TRUE(isKeyframe(BaseAlgorithm::MonoGs, 5, q));
    q.frameIndex = 4;
    EXPECT_FALSE(isKeyframe(BaseAlgorithm::MonoGs, 5, q));
    q.frameIndex = 10;
    EXPECT_TRUE(isKeyframe(BaseAlgorithm::MonoGs, 5, q));
}

TEST(Keyframe, PoseDistancePolicy)
{
    KeyframeQuery q;
    q.frameIndex = 3;
    q.lastKeyframePose = SE3::lookAt({0, 0, 0}, {0, 0, 1});
    q.currentPose = SE3::lookAt({0.1f, 0, 0}, {0.1f, 0, 1});
    EXPECT_FALSE(isKeyframe(BaseAlgorithm::GsSlam, kUnusedInterval, q));
    q.currentPose = SE3::lookAt({1.0f, 0, 0}, {1.0f, 0, 1});
    EXPECT_TRUE(isKeyframe(BaseAlgorithm::GsSlam, kUnusedInterval, q));
}

TEST(Keyframe, PhotometricPolicy)
{
    ImageRGB a(8, 8, {0.5f, 0.5f, 0.5f});
    ImageRGB near_img(8, 8, {0.52f, 0.52f, 0.52f});
    ImageRGB far_img(8, 8, {0.9f, 0.9f, 0.9f});
    KeyframeQuery q;
    q.frameIndex = 3;
    q.lastKeyframeImage = &a;
    q.currentImage = &near_img;
    EXPECT_FALSE(isKeyframe(BaseAlgorithm::PhotoSlam, kUnusedInterval, q));
    q.currentImage = &far_img;
    EXPECT_TRUE(isKeyframe(BaseAlgorithm::PhotoSlam, kUnusedInterval, q));
}

TEST(Ate, ZeroForIdenticalTrajectories)
{
    std::vector<SE3> traj;
    for (int i = 0; i < 10; ++i)
        traj.push_back(SE3::lookAt({Real(i) * 0.1f, 0, 0}, {0, 0, 5}));
    AteResult r = computeAte(traj, traj);
    EXPECT_NEAR(r.rmse, 0, 1e-5);
}

TEST(Ate, InvariantToRigidTransform)
{
    // ATE aligns first: a rigidly moved copy of the trajectory has
    // (near) zero error.
    std::vector<SE3> gt, moved;
    SE3 offset = SE3::exp({{0.5f, -0.2f, 0.8f}, {0.1f, 0.2f, -0.15f}});
    for (int i = 0; i < 12; ++i) {
        SE3 p = SE3::lookAt(
            {std::cos(Real(i) * 0.3f), Real(i) * 0.05f,
             std::sin(Real(i) * 0.3f)}, {0, 0, 0});
        gt.push_back(p);
        moved.push_back(p * offset); // world-frame rigid change
    }
    AteResult r = computeAte(moved, gt);
    EXPECT_LT(r.rmse, 2e-3);
}

TEST(Ate, DetectsKnownPerturbation)
{
    Rng rng(3);
    std::vector<SE3> gt, noisy;
    double sum_sq = 0;
    for (int i = 0; i < 30; ++i) {
        SE3 p = SE3::lookAt(
            {std::cos(Real(i) * 0.2f) * 2, 0.3f * std::sin(Real(i) * 0.4f),
             std::sin(Real(i) * 0.2f) * 2}, {0, 0, 0});
        gt.push_back(p);
        // Shift the camera centre by a known random offset: with
        // centre = -R^T t, adding R*d to t moves the centre by -d.
        Vec3f d{static_cast<Real>(rng.normal(0, 0.05)),
                static_cast<Real>(rng.normal(0, 0.05)),
                static_cast<Real>(rng.normal(0, 0.05))};
        SE3 q = p;
        q.trans += p.rot * d;
        noisy.push_back(q);
        sum_sq += d.squaredNorm();
    }
    AteResult r = computeAte(noisy, gt);
    // Alignment can absorb some error, so measured RMSE is at most the
    // injected RMS and within a sane factor of it.
    double injected = std::sqrt(sum_sq / 30.0);
    EXPECT_GT(r.rmse, injected * 0.3);
    EXPECT_LE(r.rmse, injected * 1.2);
    EXPECT_GE(r.max, r.mean);
}

TEST(Ate, CumulativeIsMonotonicForDrift)
{
    // A linearly drifting trajectory: cumulative ATE grows.
    std::vector<SE3> gt, est;
    for (int i = 0; i < 15; ++i) {
        SE3 p = SE3::lookAt({Real(i) * 0.2f, 0, 0}, {Real(i) * 0.2f, 0, 5});
        gt.push_back(p);
        SE3 q = p;
        q.trans.x += Real(i) * Real(0.01); // growing drift
        est.push_back(q);
    }
    std::vector<double> cum = cumulativeAte(est, gt);
    EXPECT_LT(cum[2], cum[14]);
}


} // namespace rtgs::slam
