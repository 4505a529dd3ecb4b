/**
 * @file
 * Finite-difference validation of the full backward pass (Steps 4+5).
 *
 * A fixed adjoint image defines the scalar objective
 *   J = sum_px <adjC(px), C(px)> + sum_px adjD(px) * D(px),
 * whose analytic gradient is exactly what backward() returns when fed
 * dL/dC = adjC and dL/dD = adjD. Central differences through the whole
 * forward pipeline must agree for every parameter class and for the
 * camera pose twist.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "common/rng.hh"
#include "gs/render_pipeline.hh"
#include "oracle/backward_reference.hh"

namespace rtgs::gs
{

namespace
{

constexpr u32 kImg = 32;

struct FdFixture
{
    GaussianCloud cloud;
    Camera camera;
    RenderPipeline pipe;
    ImageRGB adjColor{kImg, kImg};
    ImageF adjDepth{kImg, kImg};

    FdFixture()
    {
        camera = Camera(Intrinsics::fromFov(Real(M_PI) / 2, kImg, kImg),
                        SE3::identity());
        // A handful of well-separated, mid-opacity Gaussians inside the
        // frustum, far from culling and saturation thresholds.
        cloud.pushIsotropic({0.0f, 0.0f, 2.0f}, 0.25f, 0.55f,
                            {0.9f, 0.2f, 0.1f});
        cloud.pushIsotropic({0.5f, 0.3f, 2.5f}, 0.3f, 0.4f,
                            {0.1f, 0.8f, 0.3f});
        cloud.pushIsotropic({-0.4f, -0.2f, 3.0f}, 0.35f, 0.5f,
                            {0.2f, 0.3f, 0.9f});
        cloud.pushIsotropic({0.2f, -0.5f, 2.2f}, 0.2f, 0.35f,
                            {0.7f, 0.7f, 0.2f});
        cloud.pushIsotropic({-0.3f, 0.4f, 2.8f}, 0.3f, 0.45f,
                            {0.4f, 0.1f, 0.6f});
        // Anisotropic, rotated member exercises scale/rotation grads.
        cloud.push({0.1f, 0.1f, 2.4f},
                   {std::log(0.15f), std::log(0.35f), std::log(0.2f)},
                   Quatf::fromAxisAngle({0.3f, 0.8f, 0.5f}, 0.7f),
                   inverseSigmoid(0.5f), GaussianCloud::rgbToSh(
                       {0.5f, 0.5f, 0.8f}));

        pipe.settings().background = {0.1f, 0.1f, 0.1f};
        // Finite differences need the compositing to be (numerically)
        // continuous: shrink the fragment cutoff and the early-exit
        // threshold so threshold-crossing fragments cannot bias the FD
        // estimate. Production defaults (1/255, 1e-4) stay untouched.
        pipe.settings().alphaMin = Real(1e-6);
        pipe.settings().transmittanceEps = Real(1e-6);

        // Smooth deterministic adjoints.
        for (u32 y = 0; y < kImg; ++y) {
            for (u32 x = 0; x < kImg; ++x) {
                Real fx = static_cast<Real>(x) / kImg;
                Real fy = static_cast<Real>(y) / kImg;
                adjColor.at(x, y) = {std::sin(6 * fx) * 0.8f,
                                     std::cos(5 * fy) * 0.6f,
                                     std::sin(4 * (fx + fy)) * 0.7f};
                adjDepth.at(x, y) = 0.05f * std::cos(7 * fx - 3 * fy);
            }
        }
    }

    /** Objective for the current cloud/camera (double accumulation). */
    double
    objective(const GaussianCloud &c, const Camera &cam) const
    {
        ForwardContext ctx = pipe.forward(c, cam);
        double j = 0;
        for (u32 y = 0; y < kImg; ++y) {
            for (u32 x = 0; x < kImg; ++x) {
                j += static_cast<double>(
                    adjColor.at(x, y).dot(ctx.result.image.at(x, y)));
                j += static_cast<double>(adjDepth.at(x, y)) *
                     ctx.result.depth.at(x, y);
            }
        }
        return j;
    }

    BackwardResult
    analytic(bool pose_grad = true) const
    {
        ForwardContext ctx = pipe.forward(cloud, camera);
        return pipe.backward(cloud, ctx, adjColor, &adjDepth, pose_grad);
    }

    /** Central difference through a parameter mutator. */
    double
    fd(const std::function<void(GaussianCloud &, Real)> &mutate,
       Real eps) const
    {
        GaussianCloud plus = cloud, minus = cloud;
        mutate(plus, eps);
        mutate(minus, -eps);
        return (objective(plus, camera) - objective(minus, camera)) /
               (2.0 * static_cast<double>(eps));
    }
};

void
expectGradNear(double analytic, double fd, const char *what)
{
    double tol = 0.02 + 0.03 * std::abs(fd);
    EXPECT_NEAR(analytic, fd, tol) << what;
}

} // namespace

TEST(BackwardFd, PositionGradients)
{
    FdFixture f;
    BackwardResult br = f.analytic();
    const Real eps = Real(2e-3);
    for (size_t k = 0; k < f.cloud.size(); ++k) {
        for (int c = 0; c < 3; ++c) {
            double fd = f.fd(
                [k, c](GaussianCloud &cl, Real e) {
                    cl.positions.mut()[k][c] += e;
                },
                eps);
            expectGradNear(br.grads.dPositions[k][c], fd, "position");
        }
    }
}

TEST(BackwardFd, LogScaleGradients)
{
    FdFixture f;
    BackwardResult br = f.analytic();
    const Real eps = Real(2e-3);
    for (size_t k = 0; k < f.cloud.size(); ++k) {
        for (int c = 0; c < 3; ++c) {
            double fd = f.fd(
                [k, c](GaussianCloud &cl, Real e) {
                    cl.logScales.mut()[k][c] += e;
                },
                eps);
            expectGradNear(br.grads.dLogScales[k][c], fd, "logScale");
        }
    }
}

TEST(BackwardFd, RotationGradients)
{
    FdFixture f;
    BackwardResult br = f.analytic();
    const Real eps = Real(2e-3);
    for (size_t k = 0; k < f.cloud.size(); ++k) {
        for (int c = 0; c < 4; ++c) {
            double fd = f.fd(
                [k, c](GaussianCloud &cl, Real e) {
                    Quatf &q = cl.rotations.mut()[k];
                    (c == 0 ? q.w : c == 1 ? q.x : c == 2 ? q.y : q.z) += e;
                },
                eps);
            double analytic = c == 0 ? br.grads.dRotations[k].w :
                              c == 1 ? br.grads.dRotations[k].x :
                              c == 2 ? br.grads.dRotations[k].y :
                                       br.grads.dRotations[k].z;
            expectGradNear(analytic, fd, "rotation");
        }
    }
}

TEST(BackwardFd, OpacityGradients)
{
    FdFixture f;
    BackwardResult br = f.analytic();
    const Real eps = Real(2e-3);
    for (size_t k = 0; k < f.cloud.size(); ++k) {
        double fd = f.fd(
            [k](GaussianCloud &cl, Real e) {
                cl.opacityLogits.mut()[k] += e;
            },
            eps);
        expectGradNear(br.grads.dOpacityLogits[k], fd, "opacity");
    }
}

TEST(BackwardFd, ColorGradients)
{
    FdFixture f;
    BackwardResult br = f.analytic();
    const Real eps = Real(2e-3);
    for (size_t k = 0; k < f.cloud.size(); ++k) {
        for (int c = 0; c < 3; ++c) {
            double fd = f.fd(
                [k, c](GaussianCloud &cl, Real e) {
                    cl.shCoeffs.mut()[k][c] += e;
                },
                eps);
            expectGradNear(br.grads.dShCoeffs[k][c], fd, "sh");
        }
    }
}

TEST(BackwardFd, CameraPoseGradients)
{
    FdFixture f;
    // Move the camera slightly off-origin so rotation gradients are
    // exercised with a non-trivial pose.
    f.camera.pose = SE3::lookAt({0.15f, -0.1f, -0.2f}, {0, 0, 2.5f});
    BackwardResult br = f.analytic(true);

    const Real eps = Real(1e-3);
    for (int c = 0; c < 6; ++c) {
        Twist dxi{};
        dxi[c] = 1;
        SE3 plus = f.camera.pose.retract(dxi * eps);
        SE3 minus = f.camera.pose.retract(dxi * -eps);
        Camera cp = f.camera, cm = f.camera;
        cp.pose = plus;
        cm.pose = minus;
        double fd = (f.objective(f.cloud, cp) - f.objective(f.cloud, cm)) /
                    (2.0 * static_cast<double>(eps));
        expectGradNear(br.poseGrad[c], fd, "pose twist");
    }
}

TEST(BackwardFd, MaskedGaussianHasZeroGradient)
{
    FdFixture f;
    f.cloud.active.mut()[2] = 0;
    BackwardResult br = f.analytic();
    EXPECT_EQ(br.grads.dPositions[2].norm(), 0);
    EXPECT_EQ(br.grads.dOpacityLogits[2], 0);
    EXPECT_EQ(br.grads.dShCoeffs[2].norm(), 0);
}

TEST(BackwardFd, ZeroAdjointGivesZeroGradients)
{
    FdFixture f;
    f.adjColor.fill({});
    f.adjDepth.fill(0);
    BackwardResult br = f.analytic();
    for (size_t k = 0; k < f.cloud.size(); ++k) {
        EXPECT_EQ(br.grads.dPositions[k].norm(), 0);
        EXPECT_EQ(br.grads.dLogScales[k].norm(), 0);
        EXPECT_EQ(br.grads.dOpacityLogits[k], 0);
    }
    EXPECT_EQ(br.poseGrad.norm(), 0);
}

TEST(BackwardFd, CovGradNormsPopulated)
{
    FdFixture f;
    BackwardResult br = f.analytic();
    // Every visible Gaussian under a non-trivial adjoint should have a
    // covariance-gradient norm recorded for the Eq. 7 importance score.
    size_t nonzero = 0;
    for (size_t k = 0; k < f.cloud.size(); ++k)
        nonzero += br.grads.covGradNorms[k] > 0 ? 1 : 0;
    EXPECT_EQ(nonzero, f.cloud.size());
}

TEST(BackwardFd, DepthOnlyAdjointMovesDepthGradient)
{
    FdFixture f;
    f.adjColor.fill({});
    BackwardResult br = f.analytic();
    // Depth gradient flows into position z more strongly than colour
    // parameters (which must be exactly zero).
    for (size_t k = 0; k < f.cloud.size(); ++k)
        EXPECT_EQ(br.grads.dShCoeffs[k].norm(), 0);
    Real any_pos = 0;
    for (size_t k = 0; k < f.cloud.size(); ++k)
        any_pos += br.grads.dPositions[k].norm();
    EXPECT_GT(any_pos, 0);
}

TEST(BackwardFd, SingleThreadedMatchesParallel)
{
    FdFixture f;
    ForwardContext ctx = f.pipe.forward(f.cloud, f.camera);
    BackwardResult parallel =
        f.pipe.backward(f.cloud, ctx, f.adjColor, &f.adjDepth, true);
    BackwardResult serial = backwardFull(
        f.cloud, ctx.projected, ctx.bins, ctx.grid, f.pipe.settings(),
        ctx.result, f.camera, f.adjColor, &f.adjDepth, true);
    for (size_t k = 0; k < f.cloud.size(); ++k) {
        EXPECT_NEAR(parallel.grads.dPositions[k].x,
                    serial.grads.dPositions[k].x, 1e-4);
        EXPECT_NEAR(parallel.grads.dOpacityLogits[k],
                    serial.grads.dOpacityLogits[k], 1e-4);
    }
    for (int c = 0; c < 6; ++c)
        EXPECT_NEAR(parallel.poseGrad[c], serial.poseGrad[c], 1e-3);
}

} // namespace rtgs::gs
