/**
 * @file
 * Unit and property tests for the geometry layer: vector/matrix algebra,
 * quaternion rotations (and their backward pass), SE(3) exp/log, and the
 * pinhole camera with its projection Jacobian.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "geometry/camera.hh"
#include "geometry/mat.hh"
#include "geometry/quat.hh"
#include "geometry/se3.hh"
#include "geometry/vec.hh"

namespace rtgs
{

namespace
{

Vec3f
randomVec(Rng &rng, Real scale = 1)
{
    return {static_cast<Real>(rng.uniform(-scale, scale)),
            static_cast<Real>(rng.uniform(-scale, scale)),
            static_cast<Real>(rng.uniform(-scale, scale))};
}

void
expectMatNear(const Mat3f &a, const Mat3f &b, Real tol)
{
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            EXPECT_NEAR(a(i, j), b(i, j), tol) << "entry " << i << "," << j;
}

} // namespace

TEST(Vec3, CrossIsPerpendicular)
{
    Rng rng(1);
    for (int i = 0; i < 20; ++i) {
        Vec3f a = randomVec(rng), b = randomVec(rng);
        Vec3f c = a.cross(b);
        EXPECT_NEAR(c.dot(a), 0, 1e-5);
        EXPECT_NEAR(c.dot(b), 0, 1e-5);
    }
}

TEST(Vec3, NormalizedHasUnitNorm)
{
    Vec3f v{3, 4, 0};
    EXPECT_NEAR(v.normalized().norm(), 1.0, 1e-6);
    EXPECT_NEAR(v.norm(), 5.0, 1e-6);
}

TEST(Mat2, InverseRoundTrip)
{
    Mat2f m{4, 1, 2, 3};
    Mat2f id = m * m.inverse();
    EXPECT_NEAR(id(0, 0), 1, 1e-5);
    EXPECT_NEAR(id(1, 1), 1, 1e-5);
    EXPECT_NEAR(id(0, 1), 0, 1e-5);
    EXPECT_NEAR(id(1, 0), 0, 1e-5);
}

TEST(Mat3, InverseRoundTrip)
{
    Rng rng(2);
    for (int trial = 0; trial < 10; ++trial) {
        Mat3f m;
        for (int i = 0; i < 3; ++i)
            for (int j = 0; j < 3; ++j)
                m(i, j) = static_cast<Real>(rng.uniform(-2, 2));
        m(0, 0) += 4; m(1, 1) += 4; m(2, 2) += 4; // well-conditioned
        Mat3f id = m * m.inverse();
        expectMatNear(id, Mat3f::identity(), 1e-4f);
    }
}

TEST(Mat3, DetOfProductIsProductOfDets)
{
    Rng rng(3);
    Mat3f a, b;
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j) {
            a(i, j) = static_cast<Real>(rng.uniform(-1, 1));
            b(i, j) = static_cast<Real>(rng.uniform(-1, 1));
        }
    EXPECT_NEAR((a * b).det(), a.det() * b.det(), 1e-4);
}

TEST(Mat3, SkewMatchesCross)
{
    Rng rng(4);
    Vec3f a = randomVec(rng), b = randomVec(rng);
    Vec3f viaSkew = Mat3f::skew(a) * b;
    Vec3f viaCross = a.cross(b);
    EXPECT_NEAR(viaSkew.x, viaCross.x, 1e-6);
    EXPECT_NEAR(viaSkew.y, viaCross.y, 1e-6);
    EXPECT_NEAR(viaSkew.z, viaCross.z, 1e-6);
}

TEST(Sym2f, InverseAndQuadForm)
{
    Sym2f s{4, 1, 3};
    Sym2f inv = s.inverse();
    Mat2f id = s.toMat() * inv.toMat();
    EXPECT_NEAR(id(0, 0), 1, 1e-5);
    EXPECT_NEAR(id(1, 1), 1, 1e-5);
    Vec2f v{1, 2};
    // v^T S v = 4*1 + 2*1*2 + 3*4 = 4 + 4 + 12 = 20.
    EXPECT_NEAR(s.quadForm(v), 20, 1e-5);
}

TEST(Sym2f, MaxEigenOfDiagonal)
{
    Sym2f s{5, 0, 2};
    EXPECT_NEAR(s.maxEigen(), 5, 1e-5);
}

TEST(Quat, ToMatIsOrthonormal)
{
    Rng rng(5);
    for (int i = 0; i < 20; ++i) {
        Quatf q{static_cast<Real>(rng.normal()),
                static_cast<Real>(rng.normal()),
                static_cast<Real>(rng.normal()),
                static_cast<Real>(rng.normal())};
        Mat3f R = q.toMat();
        expectMatNear(R * R.transpose(), Mat3f::identity(), 1e-5f);
        EXPECT_NEAR(R.det(), 1, 1e-5);
    }
}

TEST(Quat, AxisAngleMatchesRodrigues)
{
    Vec3f axis{0, 0, 1};
    Real angle = Real(M_PI) / 3;
    Mat3f Rq = Quatf::fromAxisAngle(axis, angle).toMat();
    Mat3f Rr = expSo3(axis * angle);
    expectMatNear(Rq, Rr, 1e-5f);
}

TEST(Quat, RotationMatrixBackwardFiniteDifference)
{
    // Scalar objective: J(q) = <A, R(q)> for a fixed matrix A.
    Rng rng(6);
    Mat3f A;
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            A(i, j) = static_cast<Real>(rng.uniform(-1, 1));

    Quatf q{Real(0.8), Real(0.3), Real(-0.4), Real(0.2)};
    Quatf grad = rotationMatrixBackward(q, A);

    auto objective = [&](const Quatf &qq) {
        Mat3f R = qq.toMat();
        double s = 0;
        for (int i = 0; i < 3; ++i)
            for (int j = 0; j < 3; ++j)
                s += A(i, j) * R(i, j);
        return s;
    };

    const double eps = 1e-4;
    double analytic[4] = {grad.w, grad.x, grad.y, grad.z};
    for (int c = 0; c < 4; ++c) {
        Quatf qp = q, qm = q;
        (c == 0 ? qp.w : c == 1 ? qp.x : c == 2 ? qp.y : qp.z) +=
            static_cast<Real>(eps);
        (c == 0 ? qm.w : c == 1 ? qm.x : c == 2 ? qm.y : qm.z) -=
            static_cast<Real>(eps);
        double fd = (objective(qp) - objective(qm)) / (2 * eps);
        EXPECT_NEAR(analytic[c], fd, 2e-2) << "component " << c;
    }
}

TEST(SE3, ExpLogRoundTrip)
{
    Rng rng(7);
    for (int i = 0; i < 20; ++i) {
        Twist xi{randomVec(rng, 2), randomVec(rng, Real(1.5))};
        Twist back = SE3::exp(xi).log();
        EXPECT_NEAR(back.rho.x, xi.rho.x, 1e-4);
        EXPECT_NEAR(back.rho.y, xi.rho.y, 1e-4);
        EXPECT_NEAR(back.rho.z, xi.rho.z, 1e-4);
        EXPECT_NEAR(back.phi.x, xi.phi.x, 1e-4);
        EXPECT_NEAR(back.phi.y, xi.phi.y, 1e-4);
        EXPECT_NEAR(back.phi.z, xi.phi.z, 1e-4);
    }
}

TEST(SE3, ExpOfZeroIsIdentity)
{
    SE3 t = SE3::exp(Twist{});
    expectMatNear(t.rot, Mat3f::identity(), 1e-7f);
    EXPECT_NEAR(t.trans.norm(), 0, 1e-7);
}

TEST(SE3, InverseComposesToIdentity)
{
    Rng rng(8);
    Twist xi{randomVec(rng), randomVec(rng)};
    SE3 t = SE3::exp(xi);
    SE3 id = t * t.inverse();
    expectMatNear(id.rot, Mat3f::identity(), 1e-5f);
    EXPECT_NEAR(id.trans.norm(), 0, 1e-5);
}

TEST(SE3, ApplyMatchesCompose)
{
    Rng rng(9);
    SE3 a = SE3::exp(Twist{randomVec(rng), randomVec(rng)});
    SE3 b = SE3::exp(Twist{randomVec(rng), randomVec(rng)});
    Vec3f p = randomVec(rng, 3);
    Vec3f viaCompose = (a * b).apply(p);
    Vec3f sequential = a.apply(b.apply(p));
    EXPECT_NEAR(viaCompose.x, sequential.x, 1e-4);
    EXPECT_NEAR(viaCompose.y, sequential.y, 1e-4);
    EXPECT_NEAR(viaCompose.z, sequential.z, 1e-4);
}

TEST(SE3, LookAtPutsTargetOnOpticalAxis)
{
    Vec3f eye{1, 2, 3};
    Vec3f target{4, 0, -1};
    SE3 pose = SE3::lookAt(eye, target);
    Vec3f t_cam = pose.apply(target);
    // Target straight ahead: x = y = 0, z = distance.
    EXPECT_NEAR(t_cam.x, 0, 1e-4);
    EXPECT_NEAR(t_cam.y, 0, 1e-4);
    EXPECT_NEAR(t_cam.z, (target - eye).norm(), 1e-4);
    // Eye maps to the origin.
    EXPECT_NEAR(pose.apply(eye).norm(), 0, 1e-4);
}

TEST(SE3, CentreIsInverseTranslation)
{
    SE3 pose = SE3::lookAt({5, -2, 1}, {0, 0, 0});
    Vec3f c = pose.centre();
    EXPECT_NEAR(c.x, 5, 1e-4);
    EXPECT_NEAR(c.y, -2, 1e-4);
    EXPECT_NEAR(c.z, 1, 1e-4);
}

TEST(SE3, RetractMatchesLeftMultiply)
{
    Rng rng(10);
    SE3 base = SE3::lookAt({1, 1, 1}, {0, 0, 0});
    Twist xi{randomVec(rng, Real(0.1)), randomVec(rng, Real(0.1))};
    SE3 a = base.retract(xi);
    SE3 b = SE3::exp(xi) * base;
    expectMatNear(a.rot, b.rot, 1e-6f);
    EXPECT_NEAR((a.trans - b.trans).norm(), 0, 1e-6);
}

TEST(SE3, DistancesAreSymmetric)
{
    SE3 a = SE3::lookAt({1, 0, 0}, {0, 0, 5});
    SE3 b = SE3::lookAt({0, 1, 0}, {0, 0, 5});
    EXPECT_NEAR(SE3::rotationDistance(a, b), SE3::rotationDistance(b, a),
                1e-5);
    EXPECT_NEAR(SE3::translationDistance(a, b),
                SE3::translationDistance(b, a), 1e-5);
    EXPECT_NEAR(SE3::rotationDistance(a, a), 0, 1e-5);
}

TEST(Camera, ProjectUnprojectRoundTrip)
{
    Intrinsics intr = Intrinsics::fromFov(Real(M_PI) / 2, 640, 480);
    Vec3f p{0.3f, -0.2f, 2.5f};
    Vec2f px = intr.project(p);
    Vec3f back = intr.unproject(px, p.z);
    EXPECT_NEAR(back.x, p.x, 1e-4);
    EXPECT_NEAR(back.y, p.y, 1e-4);
    EXPECT_NEAR(back.z, p.z, 1e-4);
}

TEST(Camera, PrincipalPointCentred)
{
    Intrinsics intr = Intrinsics::fromFov(Real(1.2), 320, 240);
    Vec2f px = intr.project({0, 0, 1});
    EXPECT_NEAR(px.x, 160, 1e-3);
    EXPECT_NEAR(px.y, 120, 1e-3);
}

TEST(Camera, ProjectionJacobianFiniteDifference)
{
    Intrinsics intr = Intrinsics::fromFov(Real(1.0), 640, 480);
    Vec3f p{0.4f, -0.3f, 2.0f};
    Mat2x3f J = intr.projectJacobian(p);
    const Real eps = Real(1e-3);
    for (int c = 0; c < 3; ++c) {
        Vec3f pp = p, pm = p;
        pp[c] += eps;
        pm[c] -= eps;
        Vec2f fd = (intr.project(pp) - intr.project(pm)) / (2 * eps);
        EXPECT_NEAR(J(0, c), fd.x, 1e-2) << "col " << c;
        EXPECT_NEAR(J(1, c), fd.y, 1e-2) << "col " << c;
    }
}

TEST(Camera, ScaledIntrinsicsKeepFov)
{
    Intrinsics intr = Intrinsics::fromFov(Real(1.1), 640, 480);
    Intrinsics half = intr.scaled(Real(0.5));
    EXPECT_EQ(half.width, 320u);
    EXPECT_EQ(half.height, 240u);
    // A world direction projects to proportionally scaled pixels.
    Vec3f p{0.2f, 0.1f, 1.5f};
    Vec2f full_px = intr.project(p);
    Vec2f half_px = half.project(p);
    EXPECT_NEAR(half_px.x, full_px.x * 0.5f, 0.51f);
    EXPECT_NEAR(half_px.y, full_px.y * 0.5f, 0.51f);
}

TEST(Twist, IndexingAndNorm)
{
    Twist xi{{1, 2, 3}, {4, 5, 6}};
    EXPECT_EQ(xi[0], 1);
    EXPECT_EQ(xi[3], 4);
    EXPECT_EQ(xi[5], 6);
    xi[1] = 10;
    EXPECT_EQ(xi.rho.y, 10);
    Twist small{{3, 0, 0}, {4, 0, 0}};
    EXPECT_NEAR(small.norm(), 5, 1e-6);
}

} // namespace rtgs
