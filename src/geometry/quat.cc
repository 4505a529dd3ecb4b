#include "geometry/quat.hh"

#include <cmath>

namespace rtgs
{

Quatf
Quatf::fromAxisAngle(const Vec3f &axis, Real angle)
{
    Vec3f a = axis.normalized();
    Real half = Real(0.5) * angle;
    Real s = std::sin(half);
    return {std::cos(half), a.x * s, a.y * s, a.z * s};
}

Real
Quatf::norm() const
{
    return std::sqrt(w * w + x * x + y * y + z * z);
}

Quatf
Quatf::normalized() const
{
    Real n = norm();
    if (n <= Real(0))
        return identity();
    Real inv = Real(1) / n;
    return {w * inv, x * inv, y * inv, z * inv};
}

Mat3f
Quatf::toMat() const
{
    Quatf q = normalized();
    Real r = q.w, i = q.x, j = q.y, k = q.z;
    Mat3f R;
    R(0, 0) = 1 - 2 * (j * j + k * k);
    R(0, 1) = 2 * (i * j - r * k);
    R(0, 2) = 2 * (i * k + r * j);
    R(1, 0) = 2 * (i * j + r * k);
    R(1, 1) = 1 - 2 * (i * i + k * k);
    R(1, 2) = 2 * (j * k - r * i);
    R(2, 0) = 2 * (i * k - r * j);
    R(2, 1) = 2 * (j * k + r * i);
    R(2, 2) = 1 - 2 * (i * i + j * j);
    return R;
}

Quatf
rotationMatrixBackward(const Quatf &raw, const Mat3f &dL)
{
    // Gradient w.r.t. the *normalised* quaternion first.
    Quatf q = raw.normalized();
    Real r = q.w, i = q.x, j = q.y, k = q.z;

    Quatf dq;
    dq.w = 2 * (i * (dL(2, 1) - dL(1, 2)) + j * (dL(0, 2) - dL(2, 0)) +
                k * (dL(1, 0) - dL(0, 1)));
    dq.x = 2 * (-2 * i * (dL(1, 1) + dL(2, 2)) +
                j * (dL(0, 1) + dL(1, 0)) + k * (dL(0, 2) + dL(2, 0)) +
                r * (dL(2, 1) - dL(1, 2)));
    dq.y = 2 * (i * (dL(0, 1) + dL(1, 0)) -
                2 * j * (dL(0, 0) + dL(2, 2)) +
                k * (dL(1, 2) + dL(2, 1)) + r * (dL(0, 2) - dL(2, 0)));
    dq.z = 2 * (i * (dL(0, 2) + dL(2, 0)) + j * (dL(1, 2) + dL(2, 1)) -
                2 * k * (dL(0, 0) + dL(1, 1)) + r * (dL(1, 0) - dL(0, 1)));

    // Chain through normalisation q = raw / |raw|:
    // d(raw) = (I - q q^T) / |raw| applied to dq.
    Real n = raw.norm();
    if (n <= Real(0))
        return {0, 0, 0, 0};
    Real dot = dq.w * r + dq.x * i + dq.y * j + dq.z * k;
    Real inv = Real(1) / n;
    return {(dq.w - r * dot) * inv, (dq.x - i * dot) * inv,
            (dq.y - j * dot) * inv, (dq.z - k * dot) * inv};
}

} // namespace rtgs
