/**
 * @file
 * Unit quaternions for Gaussian orientations.
 *
 * Convention: q = (w, x, y, z), Hamilton product, rotation matrix of the
 * normalised quaternion matches the reference 3DGS implementation so that
 * covariance construction (R S S^T R^T) and its backward pass line up.
 */

#ifndef RTGS_GEOMETRY_QUAT_HH
#define RTGS_GEOMETRY_QUAT_HH

#include "geometry/mat.hh"
#include "geometry/vec.hh"

namespace rtgs
{

/** Quaternion (w, x, y, z). Not required to be normalised on storage. */
struct Quatf
{
    Real w = 1, x = 0, y = 0, z = 0;

    Quatf() = default;
    Quatf(Real w_, Real x_, Real y_, Real z_) : w(w_), x(x_), y(y_), z(z_) {}

    /** Quaternion for a rotation of `angle` radians about `axis`. */
    static Quatf fromAxisAngle(const Vec3f &axis, Real angle);

    /** Identity rotation. */
    static Quatf identity() { return {1, 0, 0, 0}; }

    Real norm() const;
    Quatf normalized() const;

    /** Rotation matrix of the *normalised* quaternion. */
    Mat3f toMat() const;
};

/**
 * Backward pass of Quatf::toMat through the normalisation: given
 * dL/dR (3x3), return dL/d(raw quaternion components).
 */
Quatf rotationMatrixBackward(const Quatf &raw, const Mat3f &dl_drot);

} // namespace rtgs

#endif // RTGS_GEOMETRY_QUAT_HH
