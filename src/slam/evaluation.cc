#include "slam/evaluation.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace rtgs::slam
{

namespace
{

/**
 * Eigendecomposition of a symmetric 3x3 matrix by Jacobi rotations,
 * eigenpairs sorted by descending eigenvalue (alignTrajectories' SVD
 * of the cross-covariance runs through its A^T A).
 */
void
jacobiEigenSym3(const Mat3d &a, Mat3d &vectors, Vec3d &values)
{
    Mat3d m = a;
    Mat3d v = Mat3d::identity();
    for (int sweep = 0; sweep < 32; ++sweep) {
        // Largest off-diagonal element.
        int p = 0, q = 1;
        double off = std::abs(m(0, 1));
        if (std::abs(m(0, 2)) > off) { off = std::abs(m(0, 2)); p = 0; q = 2; }
        if (std::abs(m(1, 2)) > off) { off = std::abs(m(1, 2)); p = 1; q = 2; }
        if (off < 1e-15)
            break;
        double theta = (m(q, q) - m(p, p)) / (2 * m(p, q));
        double t = (theta >= 0 ? 1.0 : -1.0) /
                   (std::abs(theta) + std::sqrt(theta * theta + 1));
        double c = 1.0 / std::sqrt(t * t + 1);
        double s = t * c;
        Mat3d r = Mat3d::identity();
        r(p, p) = c; r(q, q) = c; r(p, q) = s; r(q, p) = -s;
        m = r.transpose() * m * r;
        v = v * r;
    }
    int order[3] = {0, 1, 2};
    std::sort(order, order + 3,
              [&m](int a, int b) { return m(a, a) > m(b, b); });
    for (int c = 0; c < 3; ++c) {
        values[c] = m(order[c], order[c]);
        for (int r = 0; r < 3; ++r)
            vectors(r, c) = v(r, order[c]);
    }
}

} // namespace

SE3
alignTrajectories(const std::vector<SE3> &estimated,
                  const std::vector<SE3> &ground_truth)
{
    rtgs_assert(estimated.size() == ground_truth.size(),
                "trajectories must pair frames");
    size_t n = estimated.size();
    if (n == 0)
        return SE3::identity();

    // Camera centres.
    Vec3d mu_e{}, mu_g{};
    std::vector<Vec3d> ce(n), cg(n);
    for (size_t i = 0; i < n; ++i) {
        Vec3f e = estimated[i].centre();
        Vec3f g = ground_truth[i].centre();
        ce[i] = {e.x, e.y, e.z};
        cg[i] = {g.x, g.y, g.z};
        mu_e += ce[i];
        mu_g += cg[i];
    }
    mu_e = mu_e * (1.0 / static_cast<double>(n));
    mu_g = mu_g * (1.0 / static_cast<double>(n));

    // Cross-covariance H = sum (g - mu_g)(e - mu_e)^T.
    Mat3d h;
    for (size_t i = 0; i < n; ++i) {
        Vec3d de = ce[i] - mu_e;
        Vec3d dg = cg[i] - mu_g;
        for (int r = 0; r < 3; ++r)
            for (int c = 0; c < 3; ++c)
                h(r, c) += dg[r] * de[c];
    }

    // SVD of H via eigendecomposition: H = U S V^T with
    // H^T H = V S^2 V^T and U = H V S^-1.
    Mat3d hth = h.transpose() * h;
    Mat3d v;
    Vec3d s2;
    jacobiEigenSym3(hth, v, s2);
    Mat3d u;
    for (int c = 0; c < 3; ++c) {
        double s = std::sqrt(std::max(0.0, s2[c]));
        Vec3d col = h * v.col(c);
        if (s > 1e-12)
            col = col * (1.0 / s);
        for (int r = 0; r < 3; ++r)
            u(r, c) = col[r];
    }
    // Guard degenerate columns (static, collinear and planar
    // trajectories leave H rank-deficient): re-orthogonalise U via
    // cross products, relying on the descending singular-value order.
    Vec3d u0 = u.col(0), u1 = u.col(1);
    if (u0.norm() < 0.5) u0 = {1, 0, 0};
    u0 = u0 * (1.0 / u0.norm());
    u1 = u1 - u0 * u0.dot(u1);
    if (u1.norm() < 1e-9) {
        // Any unit vector orthogonal to u0 will do; crossing with the
        // axis u0 is least aligned with never yields zero.
        int least = 0;
        for (int k = 1; k < 3; ++k)
            if (std::abs(u0[k]) < std::abs(u0[least]))
                least = k;
        Vec3d axis{0, 0, 0};
        axis[least] = 1;
        u1 = u0.cross(axis);
    }
    u1 = u1 * (1.0 / u1.norm());
    Vec3d u2 = u0.cross(u1);
    for (int r = 0; r < 3; ++r) { u(r,0)=u0[r]; u(r,1)=u1[r]; u(r,2)=u2[r]; }

    Mat3d rot = u * v.transpose();
    if (rot.det() < 0) {
        // Reflection fix (Umeyama): flip the smallest singular vector.
        for (int r = 0; r < 3; ++r)
            u(r, 2) = -u(r, 2);
        rot = u * v.transpose();
    }

    Vec3d t = mu_g - rot * mu_e;
    Mat3f rot_f;
    for (int r = 0; r < 3; ++r)
        for (int c = 0; c < 3; ++c)
            rot_f(r, c) = static_cast<Real>(rot(r, c));
    return {rot_f, {static_cast<Real>(t.x), static_cast<Real>(t.y),
                    static_cast<Real>(t.z)}};
}

AteResult
computeAte(const std::vector<SE3> &estimated,
           const std::vector<SE3> &ground_truth)
{
    AteResult out;
    size_t n = estimated.size();
    if (n == 0)
        return out;
    SE3 align = alignTrajectories(estimated, ground_truth);
    double sum_sq = 0;
    out.perFrame.resize(n);
    for (size_t i = 0; i < n; ++i) {
        Vec3f mapped = align.apply(estimated[i].centre());
        double err = static_cast<double>(
            (mapped - ground_truth[i].centre()).norm());
        out.perFrame[i] = err;
        sum_sq += err * err;
        out.mean += err;
        out.max = std::max(out.max, err);
    }
    out.rmse = std::sqrt(sum_sq / static_cast<double>(n));
    out.mean /= static_cast<double>(n);
    return out;
}

std::vector<double>
cumulativeAte(const std::vector<SE3> &estimated,
              const std::vector<SE3> &ground_truth)
{
    rtgs_assert(estimated.size() == ground_truth.size());
    std::vector<double> out(estimated.size(), 0.0);
    for (size_t i = 0; i < estimated.size(); ++i) {
        std::vector<SE3> e(estimated.begin(),
                           estimated.begin() + static_cast<long>(i) + 1);
        std::vector<SE3> g(ground_truth.begin(),
                           ground_truth.begin() + static_cast<long>(i) + 1);
        out[i] = computeAte(e, g).rmse;
    }
    return out;
}

} // namespace rtgs::slam
