#include "oracle/reference.hh"

#include <algorithm>
#include <cmath>

#include "gs/row_kernels.hh"

namespace rtgs::gs
{

u64
ReferenceTileLists::totalIntersections() const
{
    u64 n = 0;
    for (const auto &l : lists)
        n += l.size();
    return n;
}

ProjectedCloud
projectGaussiansReference(const GaussianCloud &cloud, const Camera &camera)
{
    ProjectedCloud out;
    out.items.resize(cloud.size());

    const Mat3f &W = camera.pose.rot;
    const Intrinsics &intr = camera.intr;

    for (size_t k = 0; k < cloud.size(); ++k) {
        Projected2D &p = out.items[k];
        if (!cloud.active[k])
            continue;

        Vec3f t = camera.pose.apply(cloud.positions[k]);
        if (t.z < kNearClip || t.z > kFarClip)
            continue;

        // 2D mean via exact pinhole projection.
        Vec2f mean2d = intr.project(t);

        // 3D covariance from scale and rotation: Sigma = M M^T, M = R S.
        Mat3f R = cloud.rotations[k].toMat();
        Vec3f scale{std::exp(cloud.logScales[k].x),
                    std::exp(cloud.logScales[k].y),
                    std::exp(cloud.logScales[k].z)};
        Mat3f M = R * Mat3f::diagonal(scale);
        Mat3f sigma3d = M * M.transpose();

        // EWA: cov2d = J W Sigma W^T J^T with J the projection Jacobian
        // evaluated at the frustum-clamped point (see clampedCamPoint).
        bool cx, cy;
        Vec3f tc = clampedCamPoint(intr, t, cx, cy);
        Mat2x3f J = intr.projectJacobian(tc);
        Mat2x3f T = J * W;
        Mat2x3f TS = T * sigma3d;
        Sym2f cov2d = Sym2f::fromMat(TS.multTranspose(T));

        Sym2f cov_blur = cov2d;
        cov_blur.xx += kCovBlur;
        cov_blur.yy += kCovBlur;
        Real det = cov_blur.det();
        if (det <= Real(0))
            continue;

        Real radius = kRadiusSigma * std::sqrt(cov_blur.maxEigen());
        if (radius < Real(0.5))
            continue;

        // Cull splats entirely outside the image (with footprint margin).
        if (mean2d.x + radius < 0 ||
            mean2d.x - radius > static_cast<Real>(intr.width) ||
            mean2d.y + radius < 0 ||
            mean2d.y - radius > static_cast<Real>(intr.height)) {
            continue;
        }

        p.mean2d = mean2d;
        p.depth = t.z;
        p.conic = cov_blur.inverse();
        p.opacity = cloud.opacity(k);

        Vec3f raw = cloud.shCoeffs[k] * shC0 + Vec3f{0.5f, 0.5f, 0.5f};
        p.color = {std::max(Real(0), raw.x), std::max(Real(0), raw.y),
                   std::max(Real(0), raw.z)};
        p.colorClampMask = {raw.x > 0 ? Real(1) : Real(0),
                            raw.y > 0 ? Real(1) : Real(0),
                            raw.z > 0 ? Real(1) : Real(0)};
        p.radius = radius;
        p.camPoint = t;
        p.valid = true;
    }
    return out;
}

ReferenceTileLists
intersectTilesReference(const ProjectedCloud &projected,
                        const TileGrid &grid)
{
    ReferenceTileLists bins;
    bins.lists.resize(grid.tileCount());

    auto clamp_tile = [](long v, long hi) {
        return static_cast<u32>(std::clamp<long>(v, 0, hi));
    };

    for (size_t k = 0; k < projected.size(); ++k) {
        const Projected2D &p = projected[k];
        if (!p.valid)
            continue;
        long ts = static_cast<long>(grid.tileSize);
        long tx0 = static_cast<long>(
            std::floor((p.mean2d.x - p.radius) / ts));
        long tx1 = static_cast<long>(
            std::floor((p.mean2d.x + p.radius) / ts));
        long ty0 = static_cast<long>(
            std::floor((p.mean2d.y - p.radius) / ts));
        long ty1 = static_cast<long>(
            std::floor((p.mean2d.y + p.radius) / ts));
        tx0 = clamp_tile(tx0, grid.tilesX - 1);
        tx1 = clamp_tile(tx1, grid.tilesX - 1);
        ty0 = clamp_tile(ty0, grid.tilesY - 1);
        ty1 = clamp_tile(ty1, grid.tilesY - 1);
        for (long ty = ty0; ty <= ty1; ++ty)
            for (long tx = tx0; tx <= tx1; ++tx)
                bins.lists[static_cast<size_t>(ty) * grid.tilesX + tx]
                    .push_back(static_cast<u32>(k));
    }
    return bins;
}

void
sortTilesByDepthReference(ReferenceTileLists &lists,
                          const ProjectedCloud &projected)
{
    for (auto &list : lists.lists) {
        std::stable_sort(list.begin(), list.end(),
                         [&projected](u32 a, u32 b) {
                             return projected[a].depth < projected[b].depth;
                         });
    }
}

namespace
{

void
rasterizeTileReference(u32 tile, const ProjectedCloud &projected,
                       const ReferenceTileLists &bins, const TileGrid &grid,
                       const RenderSettings &settings, RenderResult &result)
{
    u32 x0, y0, x1, y1;
    grid.tileBounds(tile, x0, y0, x1, y1);
    const auto &list = bins.lists[tile];

    for (u32 py = y0; py < y1; ++py) {
        for (u32 px = x0; px < x1; ++px) {
            // Pixel centre convention matches the reference rasteriser.
            Vec2f pixel{static_cast<Real>(px) + Real(0.5),
                        static_cast<Real>(py) + Real(0.5)};
            Real T = 1;
            Vec3f color{};
            Real depth_acc = 0;
            u32 iterated = 0;
            u32 blended = 0;

            for (u32 idx : list) {
                const Projected2D &g = projected[idx];
                ++iterated;

                Vec2f d = pixel - g.mean2d;
                Real power = Real(-0.5) * g.conic.quadForm(d);
                if (power > 0)
                    continue;
                Real alpha = std::min(kAlphaMax,
                                      g.opacity * expExact(power));
                if (alpha < settings.alphaMin)
                    continue;

                Real t_next = T * (1 - alpha);
                // Early termination preserves compositing order (Sec 2.1).
                color += g.color * (alpha * T);
                depth_acc += g.depth * (alpha * T);
                ++blended;
                T = t_next;
                if (T < settings.transmittanceEps)
                    break;
            }

            color += settings.background * T;
            result.image.at(px, py) = color;
            result.depth.at(px, py) = depth_acc;
            result.alpha.at(px, py) = 1 - T;
            result.finalT.at(px, py) = T;
            result.nContrib.at(px, py) = iterated;
            result.nBlended.at(px, py) = blended;
        }
    }
}

} // namespace

RenderResult
rasterizeReference(const ProjectedCloud &projected,
                   const ReferenceTileLists &lists, const TileGrid &grid,
                   const RenderSettings &settings)
{
    RenderResult result = makeRenderResult(grid);
    for (u32 t = 0; t < grid.tileCount(); ++t)
        rasterizeTileReference(t, projected, lists, grid, settings, result);
    return result;
}

ReferenceForward
forwardReference(const GaussianCloud &cloud, const Camera &camera,
                 const RenderSettings &settings)
{
    ReferenceForward ctx;
    ctx.grid = TileGrid(camera.intr.width, camera.intr.height,
                        settings.tileSize);
    ctx.projected = projectGaussiansReference(cloud, camera);
    ctx.lists = intersectTilesReference(ctx.projected, ctx.grid);
    sortTilesByDepthReference(ctx.lists, ctx.projected);
    ctx.result = rasterizeReference(ctx.projected, ctx.lists, ctx.grid,
                                    settings);
    return ctx;
}

} // namespace rtgs::gs
