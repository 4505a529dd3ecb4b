/**
 * @file
 * Golden-equivalence tests for the parallel cache-coherent splat
 * pipeline: the parallel projection + flat serial binning + per-tile
 * depth sort + splat-major rasterisation path must reproduce the seed's
 * serial AoS pipeline (gs/reference.hh) on randomised scenes — images
 * to 1e-6 per channel, workload counters and tile bins exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.hh"
#include "gs/reference.hh"
#include "gs/render_pipeline.hh"

namespace rtgs::gs
{

namespace
{

/** Randomised cloud + camera, same flavour as the property sweeps. */
struct RandomScene
{
    GaussianCloud cloud;
    Camera camera;

    explicit RandomScene(u64 seed, size_t count = 60)
    {
        Rng rng(seed);
        for (size_t i = 0; i < count; ++i) {
            Vec3f pos{static_cast<Real>(rng.uniform(-1.2, 1.2)),
                      static_cast<Real>(rng.uniform(-0.9, 0.9)),
                      static_cast<Real>(rng.uniform(1.2, 5.0))};
            Real scale = static_cast<Real>(rng.uniform(0.04, 0.4));
            Real opacity = static_cast<Real>(rng.uniform(0.05, 0.95));
            Vec3f rgb{static_cast<Real>(rng.uniform(0.05, 0.95)),
                      static_cast<Real>(rng.uniform(0.05, 0.95)),
                      static_cast<Real>(rng.uniform(0.05, 0.95))};
            cloud.pushIsotropic(pos, scale, opacity, rgb);
            if (i % 2 == 0) {
                cloud.logScales.mut()[i].x +=
                    static_cast<Real>(rng.uniform(-0.8, 0.8));
                cloud.rotations.mut()[i] = Quatf::fromAxisAngle(
                    {static_cast<Real>(rng.normal()),
                     static_cast<Real>(rng.normal()),
                     static_cast<Real>(rng.normal())},
                    static_cast<Real>(rng.uniform(0, 3)));
            }
        }
        camera = Camera(Intrinsics::fromFov(Real(1.2), 128, 96),
                        SE3::lookAt(
                            {static_cast<Real>(rng.uniform(-0.3, 0.3)),
                             static_cast<Real>(rng.uniform(-0.3, 0.3)),
                             static_cast<Real>(rng.uniform(-0.5, 0.0))},
                            {0, 0, 3}));
    }
};

} // namespace

class PipelineEquivalence : public ::testing::TestWithParam<u64>
{
};

TEST_P(PipelineEquivalence, ForwardMatchesSerialReference)
{
    RandomScene scene(GetParam());
    RenderSettings settings;
    settings.background = {0.1f, 0.2f, 0.3f};

    ReferenceForward ref =
        forwardReference(scene.cloud, scene.camera, settings);
    RenderPipeline pipe(settings);
    ForwardContext ctx = pipe.forward(scene.cloud, scene.camera);

    ASSERT_EQ(ref.result.image.pixelCount(),
              ctx.result.image.pixelCount());
    double max_diff = 0;
    for (size_t i = 0; i < ref.result.image.pixelCount(); ++i) {
        const Vec3f &a = ref.result.image[i];
        const Vec3f &b = ctx.result.image[i];
        max_diff = std::max(max_diff, std::abs(double(a.x) - double(b.x)));
        max_diff = std::max(max_diff, std::abs(double(a.y) - double(b.y)));
        max_diff = std::max(max_diff, std::abs(double(a.z) - double(b.z)));
        EXPECT_NEAR(ref.result.depth[i], ctx.result.depth[i], 1e-6);
        EXPECT_NEAR(ref.result.alpha[i], ctx.result.alpha[i], 1e-6);
        EXPECT_NEAR(ref.result.finalT[i], ctx.result.finalT[i], 1e-6);
        // Workload counters feed the hardware models; exact match.
        EXPECT_EQ(ref.result.nContrib[i], ctx.result.nContrib[i]);
        EXPECT_EQ(ref.result.nBlended[i], ctx.result.nBlended[i]);
    }
    EXPECT_LE(max_diff, 1e-6);
}

TEST_P(PipelineEquivalence, FlatBinsMatchReferenceLists)
{
    RandomScene scene(GetParam());
    RenderSettings settings;
    ProjectedCloud proj =
        projectGaussians(scene.cloud, scene.camera, settings);
    TileGrid grid(scene.camera.intr.width, scene.camera.intr.height,
                  settings.tileSize);

    ReferenceTileLists ref = intersectTilesReference(proj, grid);
    TileBins bins = intersectTiles(proj, grid);

    ASSERT_EQ(bins.tiles, grid.tileCount());
    ASSERT_EQ(bins.totalIntersections(), ref.totalIntersections());
    for (u32 t = 0; t < grid.tileCount(); ++t) {
        ASSERT_EQ(bins.count(t), ref.lists[t].size()) << "tile " << t;
        // Pre-sort, both emit ascending Gaussian order.
        for (u32 i = 0; i < bins.count(t); ++i)
            EXPECT_EQ(bins.tileData(t)[i], ref.lists[t][i]);
    }

    // After sorting, both orders coincide too: the per-tile key sort
    // breaks depth ties by ascending id, which is the order the
    // per-tile stable_sort keeps.
    sortTilesByDepthReference(ref, proj);
    sortTilesByDepth(bins, proj);
    EXPECT_TRUE(tilesAreDepthSorted(bins, proj));
    for (u32 t = 0; t < grid.tileCount(); ++t)
        for (u32 i = 0; i < bins.count(t); ++i)
            EXPECT_EQ(bins.tileData(t)[i], ref.lists[t][i]);
}

TEST_P(PipelineEquivalence, ProjectionMatchesSerialReference)
{
    RandomScene scene(GetParam());
    RenderSettings settings;
    ProjectedCloud par =
        projectGaussians(scene.cloud, scene.camera, settings);
    ProjectedCloud ser =
        projectGaussiansReference(scene.cloud, scene.camera, settings);

    ASSERT_EQ(par.size(), ser.size());
    for (size_t k = 0; k < par.size(); ++k) {
        ASSERT_EQ(par[k].valid, ser[k].valid);
        if (!par[k].valid)
            continue;
        EXPECT_EQ(par[k].mean2d.x, ser[k].mean2d.x);
        EXPECT_EQ(par[k].mean2d.y, ser[k].mean2d.y);
        EXPECT_EQ(par[k].depth, ser[k].depth);
        EXPECT_EQ(par[k].conic.xx, ser[k].conic.xx);
        EXPECT_EQ(par[k].radius, ser[k].radius);
    }
}

namespace
{

/**
 * Tolerance for splat-major vs pixel-major backward agreement. The
 * splat-major kernel recovers the per-fragment transmittance by
 * dividing the running rear transmittance by (1 - alpha) instead of
 * replaying the forward product, and folds per-(tile, splat) partial
 * sums before the global reduction — both ulp-level perturbations
 * *relative to the magnitudes being summed*. Because those sums cancel
 * (gradients of hundreds collapse to order-one values), the bound must
 * scale with the largest magnitude in the gradient class, not with the
 * individual final value.
 */
template <typename Get>
void
expectClassNear(size_t n, const char *what, Get &&get)
{
    double scale = 1;
    for (size_t k = 0; k < n; ++k)
        scale = std::max(scale, std::abs(get(k).second));
    const double tol = 5e-6 + 1e-5 * scale;
    for (size_t k = 0; k < n; ++k) {
        auto [a, b] = get(k);
        EXPECT_NEAR(a, b, tol) << what << " k=" << k;
    }
}

/** Compare every gradient class of two backward results. */
void
expectBackwardNear(const BackwardResult &par, const BackwardResult &ser,
                   size_t n, bool check_pose)
{
    for (int c = 0; c < 3; ++c) {
        expectClassNear(n, "dPositions", [&, c](size_t k) {
            return std::pair<double, double>(par.grads.dPositions[k][c],
                                             ser.grads.dPositions[k][c]);
        });
        expectClassNear(n, "dLogScales", [&, c](size_t k) {
            return std::pair<double, double>(par.grads.dLogScales[k][c],
                                             ser.grads.dLogScales[k][c]);
        });
        expectClassNear(n, "dShCoeffs", [&, c](size_t k) {
            return std::pair<double, double>(par.grads.dShCoeffs[k][c],
                                             ser.grads.dShCoeffs[k][c]);
        });
    }
    expectClassNear(n, "dOpacityLogits", [&](size_t k) {
        return std::pair<double, double>(par.grads.dOpacityLogits[k],
                                         ser.grads.dOpacityLogits[k]);
    });
    expectClassNear(n, "grad2d.dDepth", [&](size_t k) {
        return std::pair<double, double>(par.grad2d.dDepth[k],
                                         ser.grad2d.dDepth[k]);
    });
    expectClassNear(n, "grad2d.dOpacityAct", [&](size_t k) {
        return std::pair<double, double>(par.grad2d.dOpacityAct[k],
                                         ser.grad2d.dOpacityAct[k]);
    });
    if (check_pose) {
        expectClassNear(6, "poseGrad", [&](size_t c) {
            return std::pair<double, double>(par.poseGrad[c],
                                             ser.poseGrad[c]);
        });
    }
}

} // namespace

TEST_P(PipelineEquivalence, BackwardMatchesSerialFull)
{
    RandomScene scene(GetParam());
    RenderSettings settings;
    RenderPipeline pipe(settings);
    ForwardContext ctx = pipe.forward(scene.cloud, scene.camera);

    ImageRGB adj(ctx.grid.width, ctx.grid.height, {0.4f, -0.2f, 0.3f});
    // Splat-major threaded backward vs the seed's pixel-major serial
    // walk over the same bins.
    BackwardResult par =
        pipe.backward(scene.cloud, ctx, adj, nullptr, true);
    BackwardResult ser = backwardFull(
        scene.cloud, ctx.projected, ctx.bins, ctx.grid, settings,
        ctx.result, ctx.camera, adj, nullptr, true);

    expectBackwardNear(par, ser, scene.cloud.size(), true);
}

TEST_P(PipelineEquivalence, BackwardDepthGradMatchesSerialFull)
{
    // Depth-adjoint path: the splat-major kernel must reproduce the
    // reference's dL/dDepth flow (the colour-only sweep above leaves
    // dlD identically zero and would not catch a broken depth path).
    RandomScene scene(GetParam());
    RenderSettings settings;
    RenderPipeline pipe(settings);
    ForwardContext ctx = pipe.forward(scene.cloud, scene.camera);

    ImageRGB adj(ctx.grid.width, ctx.grid.height, {0.2f, -0.1f, 0.25f});
    ImageF adj_depth(ctx.grid.width, ctx.grid.height);
    for (u32 y = 0; y < ctx.grid.height; ++y)
        for (u32 x = 0; x < ctx.grid.width; ++x)
            adj_depth.at(x, y) =
                Real(0.05) * std::sin(Real(0.21) * x) +
                Real(0.04) * std::cos(Real(0.17) * y);

    BackwardResult par =
        pipe.backward(scene.cloud, ctx, adj, &adj_depth, true);
    BackwardResult ser = backwardFull(
        scene.cloud, ctx.projected, ctx.bins, ctx.grid, settings,
        ctx.result, ctx.camera, adj, &adj_depth, true);

    // The depth adjoint must actually reach the 2D gradients.
    Real total_ddepth = 0;
    for (size_t k = 0; k < scene.cloud.size(); ++k)
        total_ddepth += std::abs(ser.grad2d.dDepth[k]);
    EXPECT_GT(total_ddepth, 0);

    expectBackwardNear(par, ser, scene.cloud.size(), true);
}

TEST_P(PipelineEquivalence, BackwardClampedAlphaMatchesSerialFull)
{
    // Near-opaque splats push raw alpha = opacity * G above alphaMax at
    // their cores, exercising the saturation branch (gradient through
    // alpha zeroed, but colour/depth gradients and the compositing
    // recurrences still run) that the uniform(0.05, 0.95) opacity
    // sweeps never reach.
    RandomScene scene(GetParam());
    for (size_t k = 0; k < scene.cloud.size(); k += 2)
        scene.cloud.opacityLogits.mut()[k] = inverseSigmoid(Real(0.999));

    RenderSettings settings;
    RenderPipeline pipe(settings);
    ForwardContext ctx = pipe.forward(scene.cloud, scene.camera);

    // At least one projected splat must be able to saturate.
    Real max_opacity = 0;
    for (size_t k = 0; k < ctx.projected.size(); ++k)
        if (ctx.projected[k].valid)
            max_opacity = std::max(max_opacity, ctx.projected[k].opacity);
    ASSERT_GT(max_opacity, settings.alphaMax);

    ImageRGB adj(ctx.grid.width, ctx.grid.height, {0.3f, 0.2f, -0.15f});
    ImageF adj_depth(ctx.grid.width, ctx.grid.height, Real(0.03));

    BackwardResult par =
        pipe.backward(scene.cloud, ctx, adj, &adj_depth, true);
    BackwardResult ser = backwardFull(
        scene.cloud, ctx.projected, ctx.bins, ctx.grid, settings,
        ctx.result, ctx.camera, adj, &adj_depth, true);

    expectBackwardNear(par, ser, scene.cloud.size(), true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineEquivalence,
                         ::testing::Values(3u, 17u, 42u, 99u));

TEST(PipelineEquivalence, SubAlphaMinOpacitiesMatchReference)
{
    // Opacities straddling alphaMin (1/255) exercise the rasterizer's
    // whole-splat skip (q <= 0) and the near-threshold powerSkip
    // margin, which the uniform(0.05, 0.95) sweeps never reach.
    Rng rng(777);
    GaussianCloud cloud;
    for (int i = 0; i < 48; ++i) {
        Vec3f pos{static_cast<Real>(rng.uniform(-1.0, 1.0)),
                  static_cast<Real>(rng.uniform(-0.8, 0.8)),
                  static_cast<Real>(rng.uniform(1.5, 4.0))};
        Real opacity = static_cast<Real>(rng.uniform(0.0005, 0.008));
        cloud.pushIsotropic(pos,
                            static_cast<Real>(rng.uniform(0.05, 0.3)),
                            opacity,
                            {static_cast<Real>(rng.uniform(0, 1)),
                             static_cast<Real>(rng.uniform(0, 1)),
                             static_cast<Real>(rng.uniform(0, 1))});
    }
    Camera cam(Intrinsics::fromFov(Real(1.2), 128, 96),
               SE3::lookAt({0.1f, -0.1f, -0.3f}, {0, 0, 2.5f}));
    RenderSettings settings;
    settings.background = {0.3f, 0.1f, 0.2f};

    ReferenceForward ref = forwardReference(cloud, cam, settings);
    RenderPipeline pipe(settings);
    ForwardContext ctx = pipe.forward(cloud, cam);

    for (size_t i = 0; i < ref.result.image.pixelCount(); ++i) {
        EXPECT_NEAR(ref.result.image[i].x, ctx.result.image[i].x, 1e-6);
        EXPECT_NEAR(ref.result.image[i].y, ctx.result.image[i].y, 1e-6);
        EXPECT_NEAR(ref.result.image[i].z, ctx.result.image[i].z, 1e-6);
        EXPECT_NEAR(ref.result.finalT[i], ctx.result.finalT[i], 1e-6);
        EXPECT_EQ(ref.result.nContrib[i], ctx.result.nContrib[i]);
        EXPECT_EQ(ref.result.nBlended[i], ctx.result.nBlended[i]);
    }
}

TEST(Rasterizer, EmptyTileFastPathFillsBackground)
{
    // One tiny splat in the image corner: every other tile must take
    // the empty-bin fast path and still carry exact background state.
    GaussianCloud cloud;
    cloud.pushIsotropic({-0.8f, -0.6f, 2.0f}, Real(0.01), Real(0.8),
                        {1, 0, 0});
    RenderPipeline pipe;
    pipe.settings().background = {0.25f, 0.5f, 0.75f};
    Camera cam(Intrinsics::fromFov(Real(M_PI) / 2, 64, 64),
               SE3::identity());
    ForwardContext ctx = pipe.forward(cloud, cam);

    u32 empty_tiles = 0;
    for (u32 t = 0; t < ctx.grid.tileCount(); ++t) {
        if (ctx.bins.count(t) != 0)
            continue;
        ++empty_tiles;
        u32 x0, y0, x1, y1;
        ctx.grid.tileBounds(t, x0, y0, x1, y1);
        for (u32 py = y0; py < y1; ++py) {
            for (u32 px = x0; px < x1; ++px) {
                EXPECT_EQ(ctx.result.image.at(px, py).x, 0.25f);
                EXPECT_EQ(ctx.result.image.at(px, py).z, 0.75f);
                EXPECT_EQ(ctx.result.alpha.at(px, py), 0);
                EXPECT_EQ(ctx.result.finalT.at(px, py), 1);
                EXPECT_EQ(ctx.result.nContrib.at(px, py), 0u);
            }
        }
    }
    EXPECT_GT(empty_tiles, 0u);
}

} // namespace rtgs::gs
