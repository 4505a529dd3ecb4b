/**
 * @file
 * Forward-rendering tests: projection geometry, tile binning, depth
 * sorting, analytic alpha blending, early termination, masking, and the
 * workload counters the hardware models rely on.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "gs/render_pipeline.hh"

namespace rtgs::gs
{

namespace
{

Camera
testCamera(u32 w = 64, u32 h = 64)
{
    // Identity pose: camera at origin looking down +z.
    return {Intrinsics::fromFov(Real(M_PI) / 2, w, h), SE3::identity()};
}

} // namespace

TEST(Projection, CentreGaussianProjectsToImageCentre)
{
    GaussianCloud cloud;
    cloud.pushIsotropic({0, 0, 2}, Real(0.2), Real(0.5), {1, 0, 0});
    Camera cam = testCamera();
    ProjectedCloud proj = projectGaussians(cloud, cam, {});
    ASSERT_EQ(proj.size(), 1u);
    ASSERT_TRUE(proj[0].valid);
    EXPECT_NEAR(proj[0].mean2d.x, 32, 1e-3);
    EXPECT_NEAR(proj[0].mean2d.y, 32, 1e-3);
    EXPECT_NEAR(proj[0].depth, 2, 1e-5);
}

TEST(Projection, BehindCameraIsCulled)
{
    GaussianCloud cloud;
    cloud.pushIsotropic({0, 0, -2}, Real(0.2), Real(0.5), {1, 0, 0});
    ProjectedCloud proj = projectGaussians(cloud, testCamera(), {});
    EXPECT_FALSE(proj[0].valid);
    EXPECT_EQ(proj.validCount(), 0u);
}

TEST(Projection, MaskedGaussianIsSkipped)
{
    GaussianCloud cloud;
    cloud.pushIsotropic({0, 0, 2}, Real(0.2), Real(0.5), {1, 0, 0});
    cloud.active.mut()[0] = 0;
    ProjectedCloud proj = projectGaussians(cloud, testCamera(), {});
    EXPECT_FALSE(proj[0].valid);
}

TEST(Projection, OffscreenGaussianIsCulled)
{
    GaussianCloud cloud;
    // Far outside the 90-degree frustum to the left.
    cloud.pushIsotropic({-50, 0, 2}, Real(0.1), Real(0.5), {1, 0, 0});
    ProjectedCloud proj = projectGaussians(cloud, testCamera(), {});
    EXPECT_FALSE(proj[0].valid);
}

TEST(Projection, NonFiniteGaussianIsCulledAndLeavesImageUnchanged)
{
    // A NaN depth makes both `z < near` and `z > far` false, and a NaN
    // scale gives a NaN radius and conic. Left valid, either Gaussian
    // reaches binning, where casting floor(NaN) to a tile coordinate is
    // undefined (on x86 it bins the Gaussian to tile 0, which it paints).
    const Real nan = std::numeric_limits<Real>::quiet_NaN();
    GaussianCloud clean;
    clean.pushIsotropic({0.1f, 0.1f, 2}, Real(0.05), Real(0.7),
                        {0, 1, 0});
    GaussianCloud dirty = clean;
    dirty.pushIsotropic({nan, nan, nan}, Real(0.2), Real(0.9), {1, 0, 0});
    dirty.pushIsotropic({0, 0, 2}, Real(0.2), Real(0.9), {1, 0, 0});
    dirty.logScales.mut()[2] = {nan, nan, nan};

    RenderPipeline pipe;
    Camera cam = testCamera(64, 48);
    ForwardContext want = pipe.forward(clean, cam);
    ForwardContext got = pipe.forward(dirty, cam);

    ASSERT_TRUE(got.projected[0].valid);
    EXPECT_FALSE(got.projected[1].valid);
    EXPECT_FALSE(got.projected[2].valid);
    EXPECT_EQ(got.bins.totalIntersections(),
              want.bins.totalIntersections());
    for (size_t i = 0; i < want.result.image.pixelCount(); ++i) {
        ASSERT_EQ(got.result.image[i].x, want.result.image[i].x) << i;
        ASSERT_EQ(got.result.image[i].y, want.result.image[i].y) << i;
        ASSERT_EQ(got.result.image[i].z, want.result.image[i].z) << i;
        ASSERT_EQ(got.result.alpha[i], want.result.alpha[i]) << i;
        ASSERT_EQ(got.result.depth[i], want.result.depth[i]) << i;
    }
}

TEST(Projection, IsotropicCovarianceScalesWithFocal)
{
    // A unit-depth isotropic Gaussian's 2D covariance should be close to
    // (fx * s)^2 I (EWA with small footprint).
    GaussianCloud cloud;
    Real s = Real(0.05);
    cloud.pushIsotropic({0, 0, 1}, s, Real(0.5), {1, 1, 1});
    Camera cam = testCamera();
    ProjectedCloud proj = projectGaussians(cloud, cam, {});
    ASSERT_TRUE(proj[0].valid);
    Real expected = cam.intr.fx * s;
    EXPECT_NEAR(std::sqrt(proj[0].cov2d.xx), expected, expected * 0.05);
    EXPECT_NEAR(std::sqrt(proj[0].cov2d.yy), expected, expected * 0.05);
    EXPECT_NEAR(proj[0].cov2d.xy, 0, expected * expected * 0.05);
}

TEST(Tiling, SmallGaussianInSingleTile)
{
    GaussianCloud cloud;
    // Projects to pixel (40, 40): inside tile (2, 2), away from tile
    // borders so the small footprint stays within a single tile.
    cloud.pushIsotropic({1, 1, 4}, Real(0.01), Real(0.5), {1, 0, 0});
    Camera cam = testCamera();
    RenderSettings st;
    ProjectedCloud proj = projectGaussians(cloud, cam, st);
    ASSERT_TRUE(proj[0].valid);
    TileGrid grid(64, 64, st.tileSize);
    TileBins bins = intersectTiles(proj, grid);
    EXPECT_EQ(bins.totalIntersections(), 1u);
    EXPECT_EQ(bins.count(2 * grid.tilesX + 2), 1u);
}

TEST(Tiling, LargeGaussianCoversAllTiles)
{
    GaussianCloud cloud;
    cloud.pushIsotropic({0, 0, 2}, Real(2.0), Real(0.5), {1, 0, 0});
    Camera cam = testCamera();
    RenderSettings st;
    ProjectedCloud proj = projectGaussians(cloud, cam, st);
    TileGrid grid(64, 64, st.tileSize);
    TileBins bins = intersectTiles(proj, grid);
    EXPECT_EQ(bins.totalIntersections(), grid.tileCount());
}

TEST(Tiling, GridGeometry)
{
    TileGrid grid(70, 33, 16);
    EXPECT_EQ(grid.tilesX, 5u);
    EXPECT_EQ(grid.tilesY, 3u);
    u32 x0, y0, x1, y1;
    grid.tileBounds(grid.tileCount() - 1, x0, y0, x1, y1);
    EXPECT_EQ(x0, 64u);
    EXPECT_EQ(x1, 70u); // clipped to image width
    EXPECT_EQ(y0, 32u);
    EXPECT_EQ(y1, 33u);
    EXPECT_EQ(grid.tileOfPixel(69, 32), grid.tileCount() - 1);
}

TEST(Sorting, OrdersByDepth)
{
    GaussianCloud cloud;
    cloud.pushIsotropic({0, 0, 5}, Real(0.3), Real(0.5), {1, 0, 0});
    cloud.pushIsotropic({0, 0, 2}, Real(0.3), Real(0.5), {0, 1, 0});
    cloud.pushIsotropic({0, 0, 9}, Real(0.3), Real(0.5), {0, 0, 1});
    Camera cam = testCamera();
    RenderSettings st;
    ProjectedCloud proj = projectGaussians(cloud, cam, st);
    TileGrid grid(64, 64, st.tileSize);
    TileBins bins = intersectTiles(proj, grid);
    EXPECT_FALSE(tilesAreDepthSorted(bins, proj));
    sortTilesByDepth(bins, proj);
    EXPECT_TRUE(tilesAreDepthSorted(bins, proj));
}

TEST(Rasterizer, SingleGaussianCentreAlpha)
{
    // At the splat centre G = exp(0) = 1, so alpha = opacity and the
    // pixel colour is o*c + (1-o)*bg.
    GaussianCloud cloud;
    Real opacity = Real(0.6);
    cloud.pushIsotropic({0, 0, 2}, Real(0.3), opacity, {1, 0, 0});
    RenderPipeline pipe;
    pipe.settings().background = {0, 0, 1};
    Camera cam = testCamera();
    ForwardContext ctx = pipe.forward(cloud, cam);

    Vec3f centre = ctx.result.image.at(32, 32);
    EXPECT_NEAR(centre.x, opacity, 0.02);
    EXPECT_NEAR(centre.y, 0, 1e-4);
    EXPECT_NEAR(centre.z, 1 - opacity, 0.02);
    EXPECT_NEAR(ctx.result.alpha.at(32, 32), opacity, 0.02);
}

TEST(Rasterizer, OcclusionFrontToBack)
{
    // Opaque green in front of red: centre pixel must be green.
    GaussianCloud cloud;
    cloud.pushIsotropic({0, 0, 4}, Real(0.5), Real(0.95), {1, 0, 0});
    cloud.pushIsotropic({0, 0, 2}, Real(0.5), Real(0.95), {0, 1, 0});
    RenderPipeline pipe;
    ForwardContext ctx = pipe.forward(cloud, testCamera());
    Vec3f c = ctx.result.image.at(32, 32);
    EXPECT_GT(c.y, 0.9);
    EXPECT_LT(c.x, 0.06);
}

TEST(Rasterizer, InputOrderDoesNotMatter)
{
    GaussianCloud a, b;
    a.pushIsotropic({0, 0, 4}, Real(0.5), Real(0.7), {1, 0, 0});
    a.pushIsotropic({0, 0, 2}, Real(0.5), Real(0.7), {0, 1, 0});
    b.pushIsotropic({0, 0, 2}, Real(0.5), Real(0.7), {0, 1, 0});
    b.pushIsotropic({0, 0, 4}, Real(0.5), Real(0.7), {1, 0, 0});
    RenderPipeline pipe;
    ForwardContext ca = pipe.forward(a, testCamera());
    ForwardContext cb = pipe.forward(b, testCamera());
    for (size_t i = 0; i < ca.result.image.pixelCount(); ++i) {
        EXPECT_NEAR(ca.result.image[i].x, cb.result.image[i].x, 1e-5);
        EXPECT_NEAR(ca.result.image[i].y, cb.result.image[i].y, 1e-5);
    }
}

TEST(Rasterizer, EmptySceneRendersBackground)
{
    GaussianCloud cloud;
    RenderPipeline pipe;
    pipe.settings().background = {0.2f, 0.4f, 0.6f};
    ForwardContext ctx = pipe.forward(cloud, testCamera());
    Vec3f c = ctx.result.image.at(10, 50);
    EXPECT_NEAR(c.x, 0.2f, 1e-6);
    EXPECT_NEAR(c.y, 0.4f, 1e-6);
    EXPECT_NEAR(c.z, 0.6f, 1e-6);
    EXPECT_EQ(ctx.result.nContrib.at(10, 50), 0u);
}

TEST(Rasterizer, EarlyTerminationLimitsFragments)
{
    // A stack of almost-opaque Gaussians: transmittance collapses after
    // a couple of fragments, so nContrib must stay far below the stack
    // size.
    GaussianCloud cloud;
    for (int i = 0; i < 50; ++i) {
        cloud.pushIsotropic({0, 0, Real(2.0 + 0.01 * i)}, Real(0.8),
                            Real(0.95), {1, 1, 1});
    }
    RenderPipeline pipe;
    ForwardContext ctx = pipe.forward(cloud, testCamera());
    EXPECT_LT(ctx.result.nContrib.at(32, 32), 6u);
    EXPECT_LT(ctx.result.finalT.at(32, 32),
              pipe.settings().transmittanceEps);
}

TEST(Rasterizer, WorkloadCountersAreConsistent)
{
    GaussianCloud cloud;
    for (int i = 0; i < 20; ++i) {
        Real fx = Real(0.3) * static_cast<Real>(i % 5 - 2);
        Real fy = Real(0.3) * static_cast<Real>(i / 5 - 2);
        cloud.pushIsotropic({fx, fy, Real(2.5 + 0.1 * i)}, Real(0.3),
                            Real(0.5), {0.5f, 0.5f, 0.5f});
    }
    RenderPipeline pipe;
    ForwardContext ctx = pipe.forward(cloud, testCamera());
    for (u32 y = 0; y < 64; ++y) {
        for (u32 x = 0; x < 64; ++x) {
            u32 iter = ctx.result.nContrib.at(x, y);
            u32 blend = ctx.result.nBlended.at(x, y);
            u32 tile = ctx.grid.tileOfPixel(x, y);
            EXPECT_LE(blend, iter);
            EXPECT_LE(iter, ctx.bins.count(tile));
        }
    }
}

TEST(Rasterizer, DepthMapMatchesGaussianDepth)
{
    GaussianCloud cloud;
    cloud.pushIsotropic({0, 0, 3}, Real(0.5), Real(0.99), {1, 1, 1});
    RenderPipeline pipe;
    ForwardContext ctx = pipe.forward(cloud, testCamera());
    // alpha-weighted depth ~ alpha * 3 at centre with alpha ~ 0.99.
    Real d = ctx.result.depth.at(32, 32);
    Real a = ctx.result.alpha.at(32, 32);
    EXPECT_NEAR(d / a, 3.0, 0.05);
}

TEST(Rasterizer, MaskingRemovesContribution)
{
    GaussianCloud cloud;
    cloud.pushIsotropic({0, 0, 2}, Real(0.4), Real(0.9), {1, 0, 0});
    cloud.pushIsotropic({0, 0, 3}, Real(0.4), Real(0.9), {0, 1, 0});
    RenderPipeline pipe;
    ForwardContext full = pipe.forward(cloud, testCamera());
    EXPECT_GT(full.result.image.at(32, 32).x, 0.5);

    cloud.active.mut()[0] = 0;
    ForwardContext masked = pipe.forward(cloud, testCamera());
    EXPECT_LT(masked.result.image.at(32, 32).x, 0.05);
    EXPECT_GT(masked.result.image.at(32, 32).y, 0.5);
}

TEST(Cloud, CompactKeepsSurvivors)
{
    GaussianCloud cloud;
    cloud.pushIsotropic({1, 0, 2}, Real(0.1), Real(0.5), {1, 0, 0});
    cloud.pushIsotropic({2, 0, 2}, Real(0.1), Real(0.5), {0, 1, 0});
    cloud.pushIsotropic({3, 0, 2}, Real(0.1), Real(0.5), {0, 0, 1});
    cloud.compact({1, 0, 1});
    ASSERT_EQ(cloud.size(), 2u);
    EXPECT_EQ(cloud.positions[0].x, 1);
    EXPECT_EQ(cloud.positions[1].x, 3);
    EXPECT_NEAR(cloud.color(1).z, 1, 1e-5);
}

TEST(Cloud, ColorRoundTrip)
{
    Vec3f rgb{0.3f, 0.7f, 0.9f};
    GaussianCloud cloud;
    cloud.pushIsotropic({0, 0, 1}, Real(0.1), Real(0.5), rgb);
    Vec3f back = cloud.color(0);
    EXPECT_NEAR(back.x, rgb.x, 1e-5);
    EXPECT_NEAR(back.y, rgb.y, 1e-5);
    EXPECT_NEAR(back.z, rgb.z, 1e-5);
    EXPECT_NEAR(cloud.opacity(0), 0.5, 1e-5);
}

TEST(Cloud, ParameterBytesGrowsLinearly)
{
    GaussianCloud cloud;
    size_t empty = cloud.parameterBytes();
    EXPECT_EQ(empty, 0u);
    cloud.pushIsotropic({0, 0, 1}, Real(0.1), Real(0.5), {1, 1, 1});
    size_t one = cloud.parameterBytes();
    cloud.pushIsotropic({0, 0, 1}, Real(0.1), Real(0.5), {1, 1, 1});
    EXPECT_EQ(cloud.parameterBytes(), 2 * one);
}

} // namespace rtgs::gs
