/**
 * @file
 * Scheduling and determinism tests for the splat-major backward pass.
 *
 * BackwardParallel pins the degenerate grid shapes (a single tile,
 * fewer tiles than workers, a one-Gaussian cloud) that hand-rolled
 * tiles-per-worker chunk math used to mishandle. BackwardDeterminism
 * pins the fixed reduction order: the whole backward result — and the
 * pose twist in particular — must be bitwise identical across 1/2/4
 * worker threads, and across calls that overlap on one pipeline. Both
 * suites run under the ThreadSanitizer CI job.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "gs/render_pipeline.hh"
#include "oracle/backward_reference.hh"

namespace rtgs::gs
{

namespace
{

/** Small randomised cloud fully inside the frustum. */
GaussianCloud
randomCloud(u64 seed, size_t count)
{
    Rng rng(seed);
    GaussianCloud cloud;
    for (size_t i = 0; i < count; ++i) {
        Vec3f pos{static_cast<Real>(rng.uniform(-0.8, 0.8)),
                  static_cast<Real>(rng.uniform(-0.6, 0.6)),
                  static_cast<Real>(rng.uniform(1.5, 4.0))};
        cloud.pushIsotropic(pos,
                            static_cast<Real>(rng.uniform(0.05, 0.35)),
                            static_cast<Real>(rng.uniform(0.1, 0.9)),
                            {static_cast<Real>(rng.uniform(0, 1)),
                             static_cast<Real>(rng.uniform(0, 1)),
                             static_cast<Real>(rng.uniform(0, 1))});
    }
    return cloud;
}

/** Smooth non-constant adjoints of the camera's image size. */
void
makeAdjoints(const Intrinsics &intr, ImageRGB &adj, ImageF &adj_depth)
{
    adj = ImageRGB(intr.width, intr.height);
    adj_depth = ImageF(intr.width, intr.height);
    for (u32 y = 0; y < intr.height; ++y) {
        for (u32 x = 0; x < intr.width; ++x) {
            Real fx = static_cast<Real>(x) + Real(1);
            Real fy = static_cast<Real>(y) + Real(1);
            adj.at(x, y) = {std::sin(Real(0.3) * fx) * Real(0.5),
                            std::cos(Real(0.23) * fy) * Real(0.4),
                            std::sin(Real(0.11) * (fx + fy)) * Real(0.3)};
            adj_depth.at(x, y) = Real(0.04) * std::cos(Real(0.19) * fx);
        }
    }
}

/** Run forward+backward with a dedicated pool of `threads` workers. */
BackwardResult
runBackward(const GaussianCloud &cloud, const Camera &camera,
            const ImageRGB &adj, const ImageF &adj_depth, size_t threads)
{
    ThreadPool pool(threads);
    RenderPipeline pipe;
    pipe.setPool(&pool);
    ForwardContext ctx = pipe.forward(cloud, camera);
    return pipe.backward(cloud, ctx, adj, &adj_depth, true);
}

void
expectBitwiseEqual(const BackwardResult &a, const BackwardResult &b,
                   size_t n, const char *what)
{
    for (int c = 0; c < 6; ++c)
        EXPECT_EQ(a.poseGrad[c], b.poseGrad[c])
            << what << ": poseGrad c=" << c;
    for (size_t k = 0; k < n; ++k) {
        EXPECT_EQ(a.grads.dPositions[k], b.grads.dPositions[k])
            << what << ": dPositions k=" << k;
        EXPECT_EQ(a.grads.dOpacityLogits[k], b.grads.dOpacityLogits[k])
            << what << ": dOpacityLogits k=" << k;
        EXPECT_EQ(a.grad2d.dMean2d[k], b.grad2d.dMean2d[k])
            << what << ": dMean2d k=" << k;
        EXPECT_EQ(a.grad2d.dDepth[k], b.grad2d.dDepth[k])
            << what << ": dDepth k=" << k;
    }
}

/**
 * Serial-reference comparison with a class-scale-relative bound (see
 * test_gs_equivalence.cc for the rationale: the splat-major kernel
 * recovers transmittance by division, an ulp-level perturbation
 * relative to the magnitudes summed, which cancellation can inflate
 * relative to the final values).
 */
void
expectNearSerial(const BackwardResult &par, const BackwardResult &ser,
                 size_t n)
{
    double pose_scale = 1, op_scale = 1, pos_scale = 1;
    for (int c = 0; c < 6; ++c)
        pose_scale = std::max(
            pose_scale, static_cast<double>(std::abs(ser.poseGrad[c])));
    for (size_t k = 0; k < n; ++k) {
        op_scale = std::max(
            op_scale,
            static_cast<double>(std::abs(ser.grads.dOpacityLogits[k])));
        for (int c = 0; c < 3; ++c)
            pos_scale = std::max(
                pos_scale, static_cast<double>(
                               std::abs(ser.grads.dPositions[k][c])));
    }
    for (int c = 0; c < 6; ++c)
        EXPECT_NEAR(par.poseGrad[c], ser.poseGrad[c],
                    5e-6 + 1e-5 * pose_scale)
            << "poseGrad c=" << c;
    for (size_t k = 0; k < n; ++k) {
        EXPECT_NEAR(par.grads.dOpacityLogits[k],
                    ser.grads.dOpacityLogits[k], 5e-6 + 1e-5 * op_scale)
            << "dOpacityLogits k=" << k;
        for (int c = 0; c < 3; ++c)
            EXPECT_NEAR(par.grads.dPositions[k][c],
                        ser.grads.dPositions[k][c],
                        5e-6 + 1e-5 * pos_scale)
                << "dPositions k=" << k << " c=" << c;
    }
}

} // namespace

TEST(BackwardParallel, SingleTileImage)
{
    // A 16x16 image is one tile: the tile stage degenerates to a single
    // chunk regardless of the worker count.
    GaussianCloud cloud = randomCloud(11, 12);
    Camera camera(Intrinsics::fromFov(Real(M_PI) / 2, 16, 16),
                  SE3::identity());
    ImageRGB adj;
    ImageF adj_depth;
    makeAdjoints(camera.intr, adj, adj_depth);

    for (size_t threads : {1, 4}) {
        ThreadPool pool(threads);
        RenderPipeline pipe;
        pipe.setPool(&pool);
        ForwardContext ctx = pipe.forward(cloud, camera);
        ASSERT_EQ(ctx.grid.tileCount(), 1u);
        BackwardResult par =
            pipe.backward(cloud, ctx, adj, &adj_depth, true);
        BackwardResult ser = backwardFull(
            cloud, ctx.projected, ctx.bins, ctx.grid, pipe.settings(),
            ctx.result, camera, adj, &adj_depth, true);
        expectNearSerial(par, ser, cloud.size());
    }
}

TEST(BackwardParallel, SingleGaussian)
{
    // One Gaussian: the preprocessing stage is a single block, and most
    // tiles carry empty bins.
    GaussianCloud cloud;
    cloud.pushIsotropic({0.05f, -0.1f, 2.0f}, Real(0.3), Real(0.7),
                        {0.8f, 0.4f, 0.2f});
    Camera camera(Intrinsics::fromFov(Real(1.2), 64, 48),
                  SE3::identity());
    ImageRGB adj;
    ImageF adj_depth;
    makeAdjoints(camera.intr, adj, adj_depth);

    for (size_t threads : {1, 4}) {
        ThreadPool pool(threads);
        RenderPipeline pipe;
        pipe.setPool(&pool);
        ForwardContext ctx = pipe.forward(cloud, camera);
        BackwardResult par =
            pipe.backward(cloud, ctx, adj, &adj_depth, true);
        BackwardResult ser = backwardFull(
            cloud, ctx.projected, ctx.bins, ctx.grid, pipe.settings(),
            ctx.result, camera, adj, &adj_depth, true);
        expectNearSerial(par, ser, cloud.size());
        // The lone Gaussian must receive a non-trivial gradient.
        EXPECT_GT(par.grads.dPositions[0].norm(), 0);
    }
}

TEST(BackwardParallel, FewerTilesThanWorkers)
{
    // 2x2 tiles against an 8-worker pool: every worker beyond the
    // fourth must see an empty chunk, not an out-of-range one.
    GaussianCloud cloud = randomCloud(23, 20);
    Camera camera(Intrinsics::fromFov(Real(1.2), 32, 32),
                  SE3::identity());
    ImageRGB adj;
    ImageF adj_depth;
    makeAdjoints(camera.intr, adj, adj_depth);

    ThreadPool pool(8);
    RenderPipeline pipe;
    pipe.setPool(&pool);
    ForwardContext ctx = pipe.forward(cloud, camera);
    ASSERT_EQ(ctx.grid.tileCount(), 4u);
    BackwardResult par = pipe.backward(cloud, ctx, adj, &adj_depth, true);
    BackwardResult ser = backwardFull(
        cloud, ctx.projected, ctx.bins, ctx.grid, pipe.settings(),
        ctx.result, camera, adj, &adj_depth, true);
    expectNearSerial(par, ser, cloud.size());
}

TEST(BackwardParallel, EmptyCloud)
{
    GaussianCloud cloud;
    Camera camera(Intrinsics::fromFov(Real(1.2), 64, 48),
                  SE3::identity());
    ImageRGB adj;
    ImageF adj_depth;
    makeAdjoints(camera.intr, adj, adj_depth);

    RenderPipeline pipe;
    ForwardContext ctx = pipe.forward(cloud, camera);
    BackwardResult par = pipe.backward(cloud, ctx, adj, &adj_depth, true);
    EXPECT_EQ(par.grads.size(), 0u);
    EXPECT_EQ(par.poseGrad.norm(), 0);
}

TEST(BackwardDeterminism, PoseGradBitwiseAcrossThreadCounts)
{
    // The tile records, the flat-order gather, and the fixed-block pose
    // reduction make the whole backward result a pure function of the
    // inputs: 1-, 2- and 4-worker runs must agree bitwise, not merely
    // within tolerance. (The reduction order is fixed by block index,
    // never by worker id.)
    GaussianCloud cloud = randomCloud(7, 600);
    Camera camera(Intrinsics::fromFov(Real(1.25), 96, 64),
                  SE3::lookAt({0.2f, -0.1f, -0.3f}, {0, 0, 2.5f}));
    ImageRGB adj;
    ImageF adj_depth;
    makeAdjoints(camera.intr, adj, adj_depth);

    BackwardResult r1 = runBackward(cloud, camera, adj, adj_depth, 1);
    BackwardResult r2 = runBackward(cloud, camera, adj, adj_depth, 2);
    BackwardResult r4 = runBackward(cloud, camera, adj, adj_depth, 4);

    // A meaningful scene: the pose twist is non-trivial.
    EXPECT_GT(r1.poseGrad.norm(), 0);

    expectBitwiseEqual(r1, r2, cloud.size(), "1 vs 2 threads");
    expectBitwiseEqual(r1, r4, cloud.size(), "1 vs 4 threads");

    // And all of them agree with the serial reference walk.
    ThreadPool pool(1);
    RenderPipeline pipe;
    pipe.setPool(&pool);
    ForwardContext ctx = pipe.forward(cloud, camera);
    BackwardResult ser = backwardFull(
        cloud, ctx.projected, ctx.bins, ctx.grid, pipe.settings(),
        ctx.result, camera, adj, &adj_depth, true);
    expectNearSerial(r1, ser, cloud.size());
}

TEST(BackwardDeterminism, RepeatedCallsReuseScratchIdentically)
{
    // Back-to-back backward calls on one pipeline reuse the calling
    // thread's working buffers; outputs must be identical to the first
    // call's.
    GaussianCloud cloud = randomCloud(31, 150);
    Camera camera(Intrinsics::fromFov(Real(1.2), 64, 48),
                  SE3::identity());
    ImageRGB adj;
    ImageF adj_depth;
    makeAdjoints(camera.intr, adj, adj_depth);

    RenderPipeline pipe;
    ForwardContext ctx = pipe.forward(cloud, camera);
    BackwardResult first =
        pipe.backward(cloud, ctx, adj, &adj_depth, true);
    BackwardResult reused;
    for (int it = 0; it < 3; ++it)
        pipe.backward(cloud, ctx, adj, &adj_depth, true, reused);
    expectBitwiseEqual(first, reused, cloud.size(), "fresh vs reused");
}

TEST(BackwardDeterminism, ConcurrentCallsOnOnePipelineMatchSerial)
{
    // Tracking and async mapping render through one pipeline at the
    // same time. Two threads share a pipeline (and its pool), each
    // rendering its own view and running backward repeatedly; a call
    // that wrote into the other thread's working memory would change
    // its result (or trip TSan). Every result must equal the same call
    // run alone.
    GaussianCloud cloud = randomCloud(41, 400);
    const Camera cameras[2] = {
        Camera(Intrinsics::fromFov(Real(1.2), 64, 48), SE3::identity()),
        Camera(Intrinsics::fromFov(Real(1.25), 96, 64),
               SE3::lookAt({0.2f, -0.1f, -0.3f}, {0, 0, 2.5f}))};
    ImageRGB adj[2];
    ImageF adj_depth[2];
    for (int v = 0; v < 2; ++v)
        makeAdjoints(cameras[v].intr, adj[v], adj_depth[v]);

    ThreadPool pool(2);
    RenderPipeline pipe;
    pipe.setPool(&pool);

    BackwardResult serial[2];
    size_t pairs[2];
    for (int v = 0; v < 2; ++v) {
        ForwardContext ctx = pipe.forward(cloud, cameras[v]);
        serial[v] =
            pipe.backward(cloud, ctx, adj[v], &adj_depth[v], true);
        pairs[v] = ctx.bins.indices.size();
        EXPECT_GT(serial[v].poseGrad.norm(), 0);
    }
    // Different record counts: a record buffer shared by the two calls
    // would be resized and overwritten under the other.
    EXPECT_NE(pairs[0], pairs[1]);

    constexpr int kCalls = 4;
    std::vector<BackwardResult> concurrent[2];
    std::atomic<int> ready{0};
    auto run_view = [&](int v) {
        ++ready;
        while (ready.load() < 2)
            std::this_thread::yield();
        ForwardContext ctx = pipe.forward(cloud, cameras[v]);
        BackwardResult out;
        for (int call = 0; call < kCalls; ++call) {
            pipe.backward(cloud, ctx, adj[v], &adj_depth[v], true, out);
            concurrent[v].push_back(out);
        }
    };
    std::thread a(run_view, 0), b(run_view, 1);
    a.join();
    b.join();

    for (int v = 0; v < 2; ++v) {
        ASSERT_EQ(concurrent[v].size(), static_cast<size_t>(kCalls));
        for (const BackwardResult &r : concurrent[v])
            expectBitwiseEqual(serial[v], r, cloud.size(),
                               v == 0 ? "view 0" : "view 1");
    }
}

} // namespace rtgs::gs
