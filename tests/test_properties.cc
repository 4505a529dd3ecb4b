/**
 * @file
 * Property-based sweeps (TEST_P) over randomised scenes, cameras and
 * configurations: invariants that must hold for *any* input, not just
 * hand-picked cases — compositing bounds, masking monotonicity,
 * scheduling dominance, and schedule algebra.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "core/downsampling.hh"
#include "gs/render_pipeline.hh"
#include "hw/rtgs_model.hh"
#include "hw/trace.hh"
#include "slam/evaluation.hh"

namespace rtgs
{

namespace
{

/** Random test scene parameterised by a seed. */
struct RandomScene
{
    gs::GaussianCloud cloud;
    Camera camera;

    explicit RandomScene(u64 seed, size_t count = 40)
    {
        Rng rng(seed);
        for (size_t i = 0; i < count; ++i) {
            Vec3f pos{static_cast<Real>(rng.uniform(-1.2, 1.2)),
                      static_cast<Real>(rng.uniform(-0.9, 0.9)),
                      static_cast<Real>(rng.uniform(1.2, 5.0))};
            Real scale = static_cast<Real>(rng.uniform(0.05, 0.4));
            Real opacity = static_cast<Real>(rng.uniform(0.1, 0.9));
            Vec3f rgb{static_cast<Real>(rng.uniform(0.05, 0.95)),
                      static_cast<Real>(rng.uniform(0.05, 0.95)),
                      static_cast<Real>(rng.uniform(0.05, 0.95))};
            cloud.pushIsotropic(pos, scale, opacity, rgb);
            // Random anisotropy and rotation on half the population.
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
        camera = Camera(Intrinsics::fromFov(Real(1.2), 96, 72),
                        SE3::lookAt(
                            {static_cast<Real>(rng.uniform(-0.3, 0.3)),
                             static_cast<Real>(rng.uniform(-0.3, 0.3)),
                             static_cast<Real>(rng.uniform(-0.5, 0.0))},
                            {0, 0, 3}));
    }
};

} // namespace

class RenderProperty : public ::testing::TestWithParam<u64>
{
};

TEST_P(RenderProperty, CompositingStaysBounded)
{
    RandomScene scene(GetParam());
    gs::RenderPipeline pipe;
    auto ctx = pipe.forward(scene.cloud, scene.camera);
    for (size_t i = 0; i < ctx.result.image.pixelCount(); ++i) {
        // Alpha in [0,1]; transmittance in [0,1]; colours bounded by
        // the maximal splat colour + background.
        EXPECT_GE(ctx.result.alpha[i], 0);
        EXPECT_LE(ctx.result.alpha[i], 1 + 1e-5);
        EXPECT_GE(ctx.result.finalT[i], -1e-5);
        EXPECT_LE(ctx.result.finalT[i], 1 + 1e-5);
        EXPECT_GE(ctx.result.image[i].x, -1e-5);
        EXPECT_LE(ctx.result.image[i].x, 1.5);
        EXPECT_NEAR(ctx.result.alpha[i] + ctx.result.finalT[i], 1,
                    1e-4);
    }
}

TEST_P(RenderProperty, MaskingNeverIncreasesCoverage)
{
    RandomScene scene(GetParam());
    gs::RenderPipeline pipe;
    auto full = pipe.forward(scene.cloud, scene.camera);

    // Mask a third of the Gaussians.
    Rng rng(GetParam() ^ 0xABCD);
    for (size_t k = 0; k < scene.cloud.size(); ++k)
        if (rng.chance(0.33))
            scene.cloud.active.mut()[k] = 0;
    auto masked = pipe.forward(scene.cloud, scene.camera);

    for (size_t i = 0; i < full.result.alpha.pixelCount(); ++i) {
        EXPECT_LE(masked.result.alpha[i],
                  full.result.alpha[i] + 1e-4);
        EXPECT_LE(masked.result.nContrib[i], full.result.nContrib[i]);
    }
}

TEST_P(RenderProperty, WorkloadCountersConsistent)
{
    RandomScene scene(GetParam());
    gs::RenderPipeline pipe;
    auto ctx = pipe.forward(scene.cloud, scene.camera);
    for (u32 y = 0; y < ctx.grid.height; ++y) {
        for (u32 x = 0; x < ctx.grid.width; ++x) {
            u32 tile = ctx.grid.tileOfPixel(x, y);
            EXPECT_LE(ctx.result.nBlended.at(x, y),
                      ctx.result.nContrib.at(x, y));
            EXPECT_LE(ctx.result.nContrib.at(x, y),
                      ctx.bins.count(tile));
        }
    }
    EXPECT_TRUE(gs::tilesAreDepthSorted(ctx.bins, ctx.projected));
}

TEST_P(RenderProperty, TraceReassemblesCounters)
{
    RandomScene scene(GetParam());
    gs::RenderPipeline pipe;
    auto ctx = pipe.forward(scene.cloud, scene.camera);
    auto trace = hw::IterationTrace::capture(ctx, scene.cloud.size());
    u64 iterated = 0, blended = 0;
    for (const auto *s : trace.allSubtiles()) {
        iterated += s->sumIterated();
        blended += s->sumBlended();
    }
    EXPECT_EQ(iterated, trace.fragmentsIterated);
    EXPECT_EQ(blended, trace.fragmentsBlended);
}

TEST_P(RenderProperty, BackwardGradientsAreFinite)
{
    RandomScene scene(GetParam());
    gs::RenderPipeline pipe;
    auto ctx = pipe.forward(scene.cloud, scene.camera);
    ImageRGB adj(96, 72, {0.5f, -0.3f, 0.2f});
    auto back = pipe.backward(scene.cloud, ctx, adj, nullptr, true);
    for (size_t k = 0; k < scene.cloud.size(); ++k) {
        EXPECT_TRUE(std::isfinite(back.grads.dPositions[k].norm()));
        EXPECT_TRUE(std::isfinite(back.grads.dLogScales[k].norm()));
        EXPECT_TRUE(std::isfinite(back.grads.dOpacityLogits[k]));
        EXPECT_TRUE(std::isfinite(back.grads.covGradNorms[k]));
    }
    EXPECT_TRUE(std::isfinite(back.poseGrad.norm()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RenderProperty,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

class SchedulingProperty : public ::testing::TestWithParam<u64>
{
  protected:
    hw::SubtileLoad
    randomSubtile(Rng &rng, u32 max_load) const
    {
        hw::SubtileLoad s;
        for (int i = 0; i < 16; ++i) {
            u16 it = static_cast<u16>(rng.uniformInt(max_load + 1));
            s.iterated.push_back(it);
            s.blended.push_back(static_cast<u16>(
                rng.uniformInt(static_cast<u64>(it) + 1)));
        }
        return s;
    }
};

TEST_P(SchedulingProperty, PairingDominatesUnpaired)
{
    // The WSU's heavy-light pairing never loses to adjacent pairing,
    // for any workload vector.
    Rng rng(GetParam());
    hw::RtgsAccelModel model;
    for (int trial = 0; trial < 50; ++trial) {
        hw::SubtileLoad s = randomSubtile(rng, 60);
        EXPECT_LE(model.subtileForwardCycles(s, true),
                  model.subtileForwardCycles(s, false) + 1e-9);
        EXPECT_LE(model.subtileBackwardCycles(s, true, true),
                  model.subtileBackwardCycles(s, false, true) + 1e-9);
    }
}

TEST_P(SchedulingProperty, RbBufferAlwaysHelps)
{
    Rng rng(GetParam() ^ 0x1234);
    hw::RtgsAccelModel model;
    for (int trial = 0; trial < 50; ++trial) {
        hw::SubtileLoad s = randomSubtile(rng, 60);
        EXPECT_LE(model.subtileBackwardCycles(s, true, true),
                  model.subtileBackwardCycles(s, true, false) + 1e-9);
    }
}

TEST_P(SchedulingProperty, PairCostLowerBound)
{
    // No schedule can beat the total-work bound: pair cost >= (a+b)/2.
    Rng rng(GetParam() ^ 0x777);
    hw::RtgsAccelModel model;
    hw::RtgsHwConfig cfg;
    double fill = cfg.alphaComputeCycles + cfg.alphaBlendCycles;
    for (int trial = 0; trial < 50; ++trial) {
        hw::SubtileLoad s = randomSubtile(rng, 40);
        double total = s.sumIterated();
        double bound = total / 16.0; // 8 pairs x 2 lanes
        EXPECT_GE(model.subtileForwardCycles(s, true) - fill,
                  bound - 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulingProperty,
                         ::testing::Values(1u, 2u, 3u));

class DownsampleProperty
    : public ::testing::TestWithParam<std::tuple<double, double>>
{
};

TEST_P(DownsampleProperty, ScheduleIsMonotoneAndCapped)
{
    auto [m, min_area] = GetParam();
    core::DownsamplerConfig cfg;
    cfg.growthFactor = static_cast<Real>(m);
    cfg.minAreaScale = static_cast<Real>(min_area);
    cfg.maxAreaScale = Real(0.25);
    cfg.minWidthPixels = 0;
    core::DynamicDownsampler d(cfg);

    Real prev = 0;
    for (u32 n = 1; n <= 12; ++n) {
        Real area = d.areaScaleFor(n);
        EXPECT_GE(area, prev) << "schedule must be non-decreasing";
        EXPECT_GE(area, cfg.minAreaScale - 1e-7);
        EXPECT_LE(area, cfg.maxAreaScale + 1e-7);
        prev = area;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DownsampleProperty,
    ::testing::Combine(::testing::Values(1.5, 2.0, 3.0),
                       ::testing::Values(1.0 / 32, 1.0 / 16, 1.0 / 8)));

// ---------------------------------------------------------------- //
//            Trajectory alignment on rank-deficient shapes         //
// ---------------------------------------------------------------- //

namespace
{

/** Camera-centre layouts whose cross-covariance is rank 0, 1 or 2 —
 *  the degenerate cases the alignment's SVD guards must handle — plus
 *  one general (full-rank) layout. */
enum class TrajectoryShape
{
    Static,
    LineX,
    LineY,
    LineZ,
    PlaneXY,
    PlaneXZ,
    PlaneYZ,
    General
};

const char *
trajectoryShapeName(TrajectoryShape shape)
{
    switch (shape) {
    case TrajectoryShape::Static: return "static";
    case TrajectoryShape::LineX: return "line_x";
    case TrajectoryShape::LineY: return "line_y";
    case TrajectoryShape::LineZ: return "line_z";
    case TrajectoryShape::PlaneXY: return "plane_xy";
    case TrajectoryShape::PlaneXZ: return "plane_xz";
    case TrajectoryShape::PlaneYZ: return "plane_yz";
    case TrajectoryShape::General: return "general";
    }
    return "?";
}

/** Random rotation of at most `max_angle` radians. */
Mat3f
randomRotation(Rng &rng, double max_angle)
{
    Vec3f axis{static_cast<Real>(rng.normal()),
               static_cast<Real>(rng.normal()),
               static_cast<Real>(rng.normal())};
    Real angle = static_cast<Real>(rng.uniform(0, max_angle));
    return expSo3(axis.normalized() * angle);
}

/** World-to-camera poses whose centres follow `shape`; orientations
 *  are random (alignment only looks at centres). */
std::vector<SE3>
shapedTrajectory(TrajectoryShape shape, Rng &rng)
{
    std::vector<SE3> poses;
    for (int i = 0; i < 20; ++i) {
        Real a = Real(0.1) * static_cast<Real>(i);
        Real b = Real(0.3) * std::sin(Real(0.7) * static_cast<Real>(i));
        Vec3f c{Real(0.5), Real(-0.25), Real(1.5)};
        switch (shape) {
        case TrajectoryShape::Static: break;
        case TrajectoryShape::LineX: c.x += a; break;
        case TrajectoryShape::LineY: c.y += a; break;
        case TrajectoryShape::LineZ: c.z += a; break;
        case TrajectoryShape::PlaneXY: c.x += a; c.y += b; break;
        case TrajectoryShape::PlaneXZ: c.x += a; c.z += b; break;
        case TrajectoryShape::PlaneYZ: c.y += a; c.z += b; break;
        case TrajectoryShape::General:
            c = c + Vec3f{a, b, Real(0.2) * b * b - a * Real(0.3)};
            break;
        }
        Mat3f rot = randomRotation(rng, M_PI);
        poses.push_back({rot, -(rot * c)});
    }
    return poses;
}

} // namespace

class AlignmentProperty
    : public ::testing::TestWithParam<std::tuple<int, u64>>
{
};

TEST_P(AlignmentProperty, RankDeficientTrajectoriesAlignExactly)
{
    TrajectoryShape shape =
        static_cast<TrajectoryShape>(std::get<0>(GetParam()));
    Rng rng(std::get<1>(GetParam()));
    std::vector<SE3> est = shapedTrajectory(shape, rng);

    // A trajectory against itself has zero error, whatever its rank.
    EXPECT_LT(slam::computeAte(est, est).rmse, 1e-6);

    // Ground truth = the same trajectory moved by one rigid transform
    // (centres map through `move`): alignment must undo it.
    SE3 move{randomRotation(rng, M_PI),
             {static_cast<Real>(rng.uniform(-3, 3)),
              static_cast<Real>(rng.uniform(-3, 3)),
              static_cast<Real>(rng.uniform(-3, 3))}};
    std::vector<SE3> gt;
    for (const SE3 &pose : est)
        gt.push_back(pose * move.inverse());
    EXPECT_LT(slam::computeAte(est, gt).rmse, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AlignmentProperty,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::Values(1u, 7u, 42u)),
    [](const ::testing::TestParamInfo<std::tuple<int, u64>> &info) {
        return std::string(trajectoryShapeName(static_cast<TrajectoryShape>(
                   std::get<0>(info.param)))) +
               "_seed" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------- //
//               ThreadPool post() contract (the fleet's)           //
// ---------------------------------------------------------------- //

/** Parameter: worker count. FleetRuntime turns and MapWorker drains
 *  rely on post() running every task exactly once, including tasks
 *  posted from tasks and tasks still queued at destruction. */
class ThreadPoolPostProperty : public ::testing::TestWithParam<size_t>
{
};

TEST_P(ThreadPoolPostProperty, PostRunsEveryTaskExactlyOnce)
{
    // Randomised mix of caller posts and task-side re-posts (how a
    // fleet turn requeues itself): no task is lost or run twice.
    Rng rng(0x5EED ^ GetParam());
    constexpr size_t kTasks = 200;
    std::vector<std::atomic<int>> runs(2 * kTasks);
    for (auto &r : runs)
        r.store(0);
    std::atomic<size_t> finished{0};
    size_t expected = 0;
    {
        ThreadPool pool(GetParam());
        for (size_t i = 0; i < kTasks; ++i) {
            bool repost = rng.uniformInt(3) == 0;
            expected += repost ? 2 : 1;
            pool.post([&pool, &runs, &finished, i, repost] {
                runs[i].fetch_add(1, std::memory_order_relaxed);
                if (repost) {
                    pool.post([&runs, &finished, i] {
                        runs[kTasks + i].fetch_add(
                            1, std::memory_order_relaxed);
                        finished.fetch_add(1);
                    });
                }
                finished.fetch_add(1);
            });
        }
        while (finished.load() < expected)
            std::this_thread::yield();
    }
    size_t ran = 0;
    for (size_t i = 0; i < runs.size(); ++i) {
        ASSERT_LE(runs[i].load(), 1) << "task " << i << " ran twice";
        ran += static_cast<size_t>(runs[i].load());
    }
    EXPECT_EQ(expected, ran);
}

TEST_P(ThreadPoolPostProperty, DestructorRunsQueuedTasks)
{
    // Every worker is parked on a gate while tasks queue up behind
    // them; another thread opens the gate 20 ms after the pool goes
    // out of scope, so teardown begins with the tasks still queued.
    // The destructor must still run every queued task — and the
    // follow-up each gate task posts during teardown — before it joins.
    const size_t workers = GetParam();
    constexpr size_t kQueued = 32;
    std::vector<std::atomic<int>> queued(kQueued), followups(workers);
    for (auto &r : queued)
        r.store(0);
    for (auto &r : followups)
        r.store(0);
    std::atomic<bool> open{false};
    std::atomic<size_t> parked{0};
    std::thread opener;
    {
        ThreadPool pool(workers);
        for (size_t w = 0; w < workers; ++w) {
            pool.post([&pool, &open, &parked, &followups, w] {
                parked.fetch_add(1);
                while (!open.load())
                    std::this_thread::yield();
                pool.post([&followups, w] { followups[w].fetch_add(1); });
            });
        }
        for (size_t i = 0; i < kQueued; ++i)
            pool.post([&queued, i] { queued[i].fetch_add(1); });
        while (parked.load() < workers)
            std::this_thread::yield();
        opener = std::thread([&open] {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            open.store(true);
        });
    }
    opener.join();
    for (size_t i = 0; i < kQueued; ++i)
        EXPECT_EQ(1, queued[i].load()) << "queued task " << i;
    for (size_t w = 0; w < workers; ++w)
        EXPECT_EQ(1, followups[w].load()) << "teardown post " << w;
}

INSTANTIATE_TEST_SUITE_P(
    Workers, ThreadPoolPostProperty,
    ::testing::Values(size_t(1), size_t(2), size_t(3), size_t(4)),
    [](const ::testing::TestParamInfo<size_t> &info) {
        return "workers" + std::to_string(info.param);
    });

} // namespace rtgs
