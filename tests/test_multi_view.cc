/**
 * @file
 * Tests for multi-view mapping iterations (MapperConfig::multiViewWindow):
 * window selection, the B <= 1 byte-identity contract with the
 * sequential per-keyframe recipe, bitwise render-worker-count
 * independence of the B > 1 accumulation, and the averaged-update
 * semantics of the multi-view optimiser step.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <vector>

#include "common/thread_pool.hh"
#include "slam/pipeline.hh"

namespace rtgs::slam
{

namespace
{

data::DatasetSpec
tinySpec()
{
    data::DatasetSpec spec = data::DatasetSpec::tumLike(Real(0.15));
    spec.scene.surfelSpacing = Real(0.28);
    spec.trajectory.frameCount = 10;
    spec.trajectory.revolutions = Real(0.06);
    spec.noise.enabled = false;
    return spec;
}

data::SyntheticDataset &
tinyDataset()
{
    static data::SyntheticDataset ds(tinySpec());
    return ds;
}

SlamConfig
fastConfig(BaseAlgorithm algo)
{
    SlamConfig cfg = SlamConfig::forAlgorithm(algo);
    cfg.tracker.iterations = 10;
    cfg.mapper.iterations = 12;
    cfg.kfInterval = 4;
    return cfg;
}

/** Byte-compare two SE3 sequences. */
bool
trajectoriesIdentical(const std::vector<SE3> &a, const std::vector<SE3> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (std::memcmp(&a[i].rot, &b[i].rot, sizeof(a[i].rot)) != 0 ||
            std::memcmp(&a[i].trans, &b[i].trans, sizeof(a[i].trans)) !=
                0) {
            return false;
        }
    }
    return true;
}

/** Byte-compare the parameter arrays of two clouds. */
bool
cloudsIdentical(const gs::GaussianCloud &a, const gs::GaussianCloud &b)
{
    auto eq = [](const auto &u, const auto &v) {
        using T = typename std::decay_t<decltype(u)>::value_type;
        return u.size() == v.size() &&
               (u.empty() ||
                std::memcmp(u.data(), v.data(), u.size() * sizeof(T)) ==
                    0);
    };
    return eq(a.positions, b.positions) && eq(a.logScales, b.logScales) &&
           eq(a.rotations, b.rotations) &&
           eq(a.opacityLogits, b.opacityLogits) &&
           eq(a.shCoeffs, b.shCoeffs) && eq(a.active, b.active);
}

/** What a finished run leaves behind (SlamSystem itself is pinned by
 *  its mutexes, so copy the outputs out). */
struct RunResult
{
    std::vector<SE3> trajectory;
    gs::GaussianCloud cloud;
    std::vector<FrameReport> reports;
};

/** Run a sync-mode sequence with the given multi-view window. */
RunResult
runSequence(BaseAlgorithm algo, u32 multi_view_window,
            ThreadPool *pool = nullptr)
{
    auto &ds = tinyDataset();
    SlamConfig cfg = fastConfig(algo);
    cfg.mapper.multiViewWindow = multi_view_window;
    SlamSystem system(cfg, ds.intrinsics());
    if (pool)
        system.setRenderPool(pool);
    for (u32 f = 0; f < ds.frameCount(); ++f)
        system.processFrame(ds.frame(f));
    return {system.trajectory(), system.cloud(), system.reports()};
}

} // namespace

TEST(MultiView, SelectionMatchesSequentialAlternationForBZeroAndOne)
{
    // B = 0 and B = 1 must reproduce the sequential recipe's keyframe
    // choice exactly: the newest keyframe on even steps (or always,
    // for a one-entry window), a rotating pick of the rest on odd
    // ones. This is the selection half of the byte-identity contract.
    for (u32 b : {0u, 1u}) {
        for (size_t window : {size_t(1), size_t(2), size_t(3),
                              size_t(5)}) {
            for (u32 it = 0; it < 12; ++it) {
                auto views =
                    Mapper::multiViewSelection(window, it, b);
                ASSERT_EQ(views.size(), 1u);
                size_t expected =
                    (it % 2 == 0 || window == 1)
                        ? window - 1
                        : (it / 2) % (window - 1);
                EXPECT_EQ(views[0], expected)
                    << "b=" << b << " window=" << window
                    << " it=" << it;
            }
        }
    }
    EXPECT_TRUE(Mapper::multiViewSelection(0, 3, 2).empty());
}

TEST(MultiView, SelectionRendersDistinctViewsNewestLast)
{
    // B >= 2: each step renders min(B, window) distinct window
    // entries, the newest keyframe always included and always last
    // (its loss is the step's reported loss), and the rotation visits
    // every older entry across steps.
    for (size_t window : {size_t(2), size_t(3), size_t(5)}) {
        for (u32 b : {2u, 3u, 4u, 8u}) {
            std::set<size_t> rest_seen;
            for (u32 it = 0; it < 16; ++it) {
                auto views = Mapper::multiViewSelection(window, it, b);
                ASSERT_EQ(views.size(),
                          std::min<size_t>(b, window))
                    << "window=" << window << " b=" << b;
                EXPECT_EQ(views.back(), window - 1);
                std::set<size_t> unique(views.begin(), views.end());
                EXPECT_EQ(unique.size(), views.size())
                    << "duplicate view selected";
                for (size_t v : views) {
                    ASSERT_LT(v, window);
                    if (v + 1 != window)
                        rest_seen.insert(v);
                }
            }
            // The rotation must eventually revisit every older entry.
            EXPECT_EQ(rest_seen.size(), window - 1)
                << "window=" << window << " b=" << b;
        }
    }
}

TEST(MultiView, WindowOneByteIdenticalToSequentialOnAllProfiles)
{
    // multiViewWindow = 0 runs the sequential per-keyframe recipe
    // unchanged (verified bit-for-bit against the pre-multi-view
    // build when this landed), and multiViewWindow = 1 must select
    // the same single keyframe per step and apply the same update —
    // so B=0 and B=1 runs must match byte for byte on every profile.
    const BaseAlgorithm algos[] = {BaseAlgorithm::GsSlam,
                                   BaseAlgorithm::MonoGs,
                                   BaseAlgorithm::PhotoSlam,
                                   BaseAlgorithm::SplaTam};
    for (auto algo : algos) {
        RunResult sequential = runSequence(algo, 0);
        RunResult single_view = runSequence(algo, 1);
        EXPECT_TRUE(trajectoriesIdentical(sequential.trajectory,
                                          single_view.trajectory))
            << algorithmName(algo) << ": trajectories diverged";
        EXPECT_TRUE(cloudsIdentical(sequential.cloud,
                                    single_view.cloud))
            << algorithmName(algo) << ": maps diverged";
    }
}

TEST(MultiView, MultiViewBitwiseIndependentOfRenderWorkers)
{
    // The B > 1 accumulation folds views in a fixed order over fixed
    // per-Gaussian chunks — so the same run at 1/2/4 render workers
    // must produce identical trajectories and maps.
    std::vector<std::vector<SE3>> trajectories;
    std::vector<gs::GaussianCloud> clouds;
    for (size_t workers : {1u, 2u, 4u}) {
        ThreadPool pool(workers);
        RunResult run = runSequence(BaseAlgorithm::MonoGs, 2, &pool);
        trajectories.push_back(run.trajectory);
        clouds.push_back(run.cloud);
    }
    for (size_t i = 1; i < trajectories.size(); ++i) {
        EXPECT_TRUE(
            trajectoriesIdentical(trajectories[0], trajectories[i]));
        EXPECT_TRUE(cloudsIdentical(clouds[0], clouds[i]));
    }
}

TEST(MultiView, AsyncMultiViewBitwiseIndependentOfRenderWorkers)
{
    // Same contract with mapping behind the async queue: a job runs on
    // a pool worker or on the frame loop. Drained per frame for
    // identical snapshot visibility.
    auto &ds = tinyDataset();
    std::vector<std::vector<SE3>> trajectories;
    std::vector<gs::GaussianCloud> clouds;
    for (size_t workers : {1u, 2u, 4u}) {
        ThreadPool pool(workers);
        SlamConfig cfg = fastConfig(BaseAlgorithm::SplaTam);
        cfg.mapQueueDepth = 2;
        cfg.mapper.multiViewWindow = 2;
        SlamSystem system(cfg, ds.intrinsics());
        system.setRenderPool(&pool);
        for (u32 f = 0; f < ds.frameCount(); ++f) {
            system.processFrame(ds.frame(f));
            system.waitForMapping();
        }
        trajectories.push_back(system.trajectory());
        clouds.push_back(system.cloud());
    }
    for (size_t i = 1; i < trajectories.size(); ++i) {
        EXPECT_TRUE(
            trajectoriesIdentical(trajectories[0], trajectories[i]));
        EXPECT_TRUE(cloudsIdentical(clouds[0], clouds[i]));
    }
}

TEST(MultiView, DuplicateViewAverageEqualsSingleViewStep)
{
    // Averaged-update semantics, isolated at the mapper: a two-view
    // step over two IDENTICAL keyframes sums two bitwise-equal
    // gradients (g + g = 2g, exact in floating point) and divides by
    // two — so the applied update must equal the single-view step's,
    // byte for byte.
    auto &ds = tinyDataset();
    KeyframeRecord kf{0, ds.frame(0).gtPose, ds.frame(0).rgb,
                      ds.frame(0).depth};

    auto run = [&](u32 b) {
        MapperConfig cfg;
        cfg.iterations = 3;
        cfg.windowSize = 2;
        cfg.multiViewWindow = b;
        Mapper mapper(cfg);
        gs::RenderPipeline pipeline;
        gs::GaussianCloud cloud;
        for (int k = 0; k < 2; ++k) {
            MapBatchItem item;
            item.record = kf;
            mapper.mapBatch(pipeline, cloud, ds.intrinsics(), item);
        }
        return cloud;
    };

    gs::GaussianCloud sequential = run(0);
    gs::GaussianCloud averaged = run(2);
    // With B=0 the window alternation also only ever renders copies of
    // the same keyframe, so the two recipes apply identical updates.
    EXPECT_GT(sequential.size(), 0u);
    EXPECT_TRUE(cloudsIdentical(sequential, averaged));
}

TEST(MultiView, MultiViewChangesNumericsAndReportsViewCount)
{
    // B >= 2 is a genuinely different optimisation schedule (that is
    // why the bench carries a quality ablation): once the window has
    // more than one keyframe the maps must diverge from the
    // sequential run, and keyframe reports must record the per-step
    // view count on both paths.
    RunResult sequential = runSequence(BaseAlgorithm::MonoGs, 0);
    RunResult multi = runSequence(BaseAlgorithm::MonoGs, 3);

    EXPECT_FALSE(cloudsIdentical(sequential.cloud, multi.cloud));

    u32 max_views_seq = 0, max_views_multi = 0;
    for (const auto &r : sequential.reports)
        if (r.isKeyframe)
            max_views_seq = std::max(max_views_seq, r.mapMultiViews);
    for (const auto &r : multi.reports)
        if (r.isKeyframe)
            max_views_multi = std::max(max_views_multi, r.mapMultiViews);
    EXPECT_EQ(max_views_seq, 1u);
    EXPECT_GE(max_views_multi, 2u);
    EXPECT_LE(max_views_multi, 3u);
}

} // namespace rtgs::slam
