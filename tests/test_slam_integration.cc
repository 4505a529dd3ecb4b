/**
 * @file
 * End-to-end SLAM integration tests on a tiny synthetic sequence:
 * the full tracking+mapping loop must produce a usable trajectory and
 * map for every base-algorithm profile, keyframes must behave per
 * profile, and the tracker must recover a perturbed pose.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "byte_identity.hh"
#include "image/metrics.hh"
#include "slam/evaluation.hh"
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
    // ~4-5 cm inter-frame motion, the regime of real 30 FPS sequences.
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

/** Run a full sequence and return the system for inspection. */
std::unique_ptr<SlamSystem>
runSequence(BaseAlgorithm algo)
{
    auto &ds = tinyDataset();
    auto system = std::make_unique<SlamSystem>(fastConfig(algo),
                                               ds.intrinsics());
    for (u32 f = 0; f < ds.frameCount(); ++f)
        system->processFrame(ds.frame(f));
    return system;
}

} // namespace

TEST(SlamIntegration, MonoGsTracksTinySequence)
{
    auto system = runSequence(BaseAlgorithm::MonoGs);
    ASSERT_EQ(system->trajectory().size(), tinyDataset().frameCount());

    std::vector<SE3> gt;
    for (u32 f = 0; f < tinyDataset().frameCount(); ++f)
        gt.push_back(tinyDataset().gtPose(f));
    AteResult ate = computeAte(system->trajectory(), gt);
    // Gentle motion on a small map: tracking should stay within a few
    // centimetres on a ~5 m scene.
    EXPECT_LT(ate.rmse, 0.08) << "ATE too high for MonoGS profile";
    EXPECT_GT(system->cloud().size(), 100u);
}

TEST(SlamIntegration, MapRendersResembleObservations)
{
    auto system = runSequence(BaseAlgorithm::MonoGs);
    const data::Frame &f = tinyDataset().frame(4);
    ImageRGB render = system->renderView(tinyDataset().gtPose(4));
    double p = psnr(render, f.rgb);
    EXPECT_GT(p, 15.0) << "map should reconstruct observed views";
}

TEST(SlamIntegration, KeyframeCountsFollowProfiles)
{
    auto mono = runSequence(BaseAlgorithm::MonoGs);
    auto splatam = runSequence(BaseAlgorithm::SplaTam);
    size_t mono_kf = 0, splatam_kf = 0;
    for (const auto &r : mono->reports())
        mono_kf += r.isKeyframe ? 1 : 0;
    for (const auto &r : splatam->reports())
        splatam_kf += r.isKeyframe ? 1 : 0;
    // SplaTAM maps every frame; MonoGS every kfInterval-th.
    EXPECT_EQ(splatam_kf, tinyDataset().frameCount());
    EXPECT_LT(mono_kf, splatam_kf);
    EXPECT_GE(mono_kf, tinyDataset().frameCount() / 4);
}

TEST(SlamIntegration, PredictKeyframeMatchesDecisionAndKeepsBytes)
{
    // RtgsSlam's dynamic downsampling sets a frame's resolution from
    // predictKeyframe() before tracking it (Sec. 4.2). MonoGS and
    // SplaTAM decide without the tracked pose, so the prediction is
    // the decision; asking for it must not change the output.
    data::DatasetSpec spec = tinySpec();
    spec.trajectory.frameCount = 12;
    data::SyntheticDataset ds(spec);
    for (BaseAlgorithm algo : {BaseAlgorithm::MonoGs,
                               BaseAlgorithm::SplaTam}) {
        SlamSystem asked(fastConfig(algo), ds.intrinsics());
        SlamSystem plain(fastConfig(algo), ds.intrinsics());
        u32 keyframes = 0;
        for (u32 f = 0; f < ds.frameCount(); ++f) {
            bool predicted = asked.predictKeyframe(ds.frame(f));
            bool decided = asked.processFrame(ds.frame(f)).isKeyframe;
            EXPECT_EQ(predicted, decided)
                << algorithmName(algo) << " frame " << f;
            keyframes += decided ? 1 : 0;
            plain.processFrame(ds.frame(f));
        }
        EXPECT_EQ(keyframes, algo == BaseAlgorithm::MonoGs
                                 ? 3u
                                 : ds.frameCount());
        EXPECT_EQ(outputFnv(asked.trajectory(), asked.cloud()),
                  outputFnv(plain.trajectory(), plain.cloud()))
            << algorithmName(algo);
    }
}

TEST(SlamIntegration, PhotoSlamGeometricTrackingWorks)
{
    auto system = runSequence(BaseAlgorithm::PhotoSlam);
    std::vector<SE3> gt;
    for (u32 f = 0; f < tinyDataset().frameCount(); ++f)
        gt.push_back(tinyDataset().gtPose(f));
    AteResult ate = computeAte(system->trajectory(), gt);
    // Frame-to-frame projective ICP accumulates odometry drift; on the
    // tiny 96x72 depth maps of this fixture a ~0.1-0.2 m drift over the
    // sequence is the expected regime (Photo-SLAM also trails the
    // rendering-based trackers on ATE in the paper's Table 2).
    EXPECT_LT(ate.rmse, 0.2);
}

TEST(SlamIntegration, TrackerRecoversPerturbedPose)
{
    // Build a multi-view map (every frame a keyframe so the geometry is
    // well constrained), then track frame 3 from a deliberately wrong
    // pose; the tracker must substantially reduce pose error.
    auto &ds = tinyDataset();
    SlamConfig cfg = fastConfig(BaseAlgorithm::MonoGs);
    cfg.tracker.iterations = 20;
    cfg.mapper.iterations = 15;
    cfg.kfInterval = 1;
    SlamSystem system(cfg, ds.intrinsics());
    for (u32 f = 0; f < 3; ++f)
        system.processFrame(ds.frame(f));

    const data::Frame &f3 = ds.frame(3);
    Twist nudge{{0.03f, -0.02f, 0.02f}, {0.01f, -0.015f, 0.01f}};
    SE3 bad = ds.gtPose(3).retract(nudge);
    Real err_before = SE3::translationDistance(bad, ds.gtPose(3));

    Tracker tracker(cfg.tracker);
    TrackResult tr = tracker.track(system.renderPipeline(),
                                   system.cloud(), ds.intrinsics(), bad,
                                   f3.rgb, &f3.depth);
    Real err_after = SE3::translationDistance(tr.pose, ds.gtPose(3));
    EXPECT_LT(err_after, err_before * 0.7)
        << "tracking must reduce pose error";
    EXPECT_LE(tr.finalLoss, tr.lossHistory.front())
        << "best loss cannot exceed the initial loss";
}

TEST(SlamIntegration, HooksFireForEveryIteration)
{
    auto &ds = tinyDataset();
    SlamConfig cfg = fastConfig(BaseAlgorithm::MonoGs);
    SlamSystem system(cfg, ds.intrinsics());
    u32 track_calls = 0, map_calls = 0;
    system.setTrackIterationHook(
        [&](const TrackIterationContext &ctx) {
            ++track_calls;
            EXPECT_NE(ctx.forward, nullptr);
            EXPECT_NE(ctx.backward, nullptr);
        });
    system.setMapIterationHook(
        [&](const MapIterationContext &) { ++map_calls; });
    system.processFrame(ds.frame(0)); // keyframe: mapping only
    system.processFrame(ds.frame(1)); // tracked
    EXPECT_EQ(map_calls, cfg.mapper.iterations); // frame 0 mapping
    // Tracking may converge early (plateau detection) but must run at
    // least one and at most the configured number of iterations.
    EXPECT_GE(track_calls, 1u);
    EXPECT_LE(track_calls, cfg.tracker.iterations);
}

TEST(SlamIntegration, DownsampledTrackingStillConverges)
{
    // Downsampled tracking needs a minimum absolute resolution to keep
    // photometric gradients informative (the paper's 1/16-area floor is
    // 160x120 on TUM); use a larger base so half-resolution is 96x72.
    data::DatasetSpec spec = data::DatasetSpec::tumLike(Real(0.3));
    spec.scene.surfelSpacing = Real(0.28);
    spec.trajectory.frameCount = 10;
    spec.trajectory.revolutions = Real(0.05); // ~4 cm/frame motion
    spec.noise.enabled = false;
    data::SyntheticDataset ds(spec);

    SlamConfig cfg = fastConfig(BaseAlgorithm::MonoGs);
    cfg.mapper.iterations = 12;
    cfg.tracker.iterations = 12;

    // The paper's claim (Sec. 4.2): downsampled tracking keeps accuracy
    // within ~10% of full resolution. Track the same frame both ways
    // from identical state and compare.
    SlamSystem sys_full(cfg, ds.intrinsics());
    sys_full.processFrame(ds.frame(0));
    FrameReport full = sys_full.processFrame(ds.frame(1), Real(1));

    SlamSystem sys_down(cfg, ds.intrinsics());
    sys_down.processFrame(ds.frame(0));
    FrameReport down = sys_down.processFrame(ds.frame(1), Real(0.5));

    Real err_full = SE3::translationDistance(full.pose, ds.gtPose(1));
    Real err_down = SE3::translationDistance(down.pose, ds.gtPose(1));
    EXPECT_LT(err_down, err_full * Real(1.15) + Real(0.01))
        << "downsampling must not materially degrade tracking";
}

TEST(SlamIntegration, PeakMemoryTracksCloudGrowth)
{
    auto system = runSequence(BaseAlgorithm::MonoGs);
    EXPECT_GE(system->peakGaussianBytes(),
              system->cloud().parameterBytes());
    EXPECT_GT(system->peakGaussianBytes(), 0u);
}

TEST(SlamIntegration, ReportsSeparateStageTimes)
{
    auto system = runSequence(BaseAlgorithm::MonoGs);
    double track_seconds = 0, map_seconds = 0;
    for (const auto &r : system->reports()) {
        track_seconds += r.trackSeconds;
        map_seconds += r.mapSeconds;
    }
    EXPECT_GT(track_seconds, 0.0);
    EXPECT_GT(map_seconds, 0.0);
}

TEST(SlamIntegration, DensifyFillsUncoveredRegions)
{
    auto &ds = tinyDataset();
    SlamConfig cfg = fastConfig(BaseAlgorithm::MonoGs);
    SlamSystem system(cfg, ds.intrinsics());
    FrameReport r0 = system.processFrame(ds.frame(0));
    EXPECT_GT(r0.densified, 50u) << "first keyframe must seed the map";
    // Re-densifying the same view adds little.
    KeyframeRecord again{0, ds.gtPose(0), ds.frame(0).rgb,
                         ds.frame(0).depth};
    size_t added = system.mapper().densify(
        system.renderPipeline(), system.cloud(), ds.intrinsics(), again);
    EXPECT_LT(added, r0.densified / 3);
}

} // namespace rtgs::slam
