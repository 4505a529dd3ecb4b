/**
 * @file
 * Tests for the tracking-health monitor: the state machine and input
 * validation in isolation, the byte-identity contract (monitor on vs
 * off over a clean stream must not change a single bit of the
 * trajectory or map), and the integrated degradation/recovery behavior
 * of SlamSystem under injected input faults.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "byte_identity.hh"
#include "data/fault_injector.hh"
#include "slam/health_monitor.hh"
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

HealthConfig
enabledHealth()
{
    HealthConfig health;
    health.enabled = true;
    return health;
}

data::Frame
nanFrame(const data::Frame &src)
{
    data::Frame f = src;
    for (u32 i = 0; i < 40 && i < f.rgb.pixelCount(); ++i)
        f.rgb[i].x = std::numeric_limits<Real>::quiet_NaN();
    return f;
}

/** A clean AssessInput whose tracked pose matches the prediction. */
AssessInput
cleanAssess(double loss = 0.01)
{
    AssessInput in;
    in.trackLoss = loss;
    in.trackedPose = SE3::identity();
    in.predictedPose = SE3::identity();
    return in;
}

} // namespace

// --- unit: input validation ------------------------------------------

TEST(HealthMonitor, RejectsNanPixels)
{
    HealthMonitor monitor(enabledHealth());
    auto &ds = tinyDataset();
    EXPECT_FALSE(monitor.checkInput(ds.frame(0)).reject);

    InputCheck check = monitor.checkInput(nanFrame(ds.frame(1)));
    EXPECT_TRUE(check.reject);
    EXPECT_TRUE(check.nanPixels);
    monitor.noteRejected();
    EXPECT_EQ(monitor.rejectedInputs(), 1u);
    EXPECT_EQ(monitor.state(), HealthState::Relocalizing);
}

TEST(HealthMonitor, NanToleranceThresholdAdmitsSparseNans)
{
    HealthConfig health = enabledHealth();
    health.maxNanPixelFraction = Real(0.5);
    HealthMonitor monitor(health);
    // 40 NaN pixels in a 64x48 frame is ~1.3% — under the 50% budget.
    InputCheck check = monitor.checkInput(nanFrame(tinyDataset().frame(0)));
    EXPECT_FALSE(check.reject);
}

TEST(HealthMonitor, RejectsNonMonotonicTimestamps)
{
    HealthMonitor monitor(enabledHealth());
    auto &ds = tinyDataset();
    EXPECT_FALSE(monitor.checkInput(ds.frame(0)).reject);
    EXPECT_FALSE(monitor.checkInput(ds.frame(1)).reject);

    // Duplicate: reuse frame 1's timestamp.
    data::Frame dup = ds.frame(2);
    dup.timestamp = ds.frame(1).timestamp;
    InputCheck check = monitor.checkInput(dup);
    EXPECT_TRUE(check.reject);
    EXPECT_TRUE(check.badTimestamp);
    monitor.noteRejected();

    // Regression: behind the last ACCEPTED frame (frame 1).
    data::Frame ooo = ds.frame(3);
    ooo.timestamp = ds.frame(0).timestamp;
    EXPECT_TRUE(monitor.checkInput(ooo).badTimestamp);
    monitor.noteRejected();

    // The next in-order frame must be accepted: the watermark advanced
    // only on accepted frames, so frame 2's own timestamp still passes.
    EXPECT_FALSE(monitor.checkInput(ds.frame(2)).reject);
}

TEST(HealthMonitor, DepthStarvedFrameDegradesInsteadOfRejecting)
{
    HealthMonitor monitor(enabledHealth());
    data::Frame f = tinyDataset().frame(0);
    for (size_t i = 0; i < f.depth.pixelCount(); ++i)
        f.depth[i] = 0;
    InputCheck check = monitor.checkInput(f);
    EXPECT_FALSE(check.reject);
    EXPECT_TRUE(check.depthInvalid);
}

// --- unit: state machine ---------------------------------------------

TEST(HealthMonitor, EscalatesToLostAndRecovers)
{
    HealthConfig health = enabledHealth();
    health.lostPatience = 3;
    health.recoveryOkFrames = 2;
    health.probeConfirm = false;
    HealthMonitor monitor(health);

    // Establish a loss baseline with clean frames.
    for (int i = 0; i < 3; ++i)
        monitor.assess(cleanAssess());
    EXPECT_EQ(monitor.state(), HealthState::Ok);
    EXPECT_EQ(monitor.framesSinceHealthy(), 0u);

    // Loss spike: well over max(floor, 3x EMA).
    AssessInput spike = cleanAssess(0.5);
    Assessment a = monitor.assess(spike);
    EXPECT_TRUE(a.suspect);
    EXPECT_TRUE(a.holdPose);
    EXPECT_TRUE(a.suppressKeyframe);
    EXPECT_EQ(a.state, HealthState::Relocalizing);

    monitor.assess(spike);
    a = monitor.assess(spike);
    EXPECT_EQ(a.state, HealthState::Lost) << "lostPatience=3 reached";
    EXPECT_GE(monitor.framesSinceHealthy(), 3u);

    // Passive recovery goes through probation: Lost only exits after
    // kLostProbationFrames consecutive clean frames (the active exit,
    // an accepted relocalization, is tested in test_relocalizer.cc).
    a = monitor.assess(cleanAssess());
    EXPECT_FALSE(a.suspect);
    EXPECT_EQ(a.state, HealthState::Lost)
        << "one clean frame is not enough to leave Lost";
    EXPECT_FALSE(a.forceKeyframe);

    a = monitor.assess(cleanAssess());
    EXPECT_EQ(a.state, HealthState::Relocalizing)
        << "kLostProbationFrames=2 clean frames end probation";
    EXPECT_TRUE(a.forceKeyframe)
        << "re-anchor fires on the frame that exits probation";

    // The recovery clock to Ok restarts after probation.
    a = monitor.assess(cleanAssess());
    EXPECT_FALSE(a.forceKeyframe) << "re-anchor fires exactly once";
    EXPECT_EQ(a.state, HealthState::Relocalizing);

    a = monitor.assess(cleanAssess());
    EXPECT_EQ(a.state, HealthState::Ok)
        << "recoveryOkFrames=2 clean frames restore Ok";
    EXPECT_EQ(monitor.framesSinceHealthy(), 0u);
    EXPECT_EQ(monitor.recoveries(), 1u);
}

TEST(HealthMonitor, RecoveryLatencyIsBounded)
{
    // After a fault burst ends, the monitor must return to Ok within
    // kLostProbationFrames + recoveryOkFrames clean frames — never
    // more (the passive LOST exit serves probation first, then the
    // recovery clock runs).
    HealthConfig health = enabledHealth();
    health.probeConfirm = false;
    HealthMonitor monitor(health);
    for (int i = 0; i < 3; ++i)
        monitor.assess(cleanAssess());
    for (int i = 0; i < 8; ++i)
        monitor.assess(cleanAssess(0.9)); // long fault burst, Lost
    EXPECT_EQ(monitor.state(), HealthState::Lost);

    const u32 bound = kLostProbationFrames + health.recoveryOkFrames;
    u32 frames_to_ok = 0;
    while (monitor.state() != HealthState::Ok) {
        monitor.assess(cleanAssess());
        ++frames_to_ok;
        ASSERT_LE(frames_to_ok, bound)
            << "recovery latency exceeded the configured bound";
    }
    EXPECT_EQ(frames_to_ok, bound);
}

TEST(HealthMonitor, PoseJumpTriggersSuspect)
{
    HealthConfig health = enabledHealth();
    health.probeConfirm = false;
    HealthMonitor monitor(health);
    AssessInput in = cleanAssess();
    in.trackedPose.trans.x = Real(1.0); // 1 m off a static prediction
    Assessment a = monitor.assess(in);
    EXPECT_TRUE(a.suspect);
    EXPECT_TRUE(a.holdPose);
}

TEST(HealthMonitor, ProbeConfirmVetoesFalseAlarm)
{
    HealthConfig health = enabledHealth();
    health.probeConfirm = true;
    health.probePsnrMinDb = Real(11);
    HealthMonitor monitor(health);
    for (int i = 0; i < 3; ++i)
        monitor.assess(cleanAssess());

    // Suspect by loss spike, but the probe says the render is healthy:
    // the monitor must not intervene.
    AssessInput spike = cleanAssess(0.5);
    int probes = 0;
    spike.probePsnr = [&probes]() {
        ++probes;
        return 25.0;
    };
    Assessment a = monitor.assess(spike);
    EXPECT_EQ(probes, 1);
    EXPECT_FALSE(a.suspect);
    EXPECT_FALSE(a.holdPose);
    EXPECT_EQ(a.state, HealthState::Ok);
    EXPECT_GE(a.probePsnrDb, 25.0);

    // A clean frame must never pay for the probe render.
    AssessInput clean = cleanAssess();
    clean.probePsnr = [&probes]() {
        ++probes;
        return 25.0;
    };
    monitor.assess(clean);
    EXPECT_EQ(probes, 1) << "probe must be lazy: suspect frames only";

    // An unhealthy probe confirms the suspicion.
    AssessInput confirmed = cleanAssess(0.5);
    confirmed.probePsnr = []() { return 5.0; };
    a = monitor.assess(confirmed);
    EXPECT_TRUE(a.suspect);
}

TEST(HealthMonitor, AdviseBoostsBudgetOnlyWhileUnhealthy)
{
    HealthConfig health = enabledHealth();
    health.boostFactor = Real(1.5);
    health.probeConfirm = false;
    HealthMonitor monitor(health);

    FrameAdvice advice = monitor.advise(10);
    EXPECT_FALSE(advice.boostBudget) << "Ok state: no boost";

    // Establish a loss baseline, then spike it to leave Ok.
    for (int i = 0; i < 3; ++i)
        monitor.assess(cleanAssess());
    monitor.assess(cleanAssess(0.9));
    ASSERT_NE(monitor.state(), HealthState::Ok);
    advice = monitor.advise(10);
    EXPECT_TRUE(advice.boostBudget);
    EXPECT_EQ(advice.trackIterations, 15u) << "ceil(10 * 1.5)";
    // The boost must always exceed the configured count, even when the
    // factor rounds down to it.
    advice = monitor.advise(1);
    EXPECT_GT(advice.trackIterations, 1u);
}

// --- integration: byte-identity with the monitor on ------------------

TEST(HealthMonitor, CleanRunByteIdenticalWithMonitorOnAllProfiles)
{
    // The central contract of the robustness layer: over a fault-free
    // stream the monitor observes but never intervenes, so enabling it
    // must not change one bit of the trajectory or the map.
    auto &ds = tinyDataset();
    const BaseAlgorithm algos[] = {BaseAlgorithm::GsSlam,
                                   BaseAlgorithm::MonoGs,
                                   BaseAlgorithm::PhotoSlam,
                                   BaseAlgorithm::SplaTam};
    for (auto algo : algos) {
        SlamConfig off_cfg = fastConfig(algo);
        SlamSystem off_sys(off_cfg, ds.intrinsics());

        SlamConfig on_cfg = fastConfig(algo);
        on_cfg.health = enabledHealth();
        SlamSystem on_sys(on_cfg, ds.intrinsics());

        for (u32 f = 0; f < ds.frameCount(); ++f) {
            off_sys.processFrame(ds.frame(f));
            FrameReport report = on_sys.processFrame(ds.frame(f));
            EXPECT_EQ(report.healthState, HealthState::Ok)
                << algorithmName(algo) << ": frame " << f;
            EXPECT_FALSE(report.poseHeld);
            EXPECT_FALSE(report.budgetBoosted);
        }

        EXPECT_TRUE(trajectoriesIdentical(off_sys.trajectory(),
                                          on_sys.trajectory()))
            << algorithmName(algo) << ": trajectories diverged";
        EXPECT_TRUE(cloudsIdentical(off_sys.cloud(), on_sys.cloud()))
            << algorithmName(algo) << ": clouds diverged";
    }
}

// --- integration: degradation and recovery under faults --------------

TEST(HealthMonitor, SlamRejectsNanFrameAndRecovers)
{
    auto &ds = tinyDataset();
    SlamConfig cfg = fastConfig(BaseAlgorithm::MonoGs);
    cfg.health = enabledHealth();
    SlamSystem sys(cfg, ds.intrinsics());

    std::vector<FrameReport> reports;
    for (u32 f = 0; f < ds.frameCount(); ++f) {
        data::Frame frame = ds.frame(f);
        if (f == 4)
            frame = nanFrame(frame);
        reports.push_back(sys.processFrame(frame));
    }

    // The corrupted frame is rejected before tracking and the pose held.
    EXPECT_TRUE(reports[4].inputRejected);
    EXPECT_TRUE(reports[4].inputNan);
    EXPECT_TRUE(reports[4].poseHeld);
    EXPECT_EQ(reports[4].trackIterations, 0u);
    EXPECT_EQ(reports[4].healthState, HealthState::Relocalizing);
    EXPECT_GT(reports[4].framesSinceHealthy, 0u);

    // The trajectory stays frame-aligned: one pose per input frame.
    EXPECT_EQ(sys.trajectory().size(), ds.frameCount());

    // The next clean frame tracks with a boosted budget and re-anchors.
    EXPECT_TRUE(reports[5].budgetBoosted);
    EXPECT_TRUE(reports[5].forcedRecoveryKeyframe);
    EXPECT_TRUE(reports[5].isKeyframe);

    // Bounded recovery: Ok again within recoveryOkFrames clean frames.
    EXPECT_EQ(reports[4 + cfg.health.recoveryOkFrames].healthState,
              HealthState::Ok);
    EXPECT_EQ(reports.back().healthState, HealthState::Ok);
    ASSERT_NE(sys.healthMonitor(), nullptr);
    EXPECT_EQ(sys.healthMonitor()->recoveries(), 1u);
    EXPECT_EQ(sys.healthMonitor()->rejectedInputs(), 1u);
}

TEST(HealthMonitor, BoostedBudgetExceedsConfiguredIterations)
{
    // The recovery boost is the sanctioned exception to the "budgets
    // only ever lower the configured count" rule: with allowExceed set
    // by the monitor, the executed iteration count must rise above the
    // configured one (early stop off so counts are exact).
    auto &ds = tinyDataset();
    SlamConfig cfg = fastConfig(BaseAlgorithm::MonoGs);
    cfg.tracker.iterations = 4;
    cfg.tracker.earlyStop = false;
    cfg.health = enabledHealth();
    SlamSystem sys(cfg, ds.intrinsics());

    std::vector<FrameReport> reports;
    for (u32 f = 0; f < 6; ++f) {
        data::Frame frame = ds.frame(f);
        if (f == 3)
            frame = nanFrame(frame);
        reports.push_back(sys.processFrame(frame));
    }

    EXPECT_EQ(reports[2].trackIterations, 4u) << "healthy: configured";
    EXPECT_TRUE(reports[4].budgetBoosted);
    EXPECT_GT(reports[4].trackIterations, 4u)
        << "recovery boost must exceed the configured count";
    EXPECT_EQ(reports[4].trackIterations, 6u) << "ceil(4 * 1.5)";
}

TEST(HealthMonitor, DepthDropoutDegradesToRgbOnlyTracking)
{
    auto &ds = tinyDataset();
    SlamConfig cfg = fastConfig(BaseAlgorithm::GsSlam);
    cfg.health = enabledHealth();
    SlamSystem sys(cfg, ds.intrinsics());

    data::FaultSchedule schedule;
    schedule.depthDropoutProbability = Real(1);
    data::FaultInjector injector(schedule);

    std::vector<FrameReport> reports;
    for (u32 f = 0; f < 6; ++f) {
        data::Frame frame = ds.frame(f);
        if (f == 3)
            frame = *injector.process(frame);
        reports.push_back(sys.processFrame(frame));
    }

    EXPECT_FALSE(reports[2].depthIgnored);
    EXPECT_TRUE(reports[3].depthIgnored);
    EXPECT_FALSE(reports[3].inputRejected)
        << "depth dropout degrades, it does not reject";
    EXPECT_GT(reports[3].trackIterations, 0u) << "frame still tracked";
    EXPECT_FALSE(reports[4].depthIgnored);
}

TEST(HealthMonitor, FaultedStreamCompletesWithAccounting)
{
    // End-to-end: a stream with drops and out-of-order timestamps runs
    // to completion (no wedge), every delivered frame gets a report and
    // a trajectory pose, and the monitor's rejection count matches the
    // injector's timestamp-fault count.
    auto &ds = tinyDataset();
    SlamConfig cfg = fastConfig(BaseAlgorithm::MonoGs);
    cfg.health = enabledHealth();
    SlamSystem sys(cfg, ds.intrinsics());

    data::FaultSchedule schedule;
    schedule.seed = 21;
    schedule.dropProbability = Real(0.2);
    schedule.outOfOrderProbability = Real(0.25);
    data::FaultInjector injector(schedule);

    size_t delivered = 0;
    for (u32 f = 0; f < ds.frameCount(); ++f) {
        auto frame = injector.process(ds.frame(f));
        if (!frame)
            continue;
        sys.processFrame(*frame);
        ++delivered;
    }

    data::FaultStats stats = injector.stats();
    EXPECT_GT(stats.dropped, 0u);
    EXPECT_GT(stats.timestampFaults, 0u);
    EXPECT_EQ(delivered, stats.framesDelivered);
    EXPECT_EQ(sys.trajectory().size(), delivered);
    EXPECT_EQ(sys.reports().size(), delivered);
    ASSERT_NE(sys.healthMonitor(), nullptr);
    // Out-of-order frames regress behind the last accepted timestamp,
    // so each one is rejected exactly once; dropped frames never reach
    // the monitor at all.
    EXPECT_EQ(sys.healthMonitor()->rejectedInputs(),
              stats.timestampFaults);
    EXPECT_EQ(sys.healthMonitor()->heldPoses(), 0u)
        << "timestamp rejects hold before tracking, not after";
}

} // namespace rtgs::slam
