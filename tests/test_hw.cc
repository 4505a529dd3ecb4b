/**
 * @file
 * Hardware-model tests: trace capture consistency, the GPU baseline's
 * divergence/atomic behaviour, the plug-in's pairing/streaming/R&B/GMU
 * mechanisms (each against hand-computable cases), system-level
 * orderings the paper reports, the energy/area scaling model, and the
 * Listing-1 runtime protocol.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "data/scene.hh"
#include "hw/energy.hh"
#include "hw/rtgs_api.hh"
#include "hw/system_model.hh"

namespace rtgs::hw
{

namespace
{

using gs::GaussianCloud;

/** A small rendered workload shared by the model tests. */
struct WorkloadFixture
{
    GaussianCloud cloud;
    gs::RenderPipeline pipeline;
    gs::ForwardContext ctx;
    IterationTrace trace;

    WorkloadFixture()
    {
        data::SceneConfig cfg;
        cfg.surfelSpacing = Real(0.3);
        cloud = data::buildScene(cfg);
        Camera cam(Intrinsics::fromFov(Real(1.3), 160, 128),
                   SE3::lookAt({1.0f, -0.3f, 0.4f}, {0, 0, 0}));
        ctx = pipeline.forward(cloud, cam);
        trace = IterationTrace::capture(ctx, cloud.size());
    }
};

WorkloadFixture &
fixture()
{
    static WorkloadFixture f;
    return f;
}

SubtileLoad
makeSubtile(std::initializer_list<u16> iterated)
{
    SubtileLoad s;
    s.iterated.assign(iterated);
    s.blended.assign(iterated.begin(), iterated.end());
    return s;
}

} // namespace

TEST(Trace, CaptureMatchesRenderCounters)
{
    auto &f = fixture();
    EXPECT_EQ(f.trace.width, 160u);
    EXPECT_EQ(f.trace.height, 128u);
    EXPECT_EQ(f.trace.fragmentsIterated,
              f.ctx.result.totalFragments());
    EXPECT_EQ(f.trace.fragmentsBlended, f.ctx.result.totalBlended());
    EXPECT_EQ(f.trace.intersections, f.ctx.bins.totalIntersections());

    // Per-subtile sums reassemble the totals.
    u64 sum = 0;
    for (const auto *s : f.trace.allSubtiles())
        sum += s->sumIterated();
    EXPECT_EQ(sum, f.trace.fragmentsIterated);
}

TEST(Trace, SubtileGeometry)
{
    auto &f = fixture();
    // 160x128 with 16px tiles -> 10x8 tiles, each 16 subtiles of 16 px.
    EXPECT_EQ(f.trace.tiles.size(), 80u);
    for (const auto &tile : f.trace.tiles) {
        EXPECT_EQ(tile.subtiles.size(), 16u);
        for (const auto &s : tile.subtiles)
            EXPECT_EQ(s.iterated.size(), 16u);
    }
}

TEST(Trace, MeanFragmentsPerPixel)
{
    auto &f = fixture();
    double mean = f.trace.meanFragmentsPerPixel();
    EXPECT_GT(mean, 0);
    EXPECT_NEAR(mean, static_cast<double>(f.trace.fragmentsIterated) /
                          (160.0 * 128.0), 1e-9);
}

TEST(GpuModel, StepTimesArePositiveAndOrdered)
{
    auto &f = fixture();
    EdgeGpuModel gpu(GpuSpec::onx(), 1.0);
    GpuStepTimes t = gpu.iterationTime(f.trace);
    EXPECT_GT(t.preprocess, 0);
    EXPECT_GT(t.sort, 0);
    EXPECT_GT(t.render, 0);
    EXPECT_GT(t.renderBp, 0);
    EXPECT_GT(t.preprocessBp, 0);
    // Observation 2: rendering + rendering BP dominate.
    EXPECT_GT((t.render + t.renderBp) / t.total(), 0.5);
    // Observation 4: rendering BP costs more than the forward pass.
    EXPECT_GT(t.renderBp, t.render);
}

TEST(GpuModel, DivergencePenalisesImbalance)
{
    auto &f = fixture();
    EdgeGpuModel gpu(GpuSpec::onx(), 1.0);
    double eff = gpu.effectiveFragments(f.trace, false);
    EXPECT_GE(eff, static_cast<double>(f.trace.fragmentsIterated));
}

TEST(GpuModel, DistwarReducesAtomicStalls)
{
    auto &f = fixture();
    EdgeGpuModel gpu(GpuSpec::onx(), 1.0);
    GpuStepTimes base = gpu.iterationTime(f.trace, false);
    GpuStepTimes dw = gpu.iterationTime(f.trace, true);
    EXPECT_LT(dw.atomicStall, base.atomicStall);
    EXPECT_LT(dw.total(), base.total());
    // DISTWAR only touches aggregation: forward identical.
    EXPECT_DOUBLE_EQ(dw.render, base.render);
}

TEST(GpuModel, BiggerGpuIsFaster)
{
    auto &f = fixture();
    EdgeGpuModel onx(GpuSpec::onx(), 1.0);
    EdgeGpuModel rtx(GpuSpec::rtx3090(), 1.0);
    EXPECT_LT(rtx.iterationTime(f.trace).total(),
              onx.iterationTime(f.trace).total());
}

TEST(PluginModel, PairingHalvesSkewedPairs)
{
    RtgsAccelModel model;
    // 16 pixels: 8 heavy (40 frags), 8 light (0 frags).
    SubtileLoad skewed = makeSubtile(
        {40, 0, 40, 0, 40, 0, 40, 0, 40, 0, 40, 0, 40, 0, 40, 0});
    double unpaired = model.subtileForwardCycles(skewed, false);
    double paired = model.subtileForwardCycles(skewed, true);
    // Unpaired: max(40,0)=40 slots; paired: ceil(40/2)=20 slots.
    RtgsHwConfig cfg;
    double fill = cfg.alphaComputeCycles + cfg.alphaBlendCycles;
    EXPECT_NEAR(unpaired - fill, 40, 1e-9);
    EXPECT_NEAR(paired - fill, 20, 1e-9);
}

TEST(PluginModel, PairingNeverHurtsBalancedLoad)
{
    RtgsAccelModel model;
    SubtileLoad flat = makeSubtile(
        {10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10});
    EXPECT_NEAR(model.subtileForwardCycles(flat, true),
                model.subtileForwardCycles(flat, false), 1e-9);
}

TEST(PluginModel, RbBufferCutsBackwardCost)
{
    RtgsAccelModel model;
    SubtileLoad load = makeSubtile(
        {20, 18, 22, 19, 21, 20, 18, 22, 20, 19, 21, 20, 18, 22, 20, 19});
    double with = model.subtileBackwardCycles(load, true, true);
    double without = model.subtileBackwardCycles(load, true, false);
    // 20 vs 4 cycles per fragment: the reuse path is ~5x cheaper.
    EXPECT_GT(without / with, 3.0);
    EXPECT_LT(without / with, 6.0);
}

TEST(PluginModel, StreamingBeatsBarrierRounds)
{
    auto &f = fixture();
    RtgsAccelModel model;
    RtgsFeatures no_stream = RtgsFeatures::all();
    no_stream.streaming = false;
    double streamed =
        model.iterationTime(f.trace, true, RtgsFeatures::all()).total;
    double rounds =
        model.iterationTime(f.trace, true, no_stream).total;
    EXPECT_LE(streamed, rounds);
}

TEST(PluginModel, GmuBeatsAtomicAggregation)
{
    auto &f = fixture();
    RtgsAccelModel model;
    RtgsFeatures no_gmu = RtgsFeatures::all();
    no_gmu.gmu = false;
    PluginTimes with = model.iterationTime(f.trace, true);
    PluginTimes without = model.iterationTime(f.trace, true, no_gmu);
    EXPECT_LT(with.merge, without.merge);
    // Paper: merging latency reduced by ~68% on average.
    EXPECT_GT(1.0 - with.merge / without.merge, 0.4);
}

TEST(PluginModel, PipeliningOverlapsPhases)
{
    auto &f = fixture();
    RtgsAccelModel model;
    RtgsFeatures serial = RtgsFeatures::all();
    serial.pipelined = false;
    double piped = model.iterationTime(f.trace, true).total;
    double flat = model.iterationTime(f.trace, true, serial).total;
    EXPECT_LT(piped, flat);
}

TEST(PluginModel, ImbalanceDropsWithScheduling)
{
    auto &f = fixture();
    RtgsAccelModel model;
    RtgsFeatures none = RtgsFeatures::none();
    RtgsFeatures stream = none;
    stream.streaming = true;
    RtgsFeatures both = stream;
    both.wsuPairing = true;
    double i_none = model.imbalance(f.trace, none);
    double i_stream = model.imbalance(f.trace, stream);
    double i_both = model.imbalance(f.trace, both);
    EXPECT_LE(i_stream, i_none);
    // Pairing shrinks work and makespan together; the residual idle
    // fraction is equal up to scheduling noise.
    EXPECT_LE(i_both, i_stream + 0.01);
}

TEST(PluginModel, TrackingAddsPoseCost)
{
    auto &f = fixture();
    RtgsAccelModel model;
    PluginTimes track = model.iterationTime(f.trace, true);
    PluginTimes map = model.iterationTime(f.trace, false);
    EXPECT_GT(track.poseUpdate, 0);
    EXPECT_EQ(map.poseUpdate, 0);
}

TEST(SystemModel, PluginAcceleratesOverGpu)
{
    auto &f = fixture();
    SystemModel model(GpuSpec::onx(), 1.0);
    FrameTrace frame;
    frame.isKeyframe = false;
    frame.trackIterations = 10;
    frame.tracking = f.trace;

    double gpu = model.frameTime(frame, SystemKind::GpuBaseline);
    double distwar = model.frameTime(frame, SystemKind::GpuDistwar);
    double rtgs = model.frameTime(frame, SystemKind::RtgsFull);
    // Fig. 15 ordering: GPU > DISTWAR > RTGS.
    EXPECT_LT(distwar, gpu);
    EXPECT_LT(rtgs, distwar);
    EXPECT_GT(gpu / rtgs, 3.0) << "plug-in must be several times faster";
}

TEST(SystemModel, TrackingOnlyAcceleratesNoMappingVariant)
{
    auto &f = fixture();
    SystemModel model(GpuSpec::onx(), 1.0);
    FrameTrace kf;
    kf.isKeyframe = true;
    kf.trackIterations = 10;
    kf.mapIterations = 10;
    kf.tracking = f.trace;
    kf.mapping = f.trace;

    double no_map = model.frameTime(kf, SystemKind::RtgsNoMapping);
    double full = model.frameTime(kf, SystemKind::RtgsFull);
    EXPECT_LT(full, no_map)
        << "accelerating mapping too must help on keyframes";
}

TEST(SystemModel, GauSpuBetweenGpuAndRtgs)
{
    auto &f = fixture();
    SystemModel model(GpuSpec::rtx3090(), 1.0);
    FrameTrace frame;
    frame.trackIterations = 10;
    frame.tracking = f.trace;
    double gpu = model.frameTrackingTime(frame, SystemKind::GpuBaseline);
    double gauspu = model.frameTrackingTime(frame, SystemKind::GauSpu);
    double rtgs = model.frameTrackingTime(frame, SystemKind::RtgsFull);
    // Both plug-ins beat the GPU on this kernel. On an *identical*
    // workload the two plug-ins are comparable (GauSPU has 8x the REs;
    // RTGS has the R&B/WSU/pipelining techniques) — RTGS's 2.3x FPS
    // advantage in the paper comes from the algorithm layer shrinking
    // the workload, which Fig. 16's bench measures end to end.
    EXPECT_LT(gauspu, gpu);
    EXPECT_LT(rtgs, gpu);
    EXPECT_LT(rtgs, gauspu * 2.0);
}

TEST(SystemModel, ExtraScoringPassesCost)
{
    auto &f = fixture();
    SystemModel model(GpuSpec::onx(), 1.0);
    FrameTrace frame;
    frame.trackIterations = 5;
    frame.tracking = f.trace;
    double base = model.frameTime(frame, SystemKind::GpuBaseline);
    frame.extraScoringPasses = 2;
    double charged = model.frameTime(frame, SystemKind::GpuBaseline);
    EXPECT_GT(charged, base);
}

TEST(SystemModel, EnergyEfficiencyGainIsLarge)
{
    auto &f = fixture();
    SystemModel model(GpuSpec::onx(), 1.0);
    FrameTrace frame;
    frame.isKeyframe = true;
    frame.trackIterations = 10;
    frame.mapIterations = 10;
    frame.tracking = f.trace;
    frame.mapping = f.trace;

    double e_gpu =
        model.frameEnergy(frame, SystemKind::GpuBaseline).joules();
    double e_rtgs =
        model.frameEnergy(frame, SystemKind::RtgsFull).joules();
    EXPECT_GT(e_gpu / e_rtgs, 5.0)
        << "paper reports 32x-73x energy-per-frame gains";
}

TEST(SystemModel, SequenceReportAggregates)
{
    auto &f = fixture();
    SystemModel model(GpuSpec::onx(), 1.0);
    FrameTrace frame;
    frame.trackIterations = 5;
    frame.tracking = f.trace;
    std::vector<FrameTrace> frames(4, frame);
    auto rep = model.sequenceReport(frames, SystemKind::GpuBaseline);
    EXPECT_EQ(rep.frames, 4u);
    EXPECT_NEAR(rep.totalSeconds,
                4 * model.frameTime(frame, SystemKind::GpuBaseline),
                1e-12);
    EXPECT_GT(rep.fps(), 0);
}

TEST(Energy, TechScalingMatchesTable5)
{
    RtgsHwConfig base = RtgsHwConfig::paper();
    RtgsHwConfig at12 = TechScaling::scaleConfig(base, 12);
    RtgsHwConfig at8 = TechScaling::scaleConfig(base, 8);
    EXPECT_NEAR(at12.areaMm2, 6.49, 0.01);
    EXPECT_NEAR(at12.powerWatts, 4.63, 0.01);
    EXPECT_NEAR(at8.areaMm2, 2.40, 0.01);
    EXPECT_NEAR(at8.powerWatts, 3.76, 0.01);
}

TEST(Energy, ReportMath)
{
    EnergyReport r{2.0, 8.11};
    EXPECT_NEAR(r.joules(), 16.22, 1e-9);
    SystemEnergy s;
    s.gpu = {1.0, 15.0};
    s.plugin = {2.0, 8.11};
    EXPECT_NEAR(s.joules(), 15.0 + 16.22, 1e-9);
}

TEST(Config, Table4SramTotal)
{
    RtgsHwConfig cfg = RtgsHwConfig::paper();
    EXPECT_EQ(cfg.totalSramKb(), 197u);
    EXPECT_EQ(cfg.reCount, 16u);
    EXPECT_EQ(cfg.gmuCount, 4u);
    EXPECT_NEAR(cfg.powerWatts, 8.11, 1e-9);
}

TEST(RtgsApi, NonKeyframeProtocolOrder)
{
    std::vector<std::string> calls;
    RtgsRuntime runtime(
        [&](int, bool) { calls.push_back("execute"); },
        [&](int) { calls.push_back("prune"); },
        [&](int) { calls.push_back("pose"); },
        [&](int) { calls.push_back("map"); });

    auto &trace = runtime.rtgsExecute(7, /*is_keyframe=*/false);
    ASSERT_EQ(calls.size(), 3u);
    EXPECT_EQ(calls[0], "execute");
    EXPECT_EQ(calls[1], "prune");
    EXPECT_EQ(calls[2], "pose");

    // Flag ordering per Listing 1.
    std::vector<RtgsEvent> expected{
        RtgsEvent::InputDone, RtgsEvent::ExecuteStart,
        RtgsEvent::GradientReady, RtgsEvent::PruningStart,
        RtgsEvent::PruningDone, RtgsEvent::PoseWritten,
        RtgsEvent::FrameComplete};
    ASSERT_EQ(trace.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(trace[i], expected[i]) << "event " << i;
    EXPECT_EQ(runtime.rtgsCheckStatus(7), RtgsStatus::Idle);
}

TEST(RtgsApi, KeyframeSkipsPruningAndPose)
{
    std::vector<std::string> calls;
    RtgsRuntime runtime(
        [&](int, bool) { calls.push_back("execute"); },
        [&](int) { calls.push_back("prune"); },
        [&](int) { calls.push_back("pose"); },
        [&](int) { calls.push_back("map"); });

    auto &trace = runtime.rtgsExecute(3, /*is_keyframe=*/true);
    ASSERT_EQ(calls.size(), 2u);
    EXPECT_EQ(calls[0], "execute");
    EXPECT_EQ(calls[1], "map");
    bool saw_pruning = false;
    for (auto e : trace)
        saw_pruning |= e == RtgsEvent::PruningStart;
    EXPECT_FALSE(saw_pruning);
    EXPECT_EQ(runtime.framesExecuted(), 1u);
}

TEST(RtgsApi, StatusDuringExecution)
{
    RtgsRuntime *self = nullptr;
    RtgsRuntime runtime(
        [&](int id, bool) {
            EXPECT_EQ(self->rtgsCheckStatus(id), RtgsStatus::Executing);
        },
        [&](int id) {
            EXPECT_EQ(self->rtgsCheckStatus(id),
                      RtgsStatus::WaitPruning);
        },
        nullptr, nullptr);
    self = &runtime;
    runtime.rtgsExecute(1, false);
    EXPECT_EQ(runtime.rtgsCheckStatus(1, /*blocking=*/true),
              RtgsStatus::Idle);
}

TEST(RtgsApi, EventNamesAreStable)
{
    EXPECT_STREQ(rtgsEventName(RtgsEvent::InputDone), "input_done");
    EXPECT_STREQ(rtgsEventName(RtgsEvent::GradientReady),
                 "gradient_ready");
}

} // namespace rtgs::hw
