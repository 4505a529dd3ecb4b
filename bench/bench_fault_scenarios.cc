/**
 * @file
 * Fault-injection stress scenarios for the robustness layer: runs the
 * SLAM system with the tracking-health monitor enabled against
 * deterministic fault schedules (dropped frames, transport bursts,
 * out-of-order timestamps, corrupted regions, exposure shifts, depth
 * dropout, adversarial scene dynamics, and a map-queue flood under the
 * drop-oldest overflow policy) and reports per-scenario ATE RMSE,
 * PSNR, recovery-frame counts, relocalization activity, and
 * queue-overflow drop accounting.
 *
 * The tracking_lost_recovery scenario models a transport stall that
 * replays an earlier segment of the stream: a full-frame occluder
 * burst starves tracking (the monitor escalates to LOST and the pose
 * coasts forward on the constant-velocity model) while the camera is
 * teleported back into already-mapped territory underneath it. When
 * the occluder lifts, the coasting guess is far outside the tracker's
 * convergence basin but the true view is one the keyframe database
 * knows — exactly the situation map-based relocalization exists for.
 * Run twice — relocalizer on vs the coasting baseline — and judged on
 * time-to-reacquire and a head-anchored post-recovery ATE (aligned on
 * the pre-fault frames only, so the Umeyama fit cannot absorb the
 * post-fault divergence).
 *
 * Also pins the central robustness contracts in passing: a clean run
 * with the monitor ON — and with the relocalizer ON — is
 * byte-identical to one with both OFF.
 *
 * Writes BENCH_fault_scenarios.json (override with
 * RTGS_BENCH_JSON_FAULT).
 */

#include "bench_util.hh"

#include <cmath>
#include <cstring>

#include "data/fault_injector.hh"
#include "data/scene.hh"
#include "slam/evaluation.hh"
#include "slam/pipeline.hh"

namespace
{

using namespace rtgs;

/** Everything one stress scenario reports. */
struct ScenarioOutcome
{
    std::string name;
    size_t framesSeen = 0;
    size_t framesDelivered = 0;
    size_t streamDropped = 0;    //!< frames the schedule dropped
    size_t rejectedInputs = 0;   //!< frames the monitor refused
    size_t heldPoses = 0;        //!< post-track holds (divergence)
    size_t framesNotOk = 0;      //!< frames reported != OK
    size_t recoveries = 0;       //!< completed recovery episodes
    size_t forcedKeyframes = 0;  //!< recovery re-anchors
    size_t mapJobsDropped = 0;   //!< queue-overflow evictions
    size_t relocAttempts = 0;    //!< relocalization searches run
    size_t relocAccepted = 0;    //!< searches whose pose was accepted
    size_t relocCandidates = 0;  //!< candidate poses probe-scored
    u32 framesLost = 0;          //!< frames that ended a step LOST
    size_t occludedFrames = 0;   //!< frames with the occluder composited
    size_t blurredFrames = 0;    //!< frames with motion blur applied
    double ateRmse = 0;
    double psnrDb = 0;
    /** ATE over delivered frames with source index >= tailStart;
     *  negative when the scenario has no tail window. */
    double postAteRmse = -1;
    /** Delivered frames from the first LOST report to reacquisition
     *  (accepted relocalization or return to OK). */
    u32 reacquireFrames = 0;
    bool wentLost = false;
    bool reacquired = false;
};

slam::SlamConfig
scenarioConfig(bool health_on)
{
    slam::SlamConfig cfg =
        slam::SlamConfig::forAlgorithm(slam::BaseAlgorithm::MonoGs);
    cfg.tracker.iterations = 10;
    cfg.mapper.iterations = 12;
    cfg.kfInterval = 4;
    cfg.health.enabled = health_on;
    return cfg;
}

/** The lost-recovery arms share everything except the relocalizer, so
 *  the comparison isolates exactly the contribution of map-based
 *  relocalization. */
slam::SlamConfig
lostRecoveryConfig(bool reloc_on)
{
    slam::SlamConfig cfg = scenarioConfig(true);
    cfg.health.lostPatience = 2;
    cfg.health.probePsnrMinDb = Real(13);
    // A denser keyframe cadence populates the relocalizer's pose/probe
    // database finely enough that an anchor sits near any revisited
    // view.
    cfg.kfInterval = 2;
    cfg.reloc.enabled = reloc_on;
    cfg.reloc.extrapolationSteps = 6;
    cfg.reloc.acceptPsnrMinDb = Real(15);
    return cfg;
}

/**
 * Stream-level adversarial edit applied before the fault injector: at
 * `teleportAt` the delivered images jump back `teleportBack` source
 * frames (a transport stall replaying an earlier segment), and the
 * first `shroudLength` frames after the jump carry a full-frame
 * occluder so the discontinuity arrives while tracking is starved —
 * the monitor must coast blind across it.
 */
struct StreamMutation
{
    u32 teleportAt = 0; //!< 0 disables the mutation entirely
    u32 teleportBack = 0;
    u32 shroudLength = 0;
};

/** Feed the dataset through a fault schedule into a SlamSystem. */
ScenarioOutcome
runScenario(const std::string &name, data::SyntheticDataset &ds,
            const data::FaultSchedule &schedule,
            const slam::SlamConfig &cfg,
            const StreamMutation &mut = {}, u32 fault_start = 0,
            u32 tail_start = 0)
{
    slam::SlamSystem sys(cfg, ds.intrinsics());
    data::FaultInjector injector(schedule);

    // Full-frame shroud for the teleport window: parked mid-view at
    // near depth, sized to blot out nearly everything the tracker
    // could anchor on.
    data::OccluderSpec shroud;
    shroud.sizeFraction = Real(0.95);
    shroud.pathStart = {Real(0.5), Real(0.5)};
    shroud.pathEnd = {Real(0.5), Real(0.5)};

    ScenarioOutcome out;
    out.name = name;
    std::vector<SE3> gt;          // aligned with the delivered stream
    std::vector<u32> disp_index;  // stream position per delivered frame
    u32 mid_delivered = 0;
    for (u32 f = 0; f < ds.frameCount(); ++f) {
        u32 src = f;
        data::Frame source = ds.frame(f);
        if (mut.teleportAt > 0 && f >= mut.teleportAt) {
            src = f - std::min(mut.teleportBack, f);
            source = ds.frame(src);
            source.index = f;
            source.timestamp = ds.frame(f).timestamp;
            if (f < mut.teleportAt + mut.shroudLength) {
                data::compositeOccluder(source.rgb, source.depth,
                                        shroud, Real(0.5));
                ++out.occludedFrames;
            }
        }
        auto frame = injector.process(source);
        if (!frame)
            continue;
        slam::FrameReport report = sys.processFrame(*frame);
        gt.push_back(ds.gtPose(src));
        disp_index.push_back(f);
        if (gt.size() == (ds.frameCount() + 1) / 2)
            mid_delivered = src;
        if (report.healthState != slam::HealthState::Ok)
            ++out.framesNotOk;
        if (report.forcedRecoveryKeyframe)
            ++out.forcedKeyframes;
        if (report.healthState == slam::HealthState::Lost &&
            !out.wentLost) {
            out.wentLost = true;
            out.reacquireFrames = 0;
        } else if (out.wentLost && !out.reacquired) {
            ++out.reacquireFrames;
            if (report.relocAccepted ||
                report.healthState == slam::HealthState::Ok)
                out.reacquired = true;
        }
        out.framesLost = report.framesLost;
    }
    sys.waitForMapping();

    data::FaultStats stats = injector.stats();
    out.framesSeen = stats.framesSeen;
    out.framesDelivered = stats.framesDelivered;
    out.streamDropped = stats.dropped;
    out.occludedFrames += stats.occludedFrames;
    out.blurredFrames = stats.motionBlurredFrames;
    if (const slam::HealthMonitor *monitor = sys.healthMonitor()) {
        out.rejectedInputs = monitor->rejectedInputs();
        out.heldPoses = monitor->heldPoses();
        out.recoveries = monitor->recoveries();
    }
    if (const slam::Relocalizer *reloc = sys.relocalizer()) {
        out.relocAttempts = reloc->attempts();
        out.relocAccepted = reloc->accepted();
        out.relocCandidates = reloc->candidatesScored();
    }
    out.mapJobsDropped = sys.mapJobsDropped();
    out.ateRmse = slam::computeAte(sys.trajectory(), gt).rmse;
    if (tail_start > 0 && fault_start > 0) {
        // Head-anchored post-recovery accuracy: align on the pre-fault
        // frames only, then measure the post-fault tail under that
        // fixed alignment. Aligning over the tail itself (plain ATE)
        // would let the Umeyama fit absorb a systematic post-fault
        // offset — a trajectory that coasts off into the wrong part of
        // the room can score as well as one that reacquired.
        std::vector<SE3> est_head, gt_head;
        const std::vector<SE3> &est = sys.trajectory();
        for (size_t i = 0; i < disp_index.size() && i < est.size();
             ++i) {
            if (disp_index[i] < fault_start) {
                est_head.push_back(est[i]);
                gt_head.push_back(gt[i]);
            }
        }
        if (est_head.size() >= 3) {
            SE3 T = slam::alignTrajectories(est_head, gt_head);
            double sum_sq = 0;
            u32 n = 0;
            for (size_t i = 0;
                 i < disp_index.size() && i < est.size(); ++i) {
                if (disp_index[i] < tail_start)
                    continue;
                Real e =
                    (T.apply(est[i].centre()) - gt[i].centre()).norm();
                sum_sq += static_cast<double>(e) * e;
                ++n;
            }
            if (n > 0)
                out.postAteRmse = std::sqrt(sum_sq / n);
        }
    }
    // PSNR against the CLEAN mid frame: the map must explain the true
    // scene even when the input stream was perturbed.
    out.psnrDb = psnr(sys.renderView(ds.gtPose(mid_delivered)),
                      ds.frame(mid_delivered).rgb);
    return out;
}

/** Byte-compare two trajectories. */
bool
identicalTrajectories(const std::vector<SE3> &a,
                      const std::vector<SE3> &b)
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

} // namespace

int
main()
{
    using namespace rtgs;
    using namespace rtgs::bench;

    printBenchHeader("Fault-injection stress scenarios "
                     "(MonoGS base, tracking-health monitor on)");

    data::DatasetSpec spec =
        benchSpec(data::DatasetSpec::tumLike(benchScale()));
    spec.trajectory.frameCount = std::max(benchFrames(), 16u);
    // benchSpec pairs revolutions with ITS frame count; after clamping
    // the count up, restore the same per-frame motion (a slower camera
    // would shrink the teleport displacement the lost-recovery
    // scenario depends on).
    spec.trajectory.revolutions =
        Real(0.006) * static_cast<Real>(spec.trajectory.frameCount);
    data::SyntheticDataset dataset(spec);
    const u32 frames = dataset.frameCount();

    // --- contract checks over clean input: monitor on == monitor off,
    // and relocalizer on (idle while the monitor never reports Lost)
    // == both off.
    bool byte_identical;
    bool reloc_byte_identical;
    {
        slam::SlamSystem off(scenarioConfig(false), dataset.intrinsics());
        slam::SlamSystem on(scenarioConfig(true), dataset.intrinsics());
        slam::SlamConfig reloc_cfg = scenarioConfig(true);
        reloc_cfg.reloc.enabled = true;
        slam::SlamSystem reloc_on(reloc_cfg, dataset.intrinsics());
        for (u32 f = 0; f < frames; ++f) {
            off.processFrame(dataset.frame(f));
            on.processFrame(dataset.frame(f));
            reloc_on.processFrame(dataset.frame(f));
        }
        byte_identical =
            identicalTrajectories(off.trajectory(), on.trajectory());
        reloc_byte_identical = identicalTrajectories(
            off.trajectory(), reloc_on.trajectory());
        std::printf("clean-run byte-identity (monitor on vs off): %s\n",
                    byte_identical ? "IDENTICAL" : "DIVERGED");
        std::printf("clean-run byte-identity (relocalizer on vs off): "
                    "%s\n\n",
                    reloc_byte_identical ? "IDENTICAL" : "DIVERGED");
    }

    // --- the stress schedule per scenario
    struct Scenario
    {
        std::string name;
        data::FaultSchedule schedule;
        slam::SlamConfig cfg;
        StreamMutation mut;
        u32 faultStart = 0; //!< head-alignment window end (0 = off)
        u32 tailStart = 0;  //!< post-fault ATE window start (0 = off)
    };
    std::vector<Scenario> scenarios;

    auto add = [&](const std::string &name,
                   const data::FaultSchedule &schedule,
                   const slam::SlamConfig &cfg,
                   const StreamMutation &mut = {}, u32 fault_start = 0,
                   u32 tail_start = 0) {
        scenarios.push_back(
            {name, schedule, cfg, mut, fault_start, tail_start});
    };

    data::FaultSchedule clean;
    add("clean", clean, scenarioConfig(true));

    data::FaultSchedule drops;
    drops.seed = 31;
    drops.dropProbability = Real(0.25);
    add("dropped_frames", drops, scenarioConfig(true));

    data::FaultSchedule burst;
    burst.dropBurstStart = frames / 3;
    burst.dropBurstLength = 3;
    add("drop_burst", burst, scenarioConfig(true));

    data::FaultSchedule ooo;
    ooo.seed = 32;
    ooo.outOfOrderProbability = Real(0.2);
    ooo.duplicateTimestampProbability = Real(0.1);
    add("out_of_order", ooo, scenarioConfig(true));

    // Seed chosen so the corruption draws spare the bootstrap frames:
    // rejecting frame 0 defers map initialisation, which measures the
    // (known, uninteresting) pre-bootstrap transient instead of the
    // recovery behaviour this scenario is about.
    data::FaultSchedule corrupt;
    corrupt.seed = 52;
    corrupt.corruptionProbability = Real(0.3);
    corrupt.corruptionAreaFraction = Real(0.3);
    corrupt.corruptionNanFraction = Real(0.2);
    add("corruption_burst", corrupt, scenarioConfig(true));

    data::FaultSchedule exposure;
    exposure.seed = 34;
    exposure.exposureShiftProbability = Real(0.5);
    add("exposure_shift", exposure, scenarioConfig(true));

    data::FaultSchedule depth_drop;
    depth_drop.seed = 35;
    depth_drop.depthDropoutProbability = Real(0.4);
    add("depth_dropout", depth_drop, scenarioConfig(true));

    // Lost recovery: a transport stall replays an earlier stream
    // segment, shrouded by a full-frame occluder so the tracker is
    // starved across the jump. The monitor escalates to LOST and the
    // pose coasts forward on the constant-velocity model while the
    // camera actually went BACK into mapped territory — when the
    // shroud lifts, the coasting guess is outside the convergence
    // basin but a keyframe anchor sits right next to the true view.
    // Run twice — relocalizer on vs the coasting baseline — and judge
    // both on the head-anchored post-shroud tail.
    data::FaultSchedule clean_stream; // the mutation IS the fault
    StreamMutation stall;
    stall.teleportAt = frames / 2;
    stall.teleportBack = frames / 2;
    stall.shroudLength = 4;
    const u32 stall_end = stall.teleportAt + stall.shroudLength;
    add("tracking_lost_recovery", clean_stream,
        lostRecoveryConfig(true), stall, stall.teleportAt, stall_end);
    add("tracking_lost_coast", clean_stream, lostRecoveryConfig(false),
        stall, stall.teleportAt, stall_end);

    // Adversarial scene dynamics: a near-field rigid occluder walks
    // across the view while motion blur intermittently smears the
    // frame. The relocalizer stays enabled — attempts against a
    // genuinely occluded view are expected to be REJECTED by the
    // probe-PSNR gate rather than corrupt the trajectory.
    data::FaultSchedule occluder;
    occluder.seed = 36;
    occluder.occluderStart = frames / 3;
    occluder.occluderLength = 3;
    occluder.occluderSizeFraction = Real(0.8);
    occluder.motionBlurProbability = Real(0.25);
    occluder.motionBlurMaxPixels = Real(6);
    // Partially-occluded views still render 13-16 dB against the map,
    // which a lenient probe floor would wave through — and the
    // occluder would be keyframed into the map. The strict floor makes
    // the monitor hold across the transit instead; the relocalizer
    // then reacquires from the first clean view.
    slam::SlamConfig occluder_cfg = lostRecoveryConfig(true);
    occluder_cfg.health.probePsnrMinDb = Real(17);
    add("dynamic_occluder", occluder, occluder_cfg, {},
        occluder.occluderStart,
        occluder.occluderStart + occluder.occluderLength);

    // Queue flood: clean input, but an async depth-1 map queue against
    // a deliberately slow mapper under the drop-oldest policy — the
    // frame loop must never wedge, and every eviction is accounted.
    slam::SlamConfig flood_cfg = scenarioConfig(true);
    flood_cfg.mapQueueDepth = 1;
    flood_cfg.mapOverflowPolicy = slam::OverflowPolicy::DropOldest;
    flood_cfg.kfInterval = 1;
    flood_cfg.tracker.iterations = 2;
    flood_cfg.mapper.iterations = 40;
    add("queue_flood", clean, flood_cfg);

    TablePrinter table({"scenario", "delivered", "rejected", "not-OK",
                        "lost", "reloc att/acc", "recoveries",
                        "ATE RMSE", "post-ATE", "PSNR dB"});
    std::vector<ScenarioOutcome> outcomes;
    for (const Scenario &s : scenarios) {
        ScenarioOutcome out =
            runScenario(s.name, dataset, s.schedule, s.cfg, s.mut,
                        s.faultStart, s.tailStart);
        table.addRow({out.name,
                      std::to_string(out.framesDelivered) + "/" +
                          std::to_string(out.framesSeen),
                      std::to_string(out.rejectedInputs),
                      std::to_string(out.framesNotOk),
                      std::to_string(out.framesLost),
                      std::to_string(out.relocAttempts) + "/" +
                          std::to_string(out.relocAccepted),
                      std::to_string(out.recoveries),
                      TablePrinter::num(out.ateRmse, 4),
                      out.postAteRmse < 0
                          ? std::string("-")
                          : TablePrinter::num(out.postAteRmse, 4),
                      TablePrinter::num(out.psnrDb, 2)});
        outcomes.push_back(std::move(out));
    }
    table.print();

    auto byName = [&](const char *name) -> const ScenarioOutcome * {
        for (const ScenarioOutcome &o : outcomes)
            if (o.name == name)
                return &o;
        return nullptr;
    };
    const ScenarioOutcome *reloc_arm = byName("tracking_lost_recovery");
    const ScenarioOutcome *coast_arm = byName("tracking_lost_coast");

    // Reacquisition bound: the backoff schedule retries within a few
    // frames and the refinement burst converges in one, so a healthy
    // relocalizer reacquires well inside 10 delivered frames.
    const u32 reacquire_bound = 10;
    bool reacquired_within_bound =
        reloc_arm && reloc_arm->wentLost && reloc_arm->reacquired &&
        reloc_arm->reacquireFrames <= reacquire_bound;
    bool post_ate_better =
        reloc_arm && coast_arm && reloc_arm->postAteRmse >= 0 &&
        coast_arm->postAteRmse >= 0 &&
        reloc_arm->postAteRmse < coast_arm->postAteRmse;

    std::printf("\nLost recovery: reloc post-ATE %.4f vs coast %.4f "
                "(%s), reacquired in %u frames (bound %u: %s)\n",
                reloc_arm ? reloc_arm->postAteRmse : -1.0,
                coast_arm ? coast_arm->postAteRmse : -1.0,
                post_ate_better ? "reloc better" : "NOT better",
                reloc_arm ? reloc_arm->reacquireFrames : 0,
                reacquire_bound,
                reacquired_within_bound ? "within" : "EXCEEDED");
    std::printf("Shape check: every faulted stream completes; "
                "rejections and held poses stay bounded; the\n"
                "clean and queue-flood scenarios report zero input "
                "rejections (the flood only sheds map jobs).\n");

    std::string path;
    std::FILE *out = openBenchJson("RTGS_BENCH_JSON_FAULT",
                                   "BENCH_fault_scenarios.json", path);
    if (!out)
        return 1;
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"fault_scenarios\",\n"
                 "  \"frames\": %u,\n"
                 "  \"scale\": %.3f,\n"
                 "  \"clean_byte_identical\": %s,\n"
                 "  \"clean_reloc_byte_identical\": %s,\n"
                 "  \"lost_recovery\": {\n"
                 "    \"coast_post_ate_rmse\": %.6f,\n"
                 "    \"reloc_post_ate_rmse\": %.6f,\n"
                 "    \"reloc_post_ate_better\": %s,\n"
                 "    \"reacquire_frames\": %u,\n"
                 "    \"reacquire_bound\": %u,\n"
                 "    \"reacquired_within_bound\": %s\n"
                 "  },\n"
                 "  \"scenarios\": [\n",
                 frames, static_cast<double>(benchScale()),
                 byte_identical ? "true" : "false",
                 reloc_byte_identical ? "true" : "false",
                 coast_arm ? coast_arm->postAteRmse : -1.0,
                 reloc_arm ? reloc_arm->postAteRmse : -1.0,
                 post_ate_better ? "true" : "false",
                 reloc_arm ? reloc_arm->reacquireFrames : 0,
                 reacquire_bound,
                 reacquired_within_bound ? "true" : "false");
    for (size_t i = 0; i < outcomes.size(); ++i) {
        const ScenarioOutcome &o = outcomes[i];
        std::fprintf(
            out,
            "    {\"name\": \"%s\", \"frames_seen\": %zu, "
            "\"frames_delivered\": %zu, \"stream_dropped\": %zu, "
            "\"rejected_inputs\": %zu, \"held_poses\": %zu, "
            "\"frames_not_ok\": %zu, \"recoveries\": %zu, "
            "\"forced_keyframes\": %zu, \"map_jobs_dropped\": %zu, "
            "\"reloc_attempts\": %zu, "
            "\"reloc_accepted\": %zu, \"reloc_candidates\": %zu, "
            "\"frames_lost\": %u, \"occluded_frames\": %zu, "
            "\"blurred_frames\": %zu, \"ate_rmse\": %.6f, "
            "\"psnr_db\": %.3f}%s\n",
            o.name.c_str(), o.framesSeen, o.framesDelivered,
            o.streamDropped, o.rejectedInputs, o.heldPoses,
            o.framesNotOk, o.recoveries, o.forcedKeyframes,
            o.mapJobsDropped, o.relocAttempts,
            o.relocAccepted, o.relocCandidates, o.framesLost,
            o.occludedFrames, o.blurredFrames, o.ateRmse, o.psnrDb,
            i + 1 == outcomes.size() ? "" : ",");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", path.c_str());

    // Hard gate: only the byte-identity contracts fail the bench —
    // scenario metrics are gated by tools/bench_diff.py against the
    // committed baseline instead (float-safe envelopes).
    return byte_identical && reloc_byte_identical ? 0 : 1;
}
