/**
 * @file
 * Fleet-runtime test suite: session isolation, determinism, fairness,
 * admission control, and teardown for the shared thread pool serving
 * N concurrent SLAM sessions.
 *
 * The load-bearing contracts:
 *  - fleet-of-1 output is byte-identical to a standalone run on all
 *    four base-algorithm profiles;
 *  - N-session output is bitwise identical across 1/2/4 pool
 *    workers (the pool decides WHERE work runs, never its result);
 *  - two sessions running concurrently stay isolated: each matches
 *    its solo run byte for byte (pins shared-RNG / static-scratch /
 *    stage-timer aliasing hazards and the thread-affinity rebind of the
 *    health monitor + relocalizer across turn migrations);
 *  - weighted-round-robin turns bound per-session interleaving (and
 *    hence latency) under a burst from another session;
 *  - admission control rejects/queues past capacity; teardown drains
 *    cleanly with exact drop accounting;
 *  - async sessions make progress even when every worker is inside a
 *    turn that waits for its own session's mapping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "byte_identity.hh"
#include "slam/fleet_runtime.hh"
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
    spec.trajectory.frameCount = 8;
    spec.trajectory.revolutions = Real(0.06);
    spec.noise.enabled = false;
    return spec;
}

/** One shared dataset, touched only from the main thread (frames are
 *  copied into the fleet's queues at submit). */
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

/** Run a config standalone, the way a single-session caller would. */
struct SoloRun
{
    std::vector<SE3> trajectory;
    gs::GaussianCloud cloud;
    std::vector<FrameReport> reports;

    explicit SoloRun(const SlamConfig &cfg)
    {
        auto &ds = tinyDataset();
        SlamSystem sys(cfg, ds.intrinsics());
        for (u32 f = 0; f < ds.frameCount(); ++f)
            sys.processFrame(ds.frame(f));
        sys.waitForMapping();
        trajectory = sys.trajectory();
        cloud = sys.cloud();
        reports = sys.reports();
    }
};

/** Submit every dataset frame to a fleet session, in order. */
void
submitAll(FleetRuntime &fleet, FleetRuntime::SessionId id)
{
    auto &ds = tinyDataset();
    for (u32 f = 0; f < ds.frameCount(); ++f)
        ASSERT_TRUE(fleet.submitFrame(id, ds.frame(f)));
}

} // namespace

// ---------------------------------------------------------------- //
//                    Determinism: fleet == solo                    //
// ---------------------------------------------------------------- //

TEST(FleetRuntime, FleetOfOneMatchesStandaloneOnAllProfiles)
{
    // The tentpole contract: hosting a session in the fleet must not
    // perturb a single bit of its output, on any profile.
    const BaseAlgorithm algos[] = {BaseAlgorithm::GsSlam,
                                   BaseAlgorithm::MonoGs,
                                   BaseAlgorithm::PhotoSlam,
                                   BaseAlgorithm::SplaTam};
    for (BaseAlgorithm algo : algos) {
        SoloRun solo(fastConfig(algo));

        FleetConfig fleet_cfg;
        fleet_cfg.workers = 2;
        FleetRuntime fleet(fleet_cfg);
        FleetSessionConfig session;
        session.slam = fastConfig(algo);
        session.intrinsics = tinyDataset().intrinsics();
        FleetRuntime::SessionId id = 0;
        ASSERT_EQ(AdmitDecision::Admitted,
                  fleet.openSession(session, id));
        submitAll(fleet, id);
        fleet.drainSession(id);

        SlamSystem *sys = fleet.system(id);
        ASSERT_NE(nullptr, sys);
        EXPECT_TRUE(
            trajectoriesIdentical(solo.trajectory, sys->trajectory()))
            << algorithmName(algo) << ": trajectories diverged";
        EXPECT_TRUE(cloudsIdentical(solo.cloud, sys->cloud()))
            << algorithmName(algo) << ": clouds diverged";

        FleetSessionStats stats = fleet.sessionStats(id);
        EXPECT_EQ(stats.submitted, stats.completed);
        EXPECT_EQ(0u, stats.dropped);
    }
}

TEST(FleetRuntime, OutputBitwiseIdenticalAcrossWorkerCounts)
{
    // Three concurrent sessions, three pool widths: per-session
    // trajectories and clouds must match bit for bit — scheduling
    // decides where work runs, never what it computes.
    const BaseAlgorithm algos[] = {BaseAlgorithm::GsSlam,
                                   BaseAlgorithm::MonoGs,
                                   BaseAlgorithm::SplaTam};
    const size_t kSessions = 3;
    std::vector<std::vector<SE3>> base_traj(kSessions);
    std::vector<gs::GaussianCloud> base_cloud(kSessions);

    for (size_t workers : {size_t(1), size_t(2), size_t(4)}) {
        FleetConfig fleet_cfg;
        fleet_cfg.workers = workers;
        FleetRuntime fleet(fleet_cfg);
        FleetRuntime::SessionId ids[kSessions];
        for (size_t s = 0; s < kSessions; ++s) {
            FleetSessionConfig session;
            session.slam = fastConfig(algos[s]);
            session.intrinsics = tinyDataset().intrinsics();
            ASSERT_EQ(AdmitDecision::Admitted,
                      fleet.openSession(session, ids[s]));
        }
        // Round-robin submission creates real contention: all three
        // sessions have runnable turns at once.
        auto &ds = tinyDataset();
        for (u32 f = 0; f < ds.frameCount(); ++f)
            for (size_t s = 0; s < kSessions; ++s)
                ASSERT_TRUE(fleet.submitFrame(ids[s], ds.frame(f)));
        for (size_t s = 0; s < kSessions; ++s)
            fleet.drainSession(ids[s]);

        for (size_t s = 0; s < kSessions; ++s) {
            SlamSystem *sys = fleet.system(ids[s]);
            ASSERT_NE(nullptr, sys);
            if (workers == 1) {
                base_traj[s] = sys->trajectory();
                base_cloud[s] = sys->cloud();
                continue;
            }
            EXPECT_TRUE(trajectoriesIdentical(base_traj[s],
                                              sys->trajectory()))
                << algorithmName(algos[s]) << " diverged at "
                << workers << " workers";
            EXPECT_TRUE(cloudsIdentical(base_cloud[s], sys->cloud()))
                << algorithmName(algos[s]) << " cloud diverged at "
                << workers << " workers";
        }
    }
}

// ---------------------------------------------------------------- //
//               Isolation: concurrent sessions == solo             //
// ---------------------------------------------------------------- //

TEST(FleetRuntime, ConcurrentSessionsStayIsolated)
{
    // The global-state-hazard pin: two sessions overlapped on two
    // workers — one with the thread-affine health monitor +
    // relocalizer enabled (their state must migrate across turn
    // boundaries, not panic or leak), one mapping asynchronously
    // through the SHARED fleet pool rather than globalPool(). Each
    // must match its solo run byte for byte; any shared RNG, static
    // scratch, or aliased stage timer would show up as a diff here.
    SlamConfig health_cfg = fastConfig(BaseAlgorithm::MonoGs);
    health_cfg.health.enabled = true;
    health_cfg.reloc.enabled = true;

    SlamConfig async_cfg = fastConfig(BaseAlgorithm::PhotoSlam);
    // Deeper than the frame count: never blocks, never drops.
    async_cfg.mapQueueDepth = 16;

    SoloRun solo_health(health_cfg);
    SoloRun solo_async(async_cfg);

    FleetConfig fleet_cfg;
    fleet_cfg.workers = 2;
    FleetRuntime fleet(fleet_cfg);
    FleetSessionConfig sa, sb;
    sa.slam = health_cfg;
    sa.intrinsics = tinyDataset().intrinsics();
    sb.slam = async_cfg;
    sb.intrinsics = tinyDataset().intrinsics();
    FleetRuntime::SessionId ia = 0, ib = 0;
    ASSERT_EQ(AdmitDecision::Admitted, fleet.openSession(sa, ia));
    ASSERT_EQ(AdmitDecision::Admitted, fleet.openSession(sb, ib));

    auto &ds = tinyDataset();
    for (u32 f = 0; f < ds.frameCount(); ++f) {
        ASSERT_TRUE(fleet.submitFrame(ia, ds.frame(f)));
        ASSERT_TRUE(fleet.submitFrame(ib, ds.frame(f)));
    }
    fleet.drainSession(ia);
    fleet.drainSession(ib);

    SlamSystem *sys_a = fleet.system(ia);
    SlamSystem *sys_b = fleet.system(ib);
    ASSERT_NE(nullptr, sys_a);
    ASSERT_NE(nullptr, sys_b);

    EXPECT_TRUE(trajectoriesIdentical(solo_health.trajectory,
                                      sys_a->trajectory()));
    EXPECT_TRUE(cloudsIdentical(solo_health.cloud, sys_a->cloud()));
    EXPECT_TRUE(trajectoriesIdentical(solo_async.trajectory,
                                      sys_b->trajectory()));
    EXPECT_TRUE(cloudsIdentical(solo_async.cloud, sys_b->cloud()));
    EXPECT_EQ(0u, sys_b->mapJobsDropped());

    // Per-session report diff: the deterministic per-frame fields
    // must match the solo runs row by row (timing fields and snapshot
    // generations legitimately differ in overlapped async mode).
    auto diffReports = [](const std::vector<FrameReport> &solo,
                          const std::vector<FrameReport> &fleet_r) {
        ASSERT_EQ(solo.size(), fleet_r.size());
        for (size_t i = 0; i < solo.size(); ++i) {
            EXPECT_EQ(solo[i].isKeyframe, fleet_r[i].isKeyframe)
                << "frame " << i;
            EXPECT_EQ(solo[i].trackLoss, fleet_r[i].trackLoss)
                << "frame " << i;
            EXPECT_EQ(solo[i].densified, fleet_r[i].densified)
                << "frame " << i;
            EXPECT_EQ(solo[i].mapLoss, fleet_r[i].mapLoss)
                << "frame " << i;
            EXPECT_EQ(solo[i].healthState, fleet_r[i].healthState)
                << "frame " << i;
        }
    };
    diffReports(solo_health.reports, sys_a->reports());
    diffReports(solo_async.reports, sys_b->reports());

    // Stage times land in each session's own reports: both carry
    // tracking time.
    for (const SlamSystem *sys : {sys_a, sys_b}) {
        double track_seconds = 0;
        for (const auto &r : sys->reports())
            track_seconds += r.trackSeconds;
        EXPECT_GT(track_seconds, 0.0);
    }
}

// ---------------------------------------------------------------- //
//                         Burst fairness                           //
// ---------------------------------------------------------------- //

namespace
{

/**
 * Max over all completion-log prefixes of |countA*wB - countB*wA|:
 * the weighted interleaving imbalance. Perfect WRR alternation keeps
 * it <= max(wA, wB) * max(wA, wB)... practically <= wA*wB + wA + wB;
 * a starved session would grow it linearly with the burst length.
 */
u64
maxWeightedImbalance(
    const std::vector<std::pair<FleetRuntime::SessionId, u32>> &log,
    FleetRuntime::SessionId a, u64 wa, FleetRuntime::SessionId b,
    u64 wb)
{
    i64 best = 0;
    i64 ca = 0, cb = 0;
    for (const auto &entry : log) {
        if (entry.first == a)
            ++ca;
        else if (entry.first == b)
            ++cb;
        i64 imbalance = ca * static_cast<i64>(wb) -
                        cb * static_cast<i64>(wa);
        best = std::max(best, std::abs(imbalance));
    }
    return static_cast<u64>(best);
}

} // namespace

TEST(FleetRuntime, BurstDrainsFairRoundRobin)
{
    // Session A bursts its whole sequence before B submits anything;
    // one worker, equal weights. The completion log must interleave
    // A and B nearly perfectly — a FIFO-without-fairness scheduler
    // would drain all of A first (imbalance == frame count).
    auto &ds = tinyDataset();
    FleetConfig fleet_cfg;
    fleet_cfg.workers = 1;
    fleet_cfg.startPaused = true; // stage the burst before any turn
    FleetRuntime fleet(fleet_cfg);

    FleetSessionConfig session;
    session.slam = fastConfig(BaseAlgorithm::MonoGs);
    session.intrinsics = ds.intrinsics();
    session.frameQueueDepth = ds.frameCount();
    FleetRuntime::SessionId a = 0, b = 0;
    ASSERT_EQ(AdmitDecision::Admitted, fleet.openSession(session, a));
    ASSERT_EQ(AdmitDecision::Admitted, fleet.openSession(session, b));

    submitAll(fleet, a); // the burst
    submitAll(fleet, b);
    // A paused fleet stages frames without running a single turn.
    EXPECT_TRUE(fleet.completionLog().empty());
    EXPECT_EQ(0u, fleet.sessionStats(a).turns);
    EXPECT_EQ(0u, fleet.sessionStats(b).turns);
    fleet.start();
    fleet.drainSession(a);
    fleet.drainSession(b);

    u64 imbalance = maxWeightedImbalance(fleet.completionLog(), a, 1,
                                         b, 1);
    EXPECT_LE(imbalance, 2u)
        << "burst from A starved B's turns";

    // Bounded per-session latency ratio: with fair interleaving both
    // sessions wait about the same; a starved B would see ~2x A.
    FleetSessionStats stats_a = fleet.sessionStats(a);
    FleetSessionStats stats_b = fleet.sessionStats(b);
    ASSERT_GT(stats_a.completed, 0u);
    ASSERT_GT(stats_b.completed, 0u);
    double ratio = stats_b.meanLatencySeconds() /
                   std::max(1e-9, stats_a.meanLatencySeconds());
    EXPECT_LT(ratio, 2.0) << "per-session latency ratio unbounded";
    EXPECT_GT(ratio, 0.4) << "per-session latency ratio unbounded";
}

TEST(FleetRuntime, WeightedRoundRobinHonorsWeights)
{
    // weight 2 vs 1: turns drain A A B A A B ... — the weighted
    // imbalance stays tiny and B still finishes interleaved, not
    // after A's whole burst.
    auto &ds = tinyDataset();
    FleetConfig fleet_cfg;
    fleet_cfg.workers = 1;
    fleet_cfg.startPaused = true;
    FleetRuntime fleet(fleet_cfg);

    FleetSessionConfig heavy, light;
    heavy.slam = fastConfig(BaseAlgorithm::MonoGs);
    heavy.intrinsics = ds.intrinsics();
    heavy.frameQueueDepth = ds.frameCount();
    heavy.weight = 2;
    light = heavy;
    light.weight = 1;
    FleetRuntime::SessionId a = 0, b = 0;
    ASSERT_EQ(AdmitDecision::Admitted, fleet.openSession(heavy, a));
    ASSERT_EQ(AdmitDecision::Admitted, fleet.openSession(light, b));
    submitAll(fleet, a);
    // Workloads proportional to weights (8 vs 4): under exact 2:1
    // WRR both sessions finish together, so the whole log measures
    // fairness (after one queue empties the other legitimately drains
    // alone and the imbalance metric stops meaning anything).
    for (u32 f = 0; f < ds.frameCount() / 2; ++f)
        ASSERT_TRUE(fleet.submitFrame(b, ds.frame(f)));
    fleet.start();
    fleet.drainSession(a);
    fleet.drainSession(b);

    u64 imbalance = maxWeightedImbalance(fleet.completionLog(), a, 2,
                                         b, 1);
    EXPECT_LE(imbalance, 4u) << "weighted round-robin not honored";
}

// ---------------------------------------------------------------- //
//                        Admission control                         //
// ---------------------------------------------------------------- //

TEST(FleetRuntime, AdmissionRejectsAndQueuesPastCapacity)
{
    auto &ds = tinyDataset();
    FleetConfig fleet_cfg;
    fleet_cfg.workers = 1;
    fleet_cfg.maxActiveSessions = 1;
    fleet_cfg.admissionQueueLimit = 1;
    FleetRuntime fleet(fleet_cfg);

    FleetSessionConfig session;
    session.slam = fastConfig(BaseAlgorithm::MonoGs);
    session.intrinsics = ds.intrinsics();
    session.frameQueueDepth = ds.frameCount();

    FleetRuntime::SessionId s1 = 0, s2 = 0, s3 = 0;
    EXPECT_EQ(AdmitDecision::Admitted, fleet.openSession(session, s1));
    EXPECT_EQ(AdmitDecision::Queued, fleet.openSession(session, s2));
    EXPECT_EQ(AdmitDecision::Rejected, fleet.openSession(session, s3));
    EXPECT_EQ(FleetRuntime::kInvalidSession, s3);
    EXPECT_EQ(1u, fleet.activeSessions());
    EXPECT_EQ(1u, fleet.queuedSessions());

    // Frames stage against the queued session but do not run.
    for (u32 f = 0; f < 4; ++f)
        EXPECT_TRUE(fleet.trySubmitFrame(s2, ds.frame(f)));
    EXPECT_EQ(0u, fleet.sessionStats(s2).completed);

    // Closing the active session promotes the queued one, which then
    // drains its staged frames.
    submitAll(fleet, s1);
    FleetSessionStats stats1 = fleet.closeSession(s1);
    EXPECT_EQ(stats1.submitted, stats1.completed);
    EXPECT_EQ(1u, fleet.activeSessions());
    EXPECT_EQ(0u, fleet.queuedSessions());
    fleet.drainSession(s2);
    FleetSessionStats stats2 = fleet.sessionStats(s2);
    EXPECT_EQ(4u, stats2.submitted);
    EXPECT_EQ(4u, stats2.completed);

    // Submitting to a closed session is refused.
    EXPECT_FALSE(fleet.trySubmitFrame(s1, ds.frame(0)));
    // Unknown ids are handled, not crashed on.
    EXPECT_EQ(nullptr, fleet.system(9999));
    EXPECT_EQ(0u, fleet.sessionStats(9999).submitted);
}

// ---------------------------------------------------------------- //
//               Async mapping inside turns: no deadlock            //
// ---------------------------------------------------------------- //

TEST(FleetRuntime, AsyncSessionsWaitingForTheirOwnMapMakeProgress)
{
    // A weight-2 turn enqueues frame 0's map job and then tracks frame
    // 1, which needs that job's snapshot. The drain task frame 0
    // posted sits behind the turn on the fleet's pool; with every
    // worker inside such a turn (1 worker / 1 session, 2 workers / 2
    // sessions, all frames staged before start()), the turn must run
    // the job itself. A deadlocked fleet fails the bounded wait here
    // instead of hanging the suite.
    auto &ds = tinyDataset();
    SlamConfig cfg = fastConfig(BaseAlgorithm::MonoGs);
    cfg.mapQueueDepth = 2;
    for (size_t workers : {size_t(1), size_t(2)}) {
        FleetConfig fleet_cfg;
        fleet_cfg.workers = workers;
        fleet_cfg.startPaused = true;
        auto fleet = std::make_unique<FleetRuntime>(fleet_cfg);
        std::vector<FleetRuntime::SessionId> ids(workers);
        for (FleetRuntime::SessionId &id : ids) {
            FleetSessionConfig session;
            session.slam = cfg;
            session.intrinsics = ds.intrinsics();
            session.weight = 2;
            ASSERT_EQ(AdmitDecision::Admitted,
                      fleet->openSession(session, id));
            submitAll(*fleet, id);
        }
        fleet->start();

        auto all_done = [&] {
            for (FleetRuntime::SessionId id : ids)
                if (fleet->sessionStats(id).completed < ds.frameCount())
                    return false;
            return true;
        };
        auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(60);
        while (!all_done() && std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        if (!all_done()) {
            // The wedged workers would hang the fleet's destructor.
            static_cast<void>(fleet.release());
            FAIL() << workers << "-worker fleet stopped making progress";
        }

        for (FleetRuntime::SessionId id : ids) {
            fleet->drainSession(id);
            SlamSystem *sys = fleet->system(id);
            ASSERT_NE(nullptr, sys);
            EXPECT_EQ(ds.frameCount(), sys->trajectory().size());
            EXPECT_GT(sys->cloud().size(), 0u);
        }
    }
}

// ---------------------------------------------------------------- //
//                       Mid-run teardown                           //
// ---------------------------------------------------------------- //

TEST(FleetRuntime, TeardownMidRunAccountsEveryFrame)
{
    auto &ds = tinyDataset();
    FleetConfig fleet_cfg;
    fleet_cfg.workers = 1;
    fleet_cfg.startPaused = true;
    FleetRuntime fleet(fleet_cfg);

    FleetSessionConfig session;
    session.slam = fastConfig(BaseAlgorithm::MonoGs);
    session.intrinsics = ds.intrinsics();
    session.frameQueueDepth = ds.frameCount();
    FleetRuntime::SessionId victim = 0, survivor = 0;
    ASSERT_EQ(AdmitDecision::Admitted,
              fleet.openSession(session, victim));
    ASSERT_EQ(AdmitDecision::Admitted,
              fleet.openSession(session, survivor));
    submitAll(fleet, victim);
    submitAll(fleet, survivor);

    fleet.start();
    // Tear the victim down mid-run: whatever its turn already
    // processed stays; the rest is dropped with exact accounting.
    FleetSessionStats torn = fleet.closeSession(victim,
                                                /*discard_pending=*/true);
    EXPECT_EQ(torn.submitted, torn.completed + torn.dropped);
    EXPECT_EQ(ds.frameCount(), torn.submitted);

    // The closed session's partial output stays readable and
    // consistent with its completion count.
    SlamSystem *victim_sys = fleet.system(victim);
    ASSERT_NE(nullptr, victim_sys);
    EXPECT_EQ(torn.completed, victim_sys->trajectory().size());

    // The survivor is unaffected: every frame processes.
    fleet.drainSession(survivor);
    FleetSessionStats alive = fleet.sessionStats(survivor);
    EXPECT_EQ(ds.frameCount(), alive.completed);
    EXPECT_EQ(0u, alive.dropped);

    // The fleet stays serviceable after a teardown.
    FleetRuntime::SessionId fresh = 0;
    ASSERT_EQ(AdmitDecision::Admitted,
              fleet.openSession(session, fresh));
    ASSERT_TRUE(fleet.submitFrame(fresh, ds.frame(0)));
    fleet.drainSession(fresh);
    EXPECT_EQ(1u, fleet.sessionStats(fresh).completed);
}

TEST(FleetRuntime, DestructorRunsFramesStagedWhilePaused)
{
    // A paused fleet destroyed with frames staged still owes them an
    // execution: the destructor starts the fleet before its graceful
    // closes. Tracked frames are counted through the tracking hook
    // (first iteration of each frame) against the same frames run
    // standalone.
    auto &ds = tinyDataset();
    const u32 kFrames = 4;
    SlamConfig cfg = fastConfig(BaseAlgorithm::MonoGs);

    u32 solo_tracked = 0;
    {
        SlamSystem solo(cfg, ds.intrinsics());
        solo.setTrackIterationHook([&](const TrackIterationContext &ctx) {
            solo_tracked += ctx.iteration == 0 ? 1 : 0;
        });
        for (u32 f = 0; f < kFrames; ++f)
            solo.processFrame(ds.frame(f));
    }

    std::atomic<u32> fleet_tracked{0};
    {
        FleetConfig fleet_cfg;
        fleet_cfg.workers = 1;
        fleet_cfg.startPaused = true;
        FleetRuntime fleet(fleet_cfg);
        FleetSessionConfig session;
        session.slam = cfg;
        session.intrinsics = ds.intrinsics();
        FleetRuntime::SessionId id = 0;
        ASSERT_EQ(AdmitDecision::Admitted, fleet.openSession(session, id));
        fleet.system(id)->setTrackIterationHook(
            [&](const TrackIterationContext &ctx) {
                fleet_tracked += ctx.iteration == 0 ? 1 : 0;
            });
        for (u32 f = 0; f < kFrames; ++f)
            ASSERT_TRUE(fleet.submitFrame(id, ds.frame(f)));
        EXPECT_EQ(0u, fleet.sessionStats(id).completed);
    } // never started

    EXPECT_GT(solo_tracked, 0u);
    EXPECT_EQ(solo_tracked, fleet_tracked.load());
}

} // namespace rtgs::slam
