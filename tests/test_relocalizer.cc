/**
 * @file
 * Tests for map-based relocalization: the keyframe pose/probe
 * database, the deterministic candidate search and its backoff
 * schedule in isolation, and the integrated LOST-recovery behavior of
 * SlamSystem under an occluded transport stall (the bench's
 * tracking_lost_recovery scenario at test scale) — including the
 * bitwise worker-count independence and clean-input byte-identity
 * contracts the relocalizer must preserve.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "byte_identity.hh"
#include "common/thread_pool.hh"
#include "data/scene.hh"
#include "slam/evaluation.hh"
#include "slam/pipeline.hh"
#include "slam/relocalizer.hh"

namespace rtgs::slam
{

namespace
{

ImageRGB
patternImage(u32 w, u32 h, u32 salt)
{
    ImageRGB img(w, h);
    for (u32 y = 0; y < h; ++y) {
        for (u32 x = 0; x < w; ++x) {
            Real v = Real(0.1) +
                     Real(0.8) *
                         static_cast<Real>((x * 3 + y * 5 + salt) % 11) /
                         Real(11);
            img.at(x, y) = {v, Real(1) - v, v * v};
        }
    }
    return img;
}

SE3
poseAt(u32 i)
{
    SE3 pose = SE3::identity();
    pose.trans = {Real(0.1) * static_cast<Real>(i),
                  Real(0.05) * static_cast<Real>(i), Real(0)};
    return pose;
}

bool
candidatesIdentical(const std::vector<RelocCandidate> &a,
                    const std::vector<RelocCandidate> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].kind != b[i].kind ||
            a[i].anchorFrame != b[i].anchorFrame ||
            std::memcmp(&a[i].pose.rot, &b[i].pose.rot,
                        sizeof(a[i].pose.rot)) != 0 ||
            std::memcmp(&a[i].pose.trans, &b[i].pose.trans,
                        sizeof(a[i].pose.trans)) != 0)
            return false;
    }
    return true;
}

// --- integration scenario: the bench's occluded transport stall ------

data::DatasetSpec
lostSpec()
{
    data::DatasetSpec spec = data::DatasetSpec::tumLike(Real(0.10));
    spec.trajectory.frameCount = 16;
    spec.trajectory.revolutions =
        Real(0.006) * static_cast<Real>(spec.trajectory.frameCount);
    return spec;
}

data::SyntheticDataset &
lostDataset()
{
    static data::SyntheticDataset ds(lostSpec());
    return ds;
}

SlamConfig
lostConfig(bool reloc_on)
{
    SlamConfig cfg = SlamConfig::forAlgorithm(BaseAlgorithm::MonoGs);
    cfg.tracker.iterations = 10;
    cfg.mapper.iterations = 12;
    cfg.kfInterval = 2;
    cfg.health.enabled = true;
    cfg.health.lostPatience = 2;
    cfg.health.probePsnrMinDb = Real(13);
    cfg.reloc.enabled = reloc_on;
    cfg.reloc.extrapolationSteps = 6;
    cfg.reloc.acceptPsnrMinDb = Real(15);
    return cfg;
}

struct TeleportRun
{
    std::vector<SE3> trajectory;
    std::vector<SE3> gt; //!< per delivered frame, source-mapped
    bool wentLost = false;
    u32 reacquireFrames = 0;
    bool reacquired = false;
    size_t relocAttempts = 0;
    size_t relocAccepted = 0;
    double tailRmse = -1; //!< head-anchored post-shroud ATE
};

constexpr u32 kTeleportAt = 8;
constexpr u32 kTeleportBack = 8;
constexpr u32 kShroudLength = 4;

/** Deliver the occluded-teleport stream of the bench's
 *  tracking_lost_recovery scenario into one SlamSystem. */
TeleportRun
runTeleport(const SlamConfig &cfg, ThreadPool *pool = nullptr)
{
    data::SyntheticDataset &ds = lostDataset();
    SlamSystem sys(cfg, ds.intrinsics());
    if (pool)
        sys.setRenderPool(pool);

    data::OccluderSpec shroud;
    shroud.sizeFraction = Real(0.95);
    shroud.pathStart = {Real(0.5), Real(0.5)};
    shroud.pathEnd = {Real(0.5), Real(0.5)};

    TeleportRun run;
    for (u32 f = 0; f < ds.frameCount(); ++f) {
        u32 src = f >= kTeleportAt ? f - kTeleportBack : f;
        data::Frame frame = ds.frame(src);
        frame.index = f;
        frame.timestamp = ds.frame(f).timestamp;
        if (f >= kTeleportAt && f < kTeleportAt + kShroudLength)
            data::compositeOccluder(frame.rgb, frame.depth, shroud,
                                    Real(0.5));
        FrameReport report = sys.processFrame(frame);
        run.gt.push_back(ds.gtPose(src));
        if (report.healthState == HealthState::Lost && !run.wentLost)
            run.wentLost = true;
        else if (run.wentLost && !run.reacquired) {
            ++run.reacquireFrames;
            if (report.relocAccepted ||
                report.healthState == HealthState::Ok)
                run.reacquired = true;
        }
    }
    sys.waitForMapping();
    if (const Relocalizer *reloc = sys.relocalizer()) {
        run.relocAttempts = reloc->attempts();
        run.relocAccepted = reloc->accepted();
    }
    run.trajectory = sys.trajectory();

    // Head-anchored tail ATE: align on the pre-fault frames only and
    // measure the post-shroud tail under that fixed alignment, so the
    // fit cannot absorb a post-fault divergence.
    std::vector<SE3> est_head, gt_head;
    for (u32 f = 0; f < kTeleportAt; ++f) {
        est_head.push_back(run.trajectory[f]);
        gt_head.push_back(run.gt[f]);
    }
    SE3 T = alignTrajectories(est_head, gt_head);
    double sum_sq = 0;
    u32 n = 0;
    for (u32 f = kTeleportAt + kShroudLength;
         f < run.trajectory.size(); ++f) {
        Real e = (T.apply(run.trajectory[f].centre()) -
                  run.gt[f].centre())
                     .norm();
        sum_sq += static_cast<double>(e) * e;
        ++n;
    }
    if (n > 0)
        run.tailRmse = std::sqrt(sum_sq / n);
    return run;
}

/** The reloc-on and coasting arms, computed once (each is a full
 *  pipeline run). */
const TeleportRun &
teleportRun(bool reloc_on)
{
    static TeleportRun with_reloc = runTeleport(lostConfig(true));
    static TeleportRun coasting = runTeleport(lostConfig(false));
    return reloc_on ? with_reloc : coasting;
}

} // namespace

// --- unit: keyframe pose/probe database ------------------------------

TEST(Relocalizer, ProbeDatabaseIsBoundedRing)
{
    RelocalizerConfig cfg;
    cfg.maxKeyframes = 4;
    Relocalizer reloc(cfg);
    for (u32 i = 0; i < 10; ++i)
        reloc.noteKeyframe(i, poseAt(i), patternImage(64, 48, i));
    EXPECT_EQ(reloc.databaseSize(), 4u);
    EXPECT_EQ(reloc.database().front().frameIndex, 6u)
        << "oldest entries evicted first";
    EXPECT_EQ(reloc.database().back().frameIndex, 9u);
}

TEST(Relocalizer, ProbeIsAspectCorrectAndNeverUpsampled)
{
    RelocalizerConfig cfg;
    cfg.probeWidth = 32;
    Relocalizer reloc(cfg);

    ImageRGB probe = reloc.makeProbe(patternImage(128, 96, 1));
    EXPECT_EQ(probe.width(), 32u);
    EXPECT_EQ(probe.height(), 24u) << "aspect preserved";

    ImageRGB small = reloc.makeProbe(patternImage(16, 12, 2));
    EXPECT_EQ(small.width(), 16u) << "never upsampled";
    EXPECT_EQ(small.height(), 12u);
}

// --- unit: deterministic candidate search ----------------------------

TEST(Relocalizer, CandidateFamilyHasDocumentedShape)
{
    RelocalizerConfig cfg;
    cfg.anchorKeyframes = 2;
    cfg.extrapolationSteps = 3;
    cfg.perturbationsPerAnchor = 2;
    Relocalizer reloc(cfg);
    for (u32 i = 0; i < 3; ++i)
        reloc.noteKeyframe(i, poseAt(i), patternImage(64, 48, i));

    ImageRGB probe = reloc.makeProbe(patternImage(64, 48, 99));
    std::vector<RelocCandidate> cands =
        reloc.generateCandidates(20, probe);

    // 2 anchors + 3 ladder rungs = 5 bases, each with 2 perturbations.
    ASSERT_EQ(cands.size(), 15u);
    size_t anchors = 0, extrapolated = 0, perturbed = 0;
    for (const RelocCandidate &c : cands) {
        switch (c.kind) {
        case RelocCandidateKind::Anchor: ++anchors; break;
        case RelocCandidateKind::Extrapolated: ++extrapolated; break;
        case RelocCandidateKind::Perturbed: ++perturbed; break;
        }
    }
    EXPECT_EQ(anchors, 2u);
    EXPECT_EQ(extrapolated, 3u);
    EXPECT_EQ(perturbed, 10u);
}

TEST(Relocalizer, EmptyDatabaseYieldsNoCandidates)
{
    Relocalizer reloc;
    ImageRGB probe = reloc.makeProbe(patternImage(64, 48, 1));
    EXPECT_TRUE(reloc.generateCandidates(5, probe).empty());
}

TEST(Relocalizer, CandidatesBitwiseReproducible)
{
    RelocalizerConfig cfg;
    cfg.anchorKeyframes = 3;
    cfg.extrapolationSteps = 2;
    auto fill = [&](Relocalizer &r) {
        for (u32 i = 0; i < 5; ++i)
            r.noteKeyframe(i * 2, poseAt(i), patternImage(64, 48, i));
    };
    Relocalizer a(cfg), b(cfg);
    fill(a);
    fill(b);

    ImageRGB probe = a.makeProbe(patternImage(64, 48, 7));
    std::vector<RelocCandidate> first = a.generateCandidates(30, probe);
    EXPECT_TRUE(candidatesIdentical(first, b.generateCandidates(30, probe)))
        << "same config + database => identical candidates";
    EXPECT_TRUE(candidatesIdentical(first, a.generateCandidates(30, probe)))
        << "regeneration is idempotent";

    // Episode history must not leak into the draws: a failed search
    // and its backoff bookkeeping change nothing about the candidate
    // family for a given frame index.
    a.search(30, probe, [](const SE3 &) { return 1.0; });
    a.noteOutcome(30, false);
    EXPECT_TRUE(candidatesIdentical(first, a.generateCandidates(30, probe)));
}

TEST(Relocalizer, SearchKeepsFirstBestOnTies)
{
    RelocalizerConfig cfg;
    cfg.anchorKeyframes = 2;
    cfg.extrapolationSteps = 1;
    cfg.perturbationsPerAnchor = 1;
    Relocalizer reloc(cfg);
    for (u32 i = 0; i < 3; ++i)
        reloc.noteKeyframe(i, poseAt(i), patternImage(64, 48, i));

    ImageRGB probe = reloc.makeProbe(patternImage(64, 48, 5));
    std::vector<RelocCandidate> cands =
        reloc.generateCandidates(9, probe);
    ASSERT_FALSE(cands.empty());

    RelocSearchResult res =
        reloc.search(9, probe, [](const SE3 &) { return 10.0; });
    ASSERT_TRUE(res.hasCandidate);
    EXPECT_EQ(res.candidatesScored, cands.size());
    EXPECT_EQ(std::memcmp(&res.bestPose.trans, &cands[0].pose.trans,
                          sizeof(res.bestPose.trans)),
              0)
        << "all-tie score must keep the FIRST candidate";

    // Non-finite scores are skipped, not propagated.
    bool first = true;
    res = reloc.search(9, probe, [&](const SE3 &) {
        double v = first ? std::nan("") : 3.0;
        first = false;
        return v;
    });
    ASSERT_TRUE(res.hasCandidate);
    EXPECT_EQ(res.bestScoreDb, 3.0);
    EXPECT_EQ(reloc.candidatesScored(), 2 * cands.size());
}

TEST(Relocalizer, BackoffDoublesAndAcceptanceResets)
{
    RelocalizerConfig cfg;
    cfg.backoffStartFrames = 0;
    cfg.backoffMaxFrames = 8;
    Relocalizer reloc(cfg);

    EXPECT_TRUE(reloc.shouldAttempt(5));
    reloc.noteOutcome(5, false);
    EXPECT_TRUE(reloc.shouldAttempt(6))
        << "backoffStartFrames=0 retries on the very next frame once";

    reloc.noteOutcome(6, false); // backoff now 1 -> next at 8
    EXPECT_FALSE(reloc.shouldAttempt(7));
    EXPECT_TRUE(reloc.shouldAttempt(8));

    reloc.noteOutcome(8, false); // backoff now 2 -> next at 11
    EXPECT_FALSE(reloc.shouldAttempt(10));
    EXPECT_TRUE(reloc.shouldAttempt(11));

    reloc.noteOutcome(11, true); // acceptance resets the schedule
    EXPECT_EQ(reloc.accepted(), 1u);
    EXPECT_TRUE(reloc.shouldAttempt(12));
}

// --- integration: LOST recovery under an occluded transport stall ----

TEST(RelocalizerIntegration, TeleportIsDeclaredLostAndReacquired)
{
    const TeleportRun &run = teleportRun(true);
    EXPECT_TRUE(run.wentLost)
        << "the shrouded teleport must escalate to LOST";
    EXPECT_GE(run.relocAttempts, 1u);
    EXPECT_GE(run.relocAccepted, 1u)
        << "an anchor candidate sits in mapped territory; the "
           "refinement burst must clear the accept threshold";
    EXPECT_TRUE(run.reacquired);
    EXPECT_LE(run.reacquireFrames, 10u)
        << "reacquisition must be bounded, not eventual";
}

TEST(RelocalizerIntegration, RecoveryBeatsCoastingOnPostFaultTail)
{
    const TeleportRun &with_reloc = teleportRun(true);
    const TeleportRun &coasting = teleportRun(false);
    ASSERT_GE(with_reloc.tailRmse, 0.0);
    ASSERT_GE(coasting.tailRmse, 0.0);
    EXPECT_LT(with_reloc.tailRmse, coasting.tailRmse)
        << "map-based relocalization must land a strictly better "
           "post-recovery trajectory than the coasting baseline";
}

TEST(RelocalizerIntegration, BitwiseIndependentOfRenderWorkers)
{
    // The candidate search scores through the render pipeline; its
    // outputs — and therefore the whole recovered trajectory — must
    // be bitwise independent of the worker count.
    std::vector<std::vector<SE3>> trajectories;
    for (size_t workers : {1u, 2u, 4u}) {
        ThreadPool pool(workers);
        trajectories.push_back(
            runTeleport(lostConfig(true), &pool).trajectory);
    }
    for (size_t i = 1; i < trajectories.size(); ++i) {
        EXPECT_TRUE(trajectoriesIdentical(trajectories[0],
                                          trajectories[i]))
            << "worker count " << (i == 1 ? 2 : 4)
            << " diverged from single-worker run";
    }
}

TEST(RelocalizerIntegration, CleanRunByteIdenticalWithRelocEnabled)
{
    // Over a clean stream the relocalizer never engages: enabling it
    // must not change a single bit of the trajectory.
    data::DatasetSpec spec = lostSpec();
    spec.trajectory.frameCount = 8;
    data::SyntheticDataset ds(spec);

    SlamSystem off(lostConfig(false), ds.intrinsics());
    SlamSystem on(lostConfig(true), ds.intrinsics());
    for (u32 f = 0; f < ds.frameCount(); ++f) {
        off.processFrame(ds.frame(f));
        on.processFrame(ds.frame(f));
    }
    off.waitForMapping();
    on.waitForMapping();
    EXPECT_TRUE(
        trajectoriesIdentical(off.trajectory(), on.trajectory()));
}

} // namespace rtgs::slam
