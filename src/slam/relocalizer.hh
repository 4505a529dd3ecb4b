/**
 * @file
 * Map-based relocalization for LOST recovery.
 *
 * The HealthMonitor's escalation ladder (hold -> boosted budget ->
 * re-anchor keyframe) tops out at LOST, where the tracker used to coast
 * on the constant-velocity model and hope to re-converge. After a real
 * discontinuity — a transport stall that teleports the camera, a
 * dynamic occluder that starves tracking for long enough — the coast
 * pose is permanently outside the tracker's convergence basin and the
 * session never recovers. The Relocalizer is the active exit: it
 * searches poses against the map instead of hoping.
 *
 * Mechanics:
 *
 *  1. A lightweight keyframe pose/probe database — a bounded ring of
 *     {frame index, pose, downsampled thumbnail} fed from the keyframe
 *     decision stage (the same box-filtered probe the SimilarityGate
 *     builds).
 *  2. On LOST, a deterministic candidate search: the database anchors
 *     whose thumbnails best match the current frame (appearance
 *     nearest-neighbour, so revisited places are found too), a
 *     velocity-extrapolation ladder continuing the newest inter-
 *     keyframe motion (the only family that can chase a forward
 *     teleport), and seeded SE(3) perturbations around every base
 *     candidate. Candidates are scored by downsampled probe renders
 *     against the current frame and reduced by a fixed-order argmax.
 *  3. The caller refines the best candidate with a boosted tracking
 *     burst and accepts only if the refined pose's probe PSNR clears
 *     a configurable threshold; otherwise the system stays LOST and
 *     retries on an exponential-backoff schedule.
 *
 * Determinism contract: candidate generation draws from an Rng seeded
 * by (a fixed seed, frame index, candidate base index) only — salted
 * per-frame seeding, so the search is bitwise reproducible and
 * independent of how many LOST episodes preceded it. Scoring renders
 * go through the render pipeline, whose outputs are bitwise
 * independent of the worker count; with the fixed-order reduction the
 * whole search is too. Disabled (the default), or enabled over clean
 * input, the relocalizer never engages and the pipeline output stays
 * byte-identical.
 *
 * Threading: frame-loop-confined, like the HealthMonitor — enforced
 * by a ThreadAffinity capability (runtime panic on cross-thread use,
 * compile-time via Clang thread-safety analysis).
 */

#ifndef RTGS_SLAM_RELOCALIZER_HH
#define RTGS_SLAM_RELOCALIZER_HH

#include <deque>
#include <functional>
#include <vector>

#include "common/annotations.hh"
#include "common/mutex.hh"
#include "geometry/se3.hh"
#include "image/image.hh"

namespace rtgs::slam
{

/**
 * The refinement burst that follows a candidate search runs
 * kRefineBoostFactor times the configured tracking iterations (allowed
 * to exceed them) on a dedicated cold-start tracker. The incremental
 * tracker's aggressive per-iteration learning-rate decay bounds its
 * total correction to a few times the base learning rate: right for
 * warm starts one frame apart, far too timid for a relocalization
 * candidate several keyframes away. The burst's tracker therefore
 * scales the learning rates by kRefineLrScale, decays them by
 * kRefineLrDecay per iteration, and never stops early (the loss can
 * plateau before the candidate reaches the basin).
 */
inline constexpr Real kRefineBoostFactor = Real(4);
inline constexpr Real kRefineLrScale = Real(4);
inline constexpr Real kRefineLrDecay = Real(0.98);

/** Relocalizer configuration. Disabled by default; enabling it never
 *  changes the output of a run that never goes LOST. */
struct RelocalizerConfig
{
    bool enabled = false;

    /** Probe width in pixels for database thumbnails and candidate
     *  scoring renders (height keeps the frame aspect). */
    u32 probeWidth = 64;

    /** Keyframe pose/probe database capacity (oldest evicted first). */
    u32 maxKeyframes = 32;

    /** Database anchors (best thumbnail matches) tried per attempt. */
    u32 anchorKeyframes = 4;

    /** Velocity-ladder candidates: the newest inter-keyframe delta
     *  composed 1..N steps past the newest keyframe. */
    u32 extrapolationSteps = 3;

    /** Seeded SE(3) perturbations generated around every base
     *  candidate (anchors and extrapolations). */
    u32 perturbationsPerAnchor = 2;

    /** Accept the refined pose only when its probe-render PSNR (dB)
     *  clears this; below it the system stays LOST. */
    Real acceptPsnrMinDb = Real(12);

    /** Frames to wait after the first failed attempt; doubles per
     *  consecutive failure up to backoffMaxFrames. 0 retries on the
     *  very next frame once. */
    u32 backoffStartFrames = 0;
    u32 backoffMaxFrames = 8;
};

/** One keyframe database entry. */
struct KeyframeProbe
{
    u32 frameIndex = 0;
    SE3 pose;
    ImageRGB probe; //!< box-downsampled thumbnail (probeWidth wide)
};

/** How a candidate pose was derived (kept for observability/tests). */
enum class RelocCandidateKind
{
    Anchor,       //!< a database keyframe pose verbatim
    Extrapolated, //!< velocity ladder past the newest keyframe
    Perturbed     //!< seeded SE(3) jitter around a base candidate
};

/** One candidate pose of the deterministic search. */
struct RelocCandidate
{
    SE3 pose;
    u32 anchorFrame = 0; //!< keyframe the candidate derives from
    RelocCandidateKind kind = RelocCandidateKind::Anchor;
};

/** Outcome of one candidate search (before refinement). */
struct RelocSearchResult
{
    bool hasCandidate = false;
    SE3 bestPose;
    double bestScoreDb = -1; //!< probe PSNR of the best candidate
    u32 candidatesScored = 0;
};

/**
 * The keyframe database + deterministic candidate search + backoff
 * state machine. The caller (SlamSystem) owns scoring and refinement:
 * search() takes a score callback so the relocalizer never touches
 * the render pipeline or the map directly.
 */
class Relocalizer
{
  public:
    /** Scores a candidate pose; returns probe-render PSNR in dB. */
    using ScoreFn = std::function<double(const SE3 &)>;

    explicit Relocalizer(const RelocalizerConfig &config = {});

    const RelocalizerConfig &config() const { return config_; }

    /** Box-downsample a frame to the database/scoring probe size. */
    ImageRGB makeProbe(const ImageRGB &rgb) const;

    /** Record an accepted keyframe in the pose/probe database. */
    void noteKeyframe(u32 frame_index, const SE3 &pose,
                      const ImageRGB &rgb);

    size_t
    databaseSize() const
    {
        affinity_.assertHeld();
        return database_.size();
    }

    /** The database, newest last (exposed for tests/observability). */
    const std::deque<KeyframeProbe> &
    database() const
    {
        affinity_.assertHeld();
        return database_;
    }

    /** True when the backoff schedule allows an attempt this frame. */
    bool
    shouldAttempt(u32 frame_index) const
    {
        affinity_.assertHeld();
        return frame_index >= nextAttemptFrame_;
    }

    /**
     * The deterministic candidate family for this frame: ranked
     * database anchors, the velocity-extrapolation ladder, and seeded
     * perturbations of both, in a fixed order. `frame_probe` is the
     * current frame downsampled via makeProbe() (anchor ranking is an
     * appearance nearest-neighbour over thumbnails). Empty when the
     * database is.
     */
    std::vector<RelocCandidate>
    generateCandidates(u32 frame_index,
                       const ImageRGB &frame_probe) const;

    /**
     * One relocalization attempt: generate candidates, score each via
     * `score`, and return the fixed-order argmax (first strictly-best
     * wins, so the reduction is bitwise order-stable). Counts toward
     * attempts()/candidatesScored().
     */
    RelocSearchResult search(u32 frame_index,
                             const ImageRGB &frame_probe,
                             const ScoreFn &score);

    /**
     * Record the attempt's outcome. Rejection arms the exponential
     * backoff (shouldAttempt() stays false for the backoff window);
     * acceptance resets it.
     */
    void noteOutcome(u32 frame_index, bool accepted);

    // --- run statistics
    size_t
    attempts() const
    {
        affinity_.assertHeld();
        return attempts_;
    }

    size_t
    accepted() const
    {
        affinity_.assertHeld();
        return accepted_;
    }

    u64
    candidatesScored() const
    {
        affinity_.assertHeld();
        return candidatesScored_;
    }

    /**
     * Hand the relocalizer to another thread, keeping the keyframe
     * database and backoff schedule. Same legality rules as HealthMonitor::rebindThread(): between frames
     * only, with a happens-before edge from the previous owner.
     */
    void rebindThread() { affinity_.rebind(); }

  private:
    /** Binds to the frame loop on first use; see the class comment. */
    ThreadAffinity affinity_;

    /** Immutable after construction. */
    RelocalizerConfig config_;

    std::deque<KeyframeProbe> database_ RTGS_GUARDED_BY(affinity_);
    u32 nextAttemptFrame_ RTGS_GUARDED_BY(affinity_) = 0;
    u32 backoffFrames_ RTGS_GUARDED_BY(affinity_) = 0;
    size_t attempts_ RTGS_GUARDED_BY(affinity_) = 0;
    size_t accepted_ RTGS_GUARDED_BY(affinity_) = 0;
    u64 candidatesScored_ RTGS_GUARDED_BY(affinity_) = 0;
};

} // namespace rtgs::slam

#endif // RTGS_SLAM_RELOCALIZER_HH
