/**
 * @file
 * Tracking-health monitoring with graceful degradation and recovery.
 *
 * The staged pipeline assumes its input stream is sane and its tracker
 * converges; neither survives contact with a real sensor. The
 * HealthMonitor sits between the track stage and the keyframe decision
 * and closes that gap in two places:
 *
 *  1. Up-front input validation — NaN pixels, non-monotonic
 *     timestamps, and depth images with almost no valid samples are
 *     caught before tracking touches them. Rejected frames hold the
 *     constant-velocity pose and skip the frame; depth-starved frames
 *     degrade to RGB-only tracking instead of ingesting garbage.
 *  2. Tracking-divergence detection — a loss spike over the running
 *     baseline or an implausible pose jump against the
 *     constant-velocity model flags the frame as suspect; an optional
 *     probe-PSNR render (only computed for suspect frames, so the
 *     clean path costs nothing) can veto false alarms.
 *
 * Recovery escalates: hold-pose-and-skip on the first suspect frame,
 * a boosted tracking-iteration budget while relocalizing, and a forced
 * keyframe that re-anchors the map on the first clean frame. The
 * OK / RELOCALIZING / LOST state is surfaced per frame in FrameReport.
 *
 * LOST has two exits: the active one — an accepted map-based
 * relocalization (slam::Relocalizer, reported via noteRelocalized()) —
 * and a passive probation window (kLostProbationFrames consecutive
 * clean frames of re-converged tracking). See docs/ROBUSTNESS.md for
 * the full escalation table.
 *
 * The monitor is pure bookkeeping: with clean input and converging
 * tracking it never alters a pose, budget, or keyframe decision, so a
 * monitor-on run of a fault-free stream is byte-identical to a
 * monitor-off run (tests/test_health_monitor.cc pins this).
 */

#ifndef RTGS_SLAM_HEALTH_MONITOR_HH
#define RTGS_SLAM_HEALTH_MONITOR_HH

#include <functional>

#include "common/annotations.hh"
#include "common/mutex.hh"
#include "data/dataset.hh"

namespace rtgs::slam
{

/** Tracking-health state surfaced per frame. */
enum class HealthState
{
    Ok,           //!< tracking converges, input sane
    Relocalizing, //!< recently suspect; recovery escalation active
    Lost          //!< suspect for >= lostPatience consecutive frames
};

/** Human-readable health-state name ("OK" / "RELOCALIZING" / "LOST"). */
const char *healthStateName(HealthState state);

/**
 * LOST exit probation: consecutive clean frames required before
 * passive re-convergence may leave Lost. The recovery clock to Ok
 * restarts after probation, so the passive exit takes
 * kLostProbationFrames + recoveryOkFrames clean frames in total. An
 * accepted relocalization (noteRelocalized()) is the active exit and
 * skips probation.
 */
inline constexpr u32 kLostProbationFrames = 2;

/** Health-monitor configuration. Disabled by default: the fault-free
 *  pipeline stays byte-identical with the monitor off OR on. */
struct HealthConfig
{
    bool enabled = false;

    // --- input validation (pre-track)
    /** Reject the frame when the fraction of non-finite rgb/depth
     *  pixels exceeds this (0 = any NaN rejects). */
    Real maxNanPixelFraction = 0;

    // --- probe confirmation (suspect frames only)
    /** Render a downsampled probe of the map at the tracked pose and
     *  veto the suspect flag when its PSNR is healthy. */
    bool probeConfirm = true;
    /** Probe PSNR (dB) at or above which tracking counts as healthy. */
    Real probePsnrMinDb = Real(11);
    /** Probe render width in pixels (height keeps the aspect). */
    u32 probeWidth = 64;

    // --- recovery escalation
    /** Tracking-iteration multiplier while not Ok (allowed to exceed
     *  the configured count — the inverse of the similarity gate). */
    Real boostFactor = Real(1.5);
    /** Consecutive clean frames required to return to Ok. */
    u32 recoveryOkFrames = 2;
    /** Consecutive suspect frames before declaring Lost. */
    u32 lostPatience = 5;
};

/** Pre-track input-validation verdict. */
struct InputCheck
{
    bool reject = false;       //!< skip this frame entirely
    bool nanPixels = false;    //!< non-finite rgb/depth beyond threshold
    bool badTimestamp = false; //!< duplicate or regressed timestamp
    /** Depth mostly invalid: track RGB-only (not a rejection). */
    bool depthInvalid = false;
};

/** Pre-track advice (recovery budget escalation). */
struct FrameAdvice
{
    bool boostBudget = false;
    /** Requested tracking iterations (raw count; exceeds the
     *  configured count by design). 0 when not boosting. */
    u32 trackIterations = 0;
};

/** Everything the post-track assessment inspects. */
struct AssessInput
{
    double trackLoss = 0;
    /** False for backends without a photometric loss (Photo-SLAM's
     *  geometric tracking): disables the loss-spike signal. */
    bool haveLoss = true;
    SE3 trackedPose;
    SE3 predictedPose; //!< constant-velocity prediction
    /** Lazily renders the probe and returns its PSNR in dB; negative
     *  means unavailable. Only invoked for suspect frames. Null
     *  disables probe confirmation for this frame. */
    std::function<double()> probePsnr;
};

/** Post-track verdict and the recovery actions to apply. */
struct Assessment
{
    bool suspect = false;
    bool holdPose = false;        //!< discard the tracked pose, keep the guess
    bool suppressKeyframe = false;
    bool forceKeyframe = false;   //!< recovery re-anchor
    /** Probe PSNR when the probe ran this frame; -1 otherwise. */
    double probePsnrDb = -1;
    HealthState state = HealthState::Ok; //!< state after this frame
};

/**
 * The tracking-health state machine. Feed each frame through
 * checkInput() (+ noteRejected() when the caller skips it), advise(),
 * and assess(), in order. Not thread-safe: frame-loop only — the
 * confinement is enforced by a ThreadAffinity capability, so a call
 * from a second thread panics at runtime and unguarded field access
 * fails the Clang thread-safety build. rebindThread() is the
 * documented hand-off point for moving the monitor to another thread.
 */
class HealthMonitor
{
  public:
    explicit HealthMonitor(const HealthConfig &config = {});

    const HealthConfig &config() const { return config_; }

    HealthState
    state() const
    {
        affinity_.assertHeld();
        return state_;
    }

    /** Frames since the monitor last reported Ok (0 when Ok). */
    u32
    framesSinceHealthy() const
    {
        affinity_.assertHeld();
        return framesSinceHealthy_;
    }

    /** Completed recovery episodes (transitions back to Ok). */
    size_t
    recoveries() const
    {
        affinity_.assertHeld();
        return recoveries_;
    }

    size_t
    rejectedInputs() const
    {
        affinity_.assertHeld();
        return rejectedInputs_;
    }

    size_t
    heldPoses() const
    {
        affinity_.assertHeld();
        return heldPoses_;
    }

    /** Accepted relocalizations (active LOST exits). */
    size_t
    relocalizations() const
    {
        affinity_.assertHeld();
        return relocalizations_;
    }

    /** Cumulative frames that ended a step in the Lost state. */
    u32
    framesLost() const
    {
        affinity_.assertHeld();
        return framesLost_;
    }

    /** Validate the next frame's input before tracking. */
    InputCheck checkInput(const data::Frame &frame);

    /** Record that the caller skipped a rejected frame (escalates the
     *  recovery state machine exactly like a suspect frame). */
    void noteRejected();

    /** Pre-track recovery advice for the next (accepted) frame. */
    FrameAdvice advise(u32 configured_track_iterations) const;

    /** Post-track divergence assessment + state-machine step. */
    Assessment assess(const AssessInput &in);

    /**
     * An accepted relocalization replaced this frame's pose: the
     * active LOST exit. Moves Lost -> Relocalizing immediately (no
     * probation), clears the suspicion streak, and cancels the pending
     * passive re-anchor — the caller forces a keyframe at the
     * relocalized pose on this very frame. Called INSTEAD of assess()
     * for the frame.
     */
    void noteRelocalized();

    /**
     * A relocalization attempt ran and was rejected (probe PSNR below
     * the accept threshold): the pose was held, the state stays Lost.
     * Called INSTEAD of assess() for the frame.
     */
    void noteRelocalizationFailed();

    /**
     * Hand the monitor to another thread, keeping its state: forget
     * the bound thread so the next call binds the new one. Legal only
     * between frames with a happens-before edge from the old thread's
     * last touch (the fleet scheduler's turn hand-off provides it);
     * the recovery state machine carries across unchanged.
     */
    void rebindThread() { affinity_.rebind(); }

  private:
    void escalateSuspect() RTGS_REQUIRES(affinity_);
    void stepClean(Assessment &out) RTGS_REQUIRES(affinity_);

    /** Binds to the frame loop on first use; see the class comment. */
    ThreadAffinity affinity_;

    /** Immutable after construction. */
    HealthConfig config_;

    HealthState state_ RTGS_GUARDED_BY(affinity_) = HealthState::Ok;
    u32 consecutiveSuspect_ RTGS_GUARDED_BY(affinity_) = 0;
    u32 consecutiveClean_ RTGS_GUARDED_BY(affinity_) = 0;
    u32 framesSinceHealthy_ RTGS_GUARDED_BY(affinity_) = 0;
    /** A forced re-anchor keyframe is pending for the next clean frame. */
    bool needReanchor_ RTGS_GUARDED_BY(affinity_) = false;
    double lossEma_ RTGS_GUARDED_BY(affinity_) = 0;
    bool haveLossEma_ RTGS_GUARDED_BY(affinity_) = false;
    double lastTimestamp_ RTGS_GUARDED_BY(affinity_) = 0;
    bool haveTimestamp_ RTGS_GUARDED_BY(affinity_) = false;
    size_t recoveries_ RTGS_GUARDED_BY(affinity_) = 0;
    size_t rejectedInputs_ RTGS_GUARDED_BY(affinity_) = 0;
    size_t heldPoses_ RTGS_GUARDED_BY(affinity_) = 0;
    size_t relocalizations_ RTGS_GUARDED_BY(affinity_) = 0;
    u32 framesLost_ RTGS_GUARDED_BY(affinity_) = 0;
};

} // namespace rtgs::slam

#endif // RTGS_SLAM_HEALTH_MONITOR_HH
