#include "slam/health_monitor.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace rtgs::slam
{

namespace
{

/** Below this valid-depth fraction the depth image is ignored and the
 *  frame tracks RGB-only (sensor dropout degradation). */
constexpr Real kMinValidDepthFraction = Real(0.05);

// Loss spike: trackLoss > max(kLossSpikeFloor, EMA * kLossSpikeFactor),
// where the EMA tracks clean frames only.
constexpr Real kLossSpikeFactor = Real(3);
/** Absolute loss below which a frame is never a spike. */
constexpr double kLossSpikeFloor = 0.02;
/** EMA smoothing for the clean-frame loss baseline. */
constexpr Real kLossEmaAlpha = Real(0.3);

// Pose-jump gates vs the constant-velocity prediction.
constexpr Real kMaxTranslationJump = Real(0.30); //!< metres
constexpr Real kMaxRotationJump = Real(0.50);    //!< radians

} // namespace

const char *
healthStateName(HealthState state)
{
    switch (state) {
      case HealthState::Ok: return "OK";
      case HealthState::Relocalizing: return "RELOCALIZING";
      case HealthState::Lost: return "LOST";
    }
    return "unknown";
}

HealthMonitor::HealthMonitor(const HealthConfig &config)
    : config_(config)
{
}

InputCheck
HealthMonitor::checkInput(const data::Frame &frame)
{
    affinity_.assertHeld();
    InputCheck check;

    // Non-finite pixels: a corrupted transmission or a camera fault.
    // One linear scan over rgb + depth; trivial next to a render pass.
    size_t nan_pixels = 0;
    for (size_t i = 0; i < frame.rgb.pixelCount(); ++i) {
        const Vec3f &px = frame.rgb[i];
        if (!std::isfinite(px.x) || !std::isfinite(px.y) ||
            !std::isfinite(px.z)) {
            ++nan_pixels;
        }
    }
    size_t valid_depth = 0;
    for (size_t i = 0; i < frame.depth.pixelCount(); ++i) {
        Real d = frame.depth[i];
        if (!std::isfinite(d))
            ++nan_pixels;
        else if (d > 0)
            ++valid_depth;
    }
    size_t total = frame.rgb.pixelCount() + frame.depth.pixelCount();
    if (total > 0) {
        Real nan_fraction =
            static_cast<Real>(nan_pixels) / static_cast<Real>(total);
        if (nan_pixels > 0 &&
            nan_fraction > config_.maxNanPixelFraction) {
            check.nanPixels = true;
            check.reject = true;
        }
    }

    // Timestamp sanity: strictly monotonic over ACCEPTED frames, so a
    // duplicated or regressed delivery never feeds the motion model.
    if (haveTimestamp_ &&
        (!std::isfinite(frame.timestamp) ||
         frame.timestamp <= lastTimestamp_)) {
        check.badTimestamp = true;
        check.reject = true;
    }

    // Depth sanity: a near-empty depth image (sensor dropout) degrades
    // tracking to RGB-only instead of rejecting the frame outright.
    if (frame.depth.pixelCount() > 0) {
        Real valid_fraction = static_cast<Real>(valid_depth) /
                              static_cast<Real>(frame.depth.pixelCount());
        if (valid_fraction < kMinValidDepthFraction)
            check.depthInvalid = true;
    }

    if (!check.reject && std::isfinite(frame.timestamp)) {
        lastTimestamp_ = frame.timestamp;
        haveTimestamp_ = true;
    }
    if (check.reject) {
        warn("health: frame %u input rejected (%s%s)", frame.index,
             check.nanPixels ? "nan-pixels " : "",
             check.badTimestamp ? "bad-timestamp" : "");
    }
    return check;
}

void
HealthMonitor::noteRejected()
{
    affinity_.assertHeld();
    ++rejectedInputs_;
    escalateSuspect();
    if (state_ != HealthState::Ok)
        ++framesSinceHealthy_;
    if (state_ == HealthState::Lost)
        ++framesLost_;
}

void
HealthMonitor::noteRelocalized()
{
    affinity_.assertHeld();
    // The active LOST exit: the frame's pose came from an accepted
    // map-based relocalization, so the suspicion streak is over and
    // the passive re-anchor is moot (the caller forces a keyframe at
    // the relocalized pose on this frame). Confirmation still takes
    // recoveryOkFrames clean frames before the state returns to Ok.
    state_ = HealthState::Relocalizing;
    consecutiveSuspect_ = 0;
    consecutiveClean_ = 0;
    needReanchor_ = false;
    ++relocalizations_;
    ++framesSinceHealthy_;
}

void
HealthMonitor::noteRelocalizationFailed()
{
    affinity_.assertHeld();
    // A rejected attempt behaves like any other suspect frame: the
    // pose was held and the state stays Lost (escalateSuspect() never
    // demotes), the clean streak resets.
    escalateSuspect();
    ++heldPoses_;
    if (state_ != HealthState::Ok)
        ++framesSinceHealthy_;
    if (state_ == HealthState::Lost)
        ++framesLost_;
}

FrameAdvice
HealthMonitor::advise(u32 configured_track_iterations) const
{
    affinity_.assertHeld();
    FrameAdvice advice;
    if (state_ == HealthState::Ok || configured_track_iterations == 0)
        return advice;
    // Recovery boost: the inverse of the similarity gate. A frame
    // tracked from a held (extrapolated) pose starts further from the
    // optimum, so it gets MORE iterations than the configuration, not
    // fewer.
    Real boosted = std::ceil(
        static_cast<Real>(configured_track_iterations) *
        std::max(Real(1), config_.boostFactor));
    advice.boostBudget = true;
    advice.trackIterations =
        std::max(configured_track_iterations + 1,
                 static_cast<u32>(boosted));
    return advice;
}

void
HealthMonitor::escalateSuspect()
{
    consecutiveClean_ = 0;
    ++consecutiveSuspect_;
    if (state_ == HealthState::Ok) {
        state_ = HealthState::Relocalizing;
        needReanchor_ = true;
    }
    if (consecutiveSuspect_ >= config_.lostPatience)
        state_ = HealthState::Lost;
}

void
HealthMonitor::stepClean(Assessment &out)
{
    if (state_ == HealthState::Ok)
        return;
    consecutiveSuspect_ = 0;
    ++consecutiveClean_;
    if (state_ == HealthState::Lost) {
        // Passive LOST exit goes through probation: a Lost tracker may
        // only leave on sustained clean re-convergence (the active
        // exit, an accepted relocalization, uses noteRelocalized()
        // instead). The recovery clock to Ok restarts after probation.
        if (consecutiveClean_ < kLostProbationFrames)
            return;
        state_ = HealthState::Relocalizing;
        consecutiveClean_ = 0;
    }
    if (needReanchor_) {
        // Re-anchor: force a keyframe on the first clean frame so the
        // map absorbs a fresh, trusted view at the recovered pose.
        out.forceKeyframe = true;
        needReanchor_ = false;
    }
    if (consecutiveClean_ >= config_.recoveryOkFrames) {
        state_ = HealthState::Ok;
        consecutiveClean_ = 0;
        framesSinceHealthy_ = 0;
        ++recoveries_;
    }
}

Assessment
HealthMonitor::assess(const AssessInput &in)
{
    affinity_.assertHeld();
    Assessment out;

    bool loss_spike =
        in.haveLoss && haveLossEma_ &&
        in.trackLoss >
            std::max(kLossSpikeFloor,
                     lossEma_ * static_cast<double>(kLossSpikeFactor));
    Real trans_jump =
        SE3::translationDistance(in.trackedPose, in.predictedPose);
    Real rot_jump =
        SE3::rotationDistance(in.trackedPose, in.predictedPose);
    bool pose_jump = !std::isfinite(trans_jump) ||
                     !std::isfinite(rot_jump) ||
                     trans_jump > kMaxTranslationJump ||
                     rot_jump > kMaxRotationJump;

    out.suspect = loss_spike || pose_jump;
    if (out.suspect && config_.probeConfirm && in.probePsnr) {
        // The probe render only runs here — never on a clean frame —
        // so divergence confirmation costs nothing on the happy path.
        out.probePsnrDb = in.probePsnr();
        if (std::isfinite(out.probePsnrDb) && out.probePsnrDb >= 0 &&
            out.probePsnrDb >=
                static_cast<double>(config_.probePsnrMinDb)) {
            out.suspect = false; // tracking genuinely fits the map
        }
    }

    if (out.suspect) {
        escalateSuspect();
        out.holdPose = true;
        out.suppressKeyframe = true;
        ++heldPoses_;
    } else {
        // Update the loss baseline on clean frames only, so a spike
        // never inflates the baseline it is judged against.
        if (in.haveLoss) {
            double a = static_cast<double>(kLossEmaAlpha);
            lossEma_ = haveLossEma_
                           ? (1 - a) * lossEma_ + a * in.trackLoss
                           : in.trackLoss;
            haveLossEma_ = true;
        }
        stepClean(out);
    }
    if (state_ != HealthState::Ok)
        ++framesSinceHealthy_;
    if (state_ == HealthState::Lost)
        ++framesLost_;
    out.state = state_;
    return out;
}

} // namespace rtgs::slam
