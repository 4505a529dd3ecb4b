#include "hw/rtgs_api.hh"

#include "common/logging.hh"

namespace rtgs::hw
{

const char *
rtgsEventName(RtgsEvent event)
{
    switch (event) {
      case RtgsEvent::InputDone: return "input_done";
      case RtgsEvent::ExecuteStart: return "execute_start";
      case RtgsEvent::GradientReady: return "gradient_ready";
      case RtgsEvent::PruningStart: return "pruning_start";
      case RtgsEvent::PruningDone: return "pruning_done";
      case RtgsEvent::PoseWritten: return "pose_written";
      case RtgsEvent::ParamsUpdated: return "params_updated";
      case RtgsEvent::FrameComplete: return "frame_complete";
    }
    return "unknown";
}

RtgsRuntime::RtgsRuntime(ExecuteFn execute, PruneFn prune,
                         PoseWriteFn pose_write, MapUpdateFn map_update)
    : execute_(std::move(execute)), prune_(std::move(prune)),
      poseWrite_(std::move(pose_write)), mapUpdate_(std::move(map_update))
{
    rtgs_assert(execute_ != nullptr);
}

void
RtgsRuntime::emit(RtgsEvent event)
{
    trace_.push_back(event);
}

const std::vector<RtgsEvent> &
RtgsRuntime::rtgsExecute(int frame_id, bool is_keyframe)
{
    rtgs_assert(status_ == RtgsStatus::Idle,
                "RTGS_execute while a frame is in flight");
    trace_.clear();
    currentFrame_ = frame_id;

    // The plug-in polls Input_done before consuming sorted Gaussians.
    emit(RtgsEvent::InputDone);

    status_ = RtgsStatus::Executing;
    emit(RtgsEvent::ExecuteStart);
    execute_(frame_id, is_keyframe);
    emit(RtgsEvent::GradientReady);

    if (!is_keyframe) {
        // SMs prune using the published gradients; the plug-in waits on
        // pruning_done before writing back results.
        status_ = RtgsStatus::WaitPruning;
        emit(RtgsEvent::PruningStart);
        if (prune_)
            prune_(frame_id);
        emit(RtgsEvent::PruningDone);

        status_ = RtgsStatus::Executing;
        if (poseWrite_)
            poseWrite_(frame_id);
        emit(RtgsEvent::PoseWritten);
    } else {
        // Keyframes skip pruning and pose write-back; gradients update
        // the Gaussian parameters instead (mapping).
        if (mapUpdate_)
            mapUpdate_(frame_id);
        emit(RtgsEvent::ParamsUpdated);
    }

    emit(RtgsEvent::FrameComplete);
    status_ = RtgsStatus::Idle;
    ++framesExecuted_;
    return trace_;
}

RtgsStatus
RtgsRuntime::rtgsCheckStatus(int frame_id, bool blocking) const
{
    (void)frame_id;
    // In this synchronous model the runtime is only observable between
    // frames; a blocking query therefore always sees Idle, matching the
    // "wait until RTGS is idle" semantics of Listing 1.
    if (blocking)
        return RtgsStatus::Idle;
    return status_;
}

} // namespace rtgs::hw
