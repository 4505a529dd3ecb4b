/**
 * @file
 * The tracking stage: per-frame camera pose optimisation by iterating
 * render -> loss -> backpropagation -> pose update (Sec. 2.2). Exposes a
 * per-iteration hook so RTGS's adaptive pruner (which reuses tracking
 * gradients, Sec. 4.1) and the hardware trace capture can observe every
 * iteration without re-running anything.
 */

#ifndef RTGS_SLAM_TRACKER_HH
#define RTGS_SLAM_TRACKER_HH

#include <functional>
#include <vector>

#include "gs/render_pipeline.hh"
#include "slam/loss.hh"
#include "slam/optimizer.hh"

namespace rtgs::slam
{

/** Tracking configuration. */
struct TrackerConfig
{
    u32 iterations = 15;
    Real lrTranslation = Real(1e-2);
    Real lrRotation = Real(5e-3);
    /** Per-iteration multiplicative learning-rate decay. */
    Real lrDecay = Real(0.9);
    /**
     * Convergence detection: stop once the loss plateaus (see
     * tracker.cc). Adam steps have near-constant magnitude, so
     * iterating past convergence makes the pose wander around the loss
     * floor instead of refining it.
     */
    bool earlyStop = true;
    LossConfig loss;
};

/** Everything an iteration observer may inspect. */
struct TrackIterationContext
{
    u32 iteration = 0;
    const gs::ForwardContext *forward = nullptr;
    const gs::BackwardResult *backward = nullptr;
    double loss = 0;
};

/** Per-frame tracking outcome. */
struct TrackResult
{
    SE3 pose;           //!< best-loss pose seen during optimisation
    double finalLoss = 0; //!< loss at the returned pose
    std::vector<double> lossHistory;
    u32 iterationsRun = 0; //!< iterations actually executed
    u64 totalFragments = 0; //!< summed over iterations (workload proxy)
};

/** Hook invoked after each tracking iteration's backward pass. */
using TrackIterationHook =
    std::function<void(const TrackIterationContext &)>;

/** Camera tracker. Stateless across frames except for configuration. */
class Tracker
{
  public:
    explicit Tracker(const TrackerConfig &config = {});

    const TrackerConfig &config() const { return config_; }
    TrackerConfig &config() { return config_; }

    /**
     * Optimise the camera pose for one frame.
     *
     * @param pipeline   renderer (with the resolution to track at)
     * @param cloud      current map; masked Gaussians are skipped
     * @param intr       intrinsics of the (possibly downsampled) frame
     * @param init_pose  initial pose guess (e.g. constant velocity)
     * @param rgb        observed colour at the same resolution
     * @param depth      observed depth, or nullptr for RGB-only
     * @param hook       optional per-iteration observer
     * @param iteration_budget cap on iterations for this frame (the
     *        similarity gate's scaled budget); 0 keeps the configured
     *        count. Never raises it above the configuration unless
     *        `allow_exceed` is set.
     * @param allow_exceed let a non-zero budget RAISE the iteration
     *        count above the configuration (the health monitor's
     *        recovery boost — the inverse of the similarity gate)
     */
    TrackResult track(const gs::RenderPipeline &pipeline,
                      const gs::GaussianCloud &cloud,
                      const Intrinsics &intr, const SE3 &init_pose,
                      const ImageRGB &rgb, const ImageF *depth,
                      const TrackIterationHook &hook = nullptr,
                      u32 iteration_budget = 0,
                      bool allow_exceed = false) const;

  private:
    TrackerConfig config_;
};

} // namespace rtgs::slam

#endif // RTGS_SLAM_TRACKER_HH
