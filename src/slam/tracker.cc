#include "slam/tracker.hh"

namespace rtgs::slam
{

namespace
{

// Early stop: after kPlateauPatience consecutive iterations without a
// relative loss improvement of at least kMinRelImprovement over the
// best seen.
constexpr u32 kPlateauPatience = 3;
constexpr Real kMinRelImprovement = Real(1e-3);

} // namespace

Tracker::Tracker(const TrackerConfig &config)
    : config_(config)
{
}

TrackResult
Tracker::track(const gs::RenderPipeline &pipeline,
               const gs::GaussianCloud &cloud, const Intrinsics &intr,
               const SE3 &init_pose, const ImageRGB &rgb,
               const ImageF *depth, const TrackIterationHook &hook,
               u32 iteration_budget, bool allow_exceed) const
{
    u32 max_iters = config_.iterations;
    if (iteration_budget > 0) {
        max_iters = allow_exceed ? iteration_budget
                                 : std::min(max_iters, iteration_budget);
    }

    TrackResult result;
    result.lossHistory.reserve(max_iters);

    SE3 pose = init_pose;
    SE3 best_pose = init_pose;
    double best_loss = std::numeric_limits<double>::infinity();
    u32 stale = 0;
    Real decay = Real(1);
    PoseOptimizer optimizer(config_.lrTranslation, config_.lrRotation);

    // One gradient arena for the whole loop: each iteration's backward
    // writes into it in place instead of re-allocating cloud-sized
    // buffers per iteration.
    gs::BackwardResult back;

    for (u32 it = 0; it < max_iters; ++it) {
        // Decayed learning rates damp the wander Adam's near-constant
        // step size causes once the loss floor is reached.
        optimizer.setLearningRates(config_.lrTranslation * decay,
                                   config_.lrRotation * decay);
        decay *= config_.lrDecay;

        Camera cam(intr, pose);
        gs::ForwardContext ctx = pipeline.forward(cloud, cam);
        LossResult loss = computeLoss(ctx.result, rgb, depth,
                                      config_.loss);
        pipeline.backward(
            cloud, ctx, loss.dlDColor,
            config_.loss.useDepth && depth ? &loss.dlDDepth : nullptr,
            /*compute_pose_grad=*/true, back);

        result.lossHistory.push_back(loss.loss);
        result.totalFragments += ctx.result.totalFragments();
        result.iterationsRun = it + 1;

        if (hook) {
            TrackIterationContext tctx;
            tctx.iteration = it;
            tctx.forward = &ctx;
            tctx.backward = &back;
            tctx.loss = loss.loss;
            hook(tctx);
        }

        bool improved = loss.loss <
            best_loss * (1.0 - static_cast<double>(kMinRelImprovement));
        if (loss.loss < best_loss) {
            best_loss = loss.loss;
            best_pose = pose; // the pose this loss was evaluated at
        }
        if (improved) {
            stale = 0;
        } else if (config_.earlyStop &&
                   ++stale >= kPlateauPatience) {
            break;
        }

        optimizer.step(pose, back.poseGrad);
    }

    result.pose = best_pose;
    result.finalLoss = best_loss;
    return result;
}

} // namespace rtgs::slam
