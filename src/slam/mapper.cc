#include "slam/mapper.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace rtgs::slam
{

Mapper::Mapper(const MapperConfig &config)
    : config_(config), optimizer_(config.learningRates)
{
}

void
Mapper::addKeyframe(KeyframeRecord record)
{
    window_.push_back(std::move(record));
    while (window_.size() > config_.windowSize)
        window_.pop_front();
}

size_t
Mapper::densify(const gs::RenderPipeline &pipeline,
                gs::GaussianCloud &cloud, const Intrinsics &intr,
                const KeyframeRecord &record)
{
    if (cloud.size() >= config_.maxGaussians)
        return 0;

    Camera cam(intr, record.pose);
    // Render the current map to find unexplained pixels. An empty map
    // renders nothing and every sampled pixel densifies.
    gs::ForwardContext ctx = pipeline.forward(cloud, cam);

    SE3 cam_to_world = record.pose.inverse();
    size_t added = 0;
    u32 stride = std::max<u32>(1, config_.densifyStride);

    for (u32 y = stride / 2; y < record.rgb.height(); y += stride) {
        for (u32 x = stride / 2; x < record.rgb.width(); x += stride) {
            Real gt_d = record.depth.at(x, y);
            if (gt_d <= 0)
                continue;
            Real alpha = ctx.result.alpha.at(x, y);
            bool uncovered = alpha < config_.densifyAlphaThreshold;
            bool depth_wrong = false;
            if (!uncovered && alpha > Real(0.2)) {
                Real render_d = ctx.result.depth.at(x, y) / alpha;
                depth_wrong = std::abs(render_d - gt_d) >
                              config_.densifyDepthError * gt_d;
            }
            if (!uncovered && !depth_wrong)
                continue;

            Vec3f cam_pt = intr.unproject(
                {static_cast<Real>(x) + Real(0.5),
                 static_cast<Real>(y) + Real(0.5)}, gt_d);
            Vec3f world = cam_to_world.apply(cam_pt);
            // Scale so neighbouring samples overlap: stride pixels at
            // this depth.
            Real scale = gt_d / intr.fx * static_cast<Real>(stride) *
                         Real(0.7);
            cloud.pushIsotropic(world, std::max(scale, Real(1e-3)),
                                config_.newGaussianOpacity,
                                record.rgb.at(x, y));
            ++added;
            if (cloud.size() >= config_.maxGaussians)
                break;
        }
    }
    optimizer_.ensureSize(cloud.size());
    return added;
}

void
Mapper::mapBatch(const gs::RenderPipeline &pipeline,
                 gs::GaussianCloud &cloud, const Intrinsics &intr,
                 MapBatchItem &item, const MapIterationHook &hook)
{
    u32 max_iters = config_.iterations;
    if (item.iterationBudget > 0)
        max_iters = std::min(max_iters, item.iterationBudget);
    item.densified = densify(pipeline, cloud, intr, item.record);
    addKeyframe(std::move(item.record));
    lastStepViews_ = 0;
    // One gradient arena per call: every mapping iteration writes into
    // it in place instead of allocating a cloud-sized result each time.
    gs::BackwardResult back;
    item.mapLoss =
        mapIterations(pipeline, cloud, intr, hook, max_iters, back);
    item.multiViews = lastStepViews_;
    pruneTransparent(cloud);
}

std::vector<size_t>
Mapper::multiViewSelection(size_t window_size, u32 iteration,
                           u32 multi_view_window)
{
    std::vector<size_t> views;
    if (window_size == 0)
        return views;
    const size_t newest = window_size - 1;
    const size_t b =
        std::min<size_t>(std::max<u32>(multi_view_window, 1),
                         window_size);
    if (b <= 1) {
        // Sequential alternation: the newest keyframe (most relevant)
        // on even steps, the rest of the window (forgetting
        // protection) on odd ones, MonoGS-style.
        if (iteration % 2 == 0 || window_size == 1)
            views.push_back(newest);
        else
            views.push_back((iteration / 2) % (window_size - 1));
        return views;
    }
    // Multi-view step: b - 1 distinct older keyframes, rotated by step
    // so every window entry keeps getting revisited, then the newest.
    const size_t rest = window_size - 1;
    for (size_t j = 0; j + 1 < b; ++j)
        views.push_back((static_cast<size_t>(iteration) + j) % rest);
    views.push_back(newest);
    return views;
}

double
Mapper::mapIterations(const gs::RenderPipeline &pipeline,
                      gs::GaussianCloud &cloud, const Intrinsics &intr,
                      const MapIterationHook &hook, u32 max_iters,
                      gs::BackwardResult &back)
{
    if (window_.empty() || cloud.empty())
        return 0;

    optimizer_.ensureSize(cloud.size());
    double final_loss = 0;
    for (u32 it = 0; it < max_iters; ++it) {
        std::vector<size_t> views = multiViewSelection(
            window_.size(), it, config_.multiViewWindow);
        lastStepViews_ = static_cast<u32>(views.size());

        // The newest view is selected last; its loss is the step's
        // reported loss and its forward context feeds the iteration
        // hook (matching the sequential recipe, where the hook sees
        // the step's only view).
        double step_loss = 0;
        bool step_on_newest = views.back() + 1 == window_.size();
        gs::ForwardContext newest_ctx;

        for (size_t v = 0; v < views.size(); ++v) {
            const KeyframeRecord &kf = window_[views[v]];
            gs::ForwardContext ctx =
                pipeline.forward(cloud, Camera(intr, kf.pose));
            LossResult loss = computeLoss(ctx.result, kf.rgb, &kf.depth,
                                          config_.loss);
            const ImageF *dl_ddepth =
                config_.loss.useDepth ? &loss.dlDDepth : nullptr;
            if (v == 0) {
                pipeline.backward(cloud, ctx, loss.dlDColor, dl_ddepth,
                                  /*compute_pose_grad=*/false, back);
            } else {
                // Views beyond the first land in the per-view scratch
                // and fold into the shared arena in view order — the
                // deterministic fixed-chunk reduction keeps the sum
                // bitwise independent of the worker count.
                pipeline.backward(cloud, ctx, loss.dlDColor, dl_ddepth,
                                  /*compute_pose_grad=*/false,
                                  viewScratch_);
                pipeline.accumulateBackward(back, viewScratch_);
            }
            if (v + 1 == views.size()) {
                step_loss = loss.loss;
                newest_ctx = std::move(ctx);
            }
        }

        // One averaged update from all of the step's views (an exact
        // no-op for a single view).
        pipeline.scaleBackward(
            back, Real(1) / static_cast<Real>(views.size()));
        optimizer_.step(cloud, back.grads);

        if (step_on_newest)
            final_loss = step_loss;

        if (hook) {
            MapIterationContext mctx;
            mctx.iteration = it;
            mctx.forward = &newest_ctx;
            mctx.backward = &back;
            mctx.loss = step_loss;
            hook(mctx);
        }
    }
    return final_loss;
}

size_t
Mapper::pruneTransparent(gs::GaussianCloud &cloud)
{
    std::vector<u8> keep(cloud.size(), 1);
    size_t cut = 0;
    for (size_t k = 0; k < cloud.size(); ++k) {
        if (cloud.opacity(k) < config_.pruneOpacity) {
            keep[k] = 0;
            ++cut;
        }
    }
    if (cut > 0) {
        cloud.compact(keep);
        optimizer_.remap(keep);
    }
    return cut;
}

void
Mapper::remapOptimizer(const std::vector<u8> &keep)
{
    optimizer_.remap(keep);
}

void
Mapper::reset()
{
    window_.clear();
    optimizer_.reset();
}

} // namespace rtgs::slam
