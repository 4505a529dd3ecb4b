#include "core/rtgs_slam.hh"

#include <algorithm>

#include "common/logging.hh"

namespace rtgs::core
{

RtgsSlam::RtgsSlam(const RtgsSlamConfig &config,
                   const Intrinsics &intrinsics)
    : config_(config),
      system_(std::make_unique<slam::SlamSystem>(config.base,
                                                 intrinsics)),
      pruner_(config.pruner), downsampler_(config.downsampler),
      taming_(500), gate_(config.gate)
{
    // In-tracking pruning composes with asynchronous mapping (keep
    // masks are computed against the per-frame tracking clone and
    // translated onto the authoritative cloud through stable ids), so
    // no config adjustment is needed here.
    installHooks();
}

void
RtgsSlam::setExternalTrackHook(slam::TrackIterationHook hook)
{
    externalHook_ = std::move(hook);
}

void
RtgsSlam::finish()
{
    system_->waitForMapping();
    // Async map jobs fill their results into SlamSystem::reports_ rows;
    // refresh this layer's copies so the documented contract (drain,
    // then read reports()) holds here too. Rows align 1:1 by frame.
    const auto &base_reports = system_->reports();
    for (size_t i = 0;
         i < std::min(reports_.size(), base_reports.size()); ++i) {
        if (reports_[i].base.mappedAsync)
            reports_[i].base = base_reports[i];
    }
}

void
RtgsSlam::installHooks()
{
    system_->setTrackIterationHook(
        [this](const slam::TrackIterationContext &ctx) {
            if (externalHook_)
                externalHook_(ctx);
            if (ctx.iteration == 0) {
                // First-iteration workload is representative of the
                // frame; feeds the similarity gate's workload signal.
                lastWorkload_ = ctx.forward->workload();
                haveLastWorkload_ = true;
            }
            if (!pruneThisFrame_)
                return;
            if (config_.pruneMethod == PruneMethod::Rtgs) {
                // Arm the pruner on the first iteration, when the
                // cloud tracking actually renders is known — in async
                // mode the per-frame clone only exists once tracking
                // starts, and initialCount (the permanent denominator
                // of the global prune cap) must come from it, not from
                // the previous frame's clone.
                if (ctx.iteration == 0)
                    pruner_.beginFrame(system_->trackingCloud());
                // Reuse this iteration's gradients and tile bins. The
                // pruner mutates the cloud tracking renders against:
                // the authoritative cloud in sync mode, the per-frame
                // COW clone in async mode. On removal the compaction is
                // mirrored either directly into the mapping optimiser
                // (sync) or deferred through an id-translated prune
                // request the next map job applies (async; the
                // callback runs before the clone is compacted, so the
                // keep mask still indexes the clone's current ids).
                pruner_.onIteration(
                    system_->trackingCloud(), ctx.backward->grads,
                    ctx.forward->bins,
                    [this](const std::vector<u8> &keep) {
                        if (system_->asyncMapping())
                            system_->requestTrackingPrune(keep);
                        else
                            system_->mapper().remapOptimizer(keep);
                        taming_.remap(keep);
                    });
            } else if (config_.pruneMethod == PruneMethod::Taming) {
                taming_.observe(ctx.backward->grads);
            }
        });
}

void
RtgsSlam::applyTamingPrune()
{
    // Taming prunes on its (noisy, under-warmed) trend scores with a
    // fixed per-frame slice up to the same global cap. The scorer
    // observed the tracking-side cloud, so the mask is computed and
    // applied there; async mode forwards it to the authoritative map
    // as an id-translated prune request.
    auto &cloud = system_->trackingCloud();
    if (tamingInitial_ == 0)
        tamingInitial_ = cloud.size();
    double cap = config_.tamingMaxPruneRatio;
    double current = tamingInitial_
        ? static_cast<double>(tamingPruned_) /
          static_cast<double>(tamingInitial_)
        : 0.0;
    if (current >= cap || cloud.size() <= 64)
        return;

    // The scorer saw the cloud as it was during tracking; densification
    // on keyframes (or every frame, SplaTAM-like) may have grown it
    // since. Grown entries get zero trend score — they have shown no
    // gradient evidence yet — and keepMaskFromScores' floor keeps the
    // prune slice bounded regardless.
    std::vector<Real> scores = taming_.scores();
    scores.resize(cloud.size(), 0);
    std::vector<u8> keep = keepMaskFromScores(
        scores, config_.tamingFramePruneFraction, 64);
    size_t removed = 0;
    for (u8 k : keep)
        removed += k ? 0 : 1;
    if (removed > 0) {
        if (system_->asyncMapping())
            system_->requestTrackingPrune(keep); // needs pre-compact ids
        cloud.compact(keep);
        if (!system_->asyncMapping())
            system_->mapper().remapOptimizer(keep);
        taming_.remap(keep);
        tamingPruned_ += removed;
    }
}

RtgsFrameReport
RtgsSlam::processFrame(const data::Frame &frame)
{
    RtgsFrameReport report;

    // Stage: keyframe prediction. RTGS decides keyframe status *before*
    // tracking so downsampling can reuse it (Sec. 4.2 reuses the
    // keyframe identification step).
    bool predicted_kf = system_->predictKeyframe(frame);
    report.predictedKeyframe = predicted_kf;

    // SplaTAM-like bases map every frame; the paper applies the RTGS
    // techniques to the tracking iterations of each frame there
    // (Sec. 6.1). Tracking runs downsampled and pruned while mapping
    // keeps the native resolution.
    bool every_frame_base =
        config_.base.algorithm == slam::BaseAlgorithm::SplaTam;
    bool treat_as_keyframe = predicted_kf && !every_frame_base;

    // Stage: similarity gate. Scales this frame's iteration budgets
    // from inter-frame similarity + the last frame's workload counters.
    // Photo-SLAM's geometric (ICP) tracking backend has no rendering
    // iterations to gate, and its keyframe-based mapping is ungated
    // too — skip even the probe work for that profile.
    bool gate_tracking =
        config_.base.algorithm != slam::BaseAlgorithm::PhotoSlam;
    if (gate_tracking) {
        report.gate = gate_.evaluate(
            frame.rgb, haveLastWorkload_ ? &lastWorkload_ : nullptr);
    }
    slam::FrameBudget budget;
    bool use_budget = false;
    if (report.gate.gated && frame.index > 0 && gate_tracking) {
        // Tracking is gated on every frame (a near-static keyframe's
        // pose is as cheap to refine as any other frame's), but
        // keyframes of keyframe-based profiles keep a more conservative
        // floor: the map is built from their poses. Every-frame bases
        // gate both stages, matching the paper's per-frame treatment.
        if (!treat_as_keyframe) {
            budget.trackIterations = report.gate.scaleIterations(
                config_.base.tracker.iterations,
                config_.gate.minIterations);
            use_budget = true;
        } else {
            budget.trackIterations = report.gate.scaleIterations(
                config_.base.tracker.iterations,
                std::max(config_.gate.minIterations,
                         config_.base.tracker.iterations / 2));
            use_budget = true;
        }
        if (every_frame_base) {
            budget.mapIterations = report.gate.scaleIterations(
                config_.base.mapper.iterations,
                config_.gate.minIterations);
            use_budget = true;
        }
    }

    Real scale = Real(1);
    if (config_.enableDownsampling) {
        scale = downsampler_.nextScale(treat_as_keyframe,
                                       frame.rgb.width());
    }
    report.trackingScale = scale;

    // Adaptive pruning runs during tracking iterations only; mapping
    // stages re-densify and would fight the mask otherwise.
    // The Rtgs pruner is armed from the track hook's first iteration
    // (it needs the cloud tracking actually renders, which in async
    // mode is only cloned once tracking starts).
    pruneThisFrame_ = config_.enablePruning && !treat_as_keyframe &&
                      frame.index > 0;

    report.base = system_->processFrame(frame, scale, &predicted_kf,
                                        use_budget ? &budget : nullptr);
    // Claim skipped iterations only when rendering-based tracking
    // actually ran under the reduced budget (the health monitor's
    // recovery boost overrides the gate, so a boosted frame skipped
    // nothing).
    if (budget.trackIterations > 0 &&
        budget.trackIterations < config_.base.tracker.iterations &&
        report.base.trackIterations > 0 && !report.base.budgetBoosted) {
        report.gatedTrackIterations =
            config_.base.tracker.iterations - budget.trackIterations;
    }

    if (pruneThisFrame_ && config_.pruneMethod == PruneMethod::Taming)
        applyTamingPrune();
    pruneThisFrame_ = false;

    report.prunedTotal = pruner_.stats().prunedTotal;
    report.maskedNow = pruner_.stats().masked;
    reports_.push_back(report);
    return report;
}

} // namespace rtgs::core
