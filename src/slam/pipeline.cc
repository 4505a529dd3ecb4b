#include "slam/pipeline.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "image/metrics.hh"

namespace rtgs::slam
{

namespace
{

/** Solve the 6x6 system H x = b with partial-pivot Gaussian elimination. */
bool
solve6(double h[6][6], double b[6], double x[6])
{
    for (int col = 0; col < 6; ++col) {
        int best = col;
        for (int r = col + 1; r < 6; ++r)
            if (std::abs(h[r][col]) > std::abs(h[best][col]))
                best = r;
        if (std::abs(h[best][col]) < 1e-12)
            return false;
        if (best != col) {
            for (int c = 0; c < 6; ++c)
                std::swap(h[col][c], h[best][c]);
            std::swap(b[col], b[best]);
        }
        for (int r = col + 1; r < 6; ++r) {
            double f = h[r][col] / h[col][col];
            for (int c = col; c < 6; ++c)
                h[r][c] -= f * h[col][c];
            b[r] -= f * b[col];
        }
    }
    for (int r = 5; r >= 0; --r) {
        double acc = b[r];
        for (int c = r + 1; c < 6; ++c)
            acc -= h[r][c] * x[c];
        x[r] = acc / h[r][r];
    }
    return true;
}

} // namespace

const char *
algorithmName(BaseAlgorithm algo)
{
    switch (algo) {
      case BaseAlgorithm::GsSlam: return "GS-SLAM";
      case BaseAlgorithm::MonoGs: return "MonoGS";
      case BaseAlgorithm::PhotoSlam: return "Photo-SLAM";
      case BaseAlgorithm::SplaTam: return "SplaTAM";
    }
    return "unknown";
}

SlamConfig
SlamConfig::forAlgorithm(BaseAlgorithm algo)
{
    SlamConfig cfg;
    cfg.algorithm = algo;
    switch (algo) {
      case BaseAlgorithm::GsSlam:
        // Scene-change keyframing, moderate map density.
        cfg.mapper.densifyStride = 5;
        break;
      case BaseAlgorithm::MonoGs:
        // Fixed-interval keyframes; denser maps for detail recovery
        // (Sec. 2.3: MonoGS uses more Gaussians).
        cfg.kfInterval = 8;
        cfg.mapper.densifyStride = 3;
        break;
      case BaseAlgorithm::PhotoSlam:
        // Classical geometric tracking; hybrid design keeps the map
        // lean (Sec. 2.3: acceptable storage). Dense ICP sampling and
        // extra iterations buy noise robustness.
        cfg.mapper.densifyStride = 6;
        cfg.mapper.iterations = 12;
        cfg.icpStride = 2;
        cfg.icpIterations = 8;
        break;
      case BaseAlgorithm::SplaTam:
        // Per-frame mapping, no keyframe selection; fewer iterations
        // per stage since both run on every frame.
        cfg.tracker.iterations = 10;
        cfg.mapper.iterations = 10;
        cfg.mapper.windowSize = 2;
        cfg.mapper.densifyStride = 5;
        break;
    }
    return cfg;
}

SlamSystem::SlamSystem(const SlamConfig &config,
                       const Intrinsics &intrinsics)
    : config_(config), intrinsics_(intrinsics),
      tracker_(config.tracker), mapper_(config.mapper)
{
    gs::RenderSettings settings;
    settings.background = {0.03f, 0.03f, 0.05f};
    pipeline_ = gs::RenderPipeline(settings);

    switch (config.algorithm) {
      case BaseAlgorithm::GsSlam:
        keyframePolicy_ = std::make_unique<PoseDistanceKeyframePolicy>(
            config.kfTranslationThreshold, config.kfRotationThreshold);
        break;
      case BaseAlgorithm::MonoGs:
        keyframePolicy_ =
            std::make_unique<IntervalKeyframePolicy>(config.kfInterval);
        break;
      case BaseAlgorithm::PhotoSlam:
        keyframePolicy_ = std::make_unique<PhotometricKeyframePolicy>(
            config.kfPhotometricRmse);
        break;
      case BaseAlgorithm::SplaTam:
        keyframePolicy_ = std::make_unique<EveryFrameKeyframePolicy>();
        break;
    }

    if (config.mapQueueDepth > 0) {
        // Evicted jobs never run; mark their report rows so drops are
        // accounted instead of silently reading as unmapped keyframes.
        MapWorker::DropFn on_drop = [this](MapJob &job) {
            MutexLock lock(reportMutex_);
            rtgs_assert(job.reportIndex < reports_.size());
            reports_[job.reportIndex].mapJobDropped = true;
        };
        mapWorker_ = std::make_unique<MapWorker>(
            config.mapQueueDepth, [this](MapJob &job) { runMapJob(job); },
            config.mapOverflowPolicy, std::move(on_drop),
            config.mapExecutor);
    }

    if (config.health.enabled)
        health_ = std::make_unique<HealthMonitor>(config.health);
    if (config.reloc.enabled) {
        if (!config.health.enabled) {
            warn("relocalizer enabled without the health monitor; it "
                 "can never engage (no LOST state) and stays off");
        } else {
            reloc_ = std::make_unique<Relocalizer>(config.reloc);
        }
    }
}

void
SlamSystem::waitForMapping()
{
    if (!mapWorker_)
        return;
    mapWorker_->drain();
    // Prunes requested after the last map job have no job left to
    // carry them; fold them in now so cloud() honours every tracking
    // decision once this returns.
    if (pendingPruneCount() > 0) {
        MutexLock lock(stateMutex_);
        applyPendingPrunesLocked();
        // Publish even when the translation dropped nothing: apply
        // marked the requests as applied-in the next generation, and
        // that generation must exist for clone refreshes to garbage-
        // collect them (a COW publish costs refcount bumps).
        publishSnapshotLocked(lastPublishedFrame_);
    }
}

gs::GaussianCloud &
SlamSystem::trackingCloud()
{
    return mapWorker_ ? trackCloud_ : syncCloud();
}

const gs::GaussianCloud &
SlamSystem::trackingCloud() const
{
    return mapWorker_ ? trackCloud_ : syncCloud();
}

void
SlamSystem::requestTrackingPrune(const std::vector<u8> &keep)
{
    rtgs_assert(mapWorker_ != nullptr);
    rtgs_assert(keep.size() == trackCloud_.size());
    PendingPrune prune;
    const auto &ids = trackCloud_.ids.view();
    for (size_t k = 0; k < keep.size(); ++k)
        if (!keep[k])
            prune.ids.push_back(ids[k]); // ascending: ids are sorted
    if (prune.ids.empty())
        return;
    MutexLock lock(pruneMutex_);
    pendingPrunes_.push_back(std::move(prune));
}

size_t
SlamSystem::pendingPruneCount() const
{
    MutexLock lock(pruneMutex_);
    size_t n = 0;
    for (const PendingPrune &p : pendingPrunes_)
        n += p.appliedInGeneration == 0 ? 1 : 0;
    return n;
}

void
SlamSystem::setRenderPool(ThreadPool *pool)
{
    pipeline_.setPool(pool);
}

void
SlamSystem::rebindFrameLoopThread()
{
    if (health_)
        health_->rebindThread();
    if (reloc_)
        reloc_->rebindThread();
}

bool
SlamSystem::applyPendingPrunesLocked()
{
    std::vector<u64> dropped;
    {
        MutexLock lock(pruneMutex_);
        for (PendingPrune &p : pendingPrunes_) {
            if (p.appliedInGeneration != 0)
                continue;
            dropped.insert(dropped.end(), p.ids.begin(), p.ids.end());
            // The generation this job/flush publishes next; clone
            // refreshes garbage-collect the entry once a snapshot of at
            // least that generation is visible.
            p.appliedInGeneration = mapGeneration_ + 1;
        }
    }
    if (dropped.empty())
        return false;
    std::sort(dropped.begin(), dropped.end());
    std::vector<u8> keep = cloud_.translateKeepMask(dropped);
    size_t removed = 0;
    for (u8 k : keep)
        removed += k ? 0 : 1;
    if (removed == 0)
        return false;
    cloud_.compact(keep);
    mapper_.remapOptimizer(keep);
    return true;
}

double
SlamSystem::publishSnapshotLocked(u32 last_mapped_frame)
{
    Stopwatch watch;
    auto snapshot = std::make_shared<TrackingSnapshot>();
    snapshot->cloud = cloud_; // COW: one refcount bump per column
    snapshot->generation = ++mapGeneration_;
    snapshot->lastMappedFrame = last_mapped_frame;
    lastPublishedFrame_ = last_mapped_frame;
    {
        MutexLock snap(snapshotMutex_);
        trackingSnapshot_ = std::move(snapshot);
    }
    return watch.seconds();
}

void
SlamSystem::setTrackIterationHook(TrackIterationHook hook)
{
    trackHook_ = std::move(hook);
}

void
SlamSystem::setMapIterationHook(MapIterationHook hook)
{
    mapHook_ = std::move(hook);
}

SE3
SlamSystem::constantVelocityGuess() const
{
    size_t n = trajectory_.size();
    if (n == 0)
        return SE3::identity();
    // Right after an accepted relocalization the previous-to-last pose
    // is pre-discontinuity: extrapolating across the correction would
    // throw the guess far off. Assume zero velocity for that one frame.
    if (n == 1 || n - 1 == velocityResetIndex_)
        return trajectory_[n - 1];
    // delta maps pose[n-2] to pose[n-1]; apply it once more.
    SE3 delta = trajectory_[n - 1] * trajectory_[n - 2].inverse();
    SE3 guess = delta * trajectory_[n - 1];
    // inverse() transposes the rotation, which is only its inverse on
    // SO(3): R[n-1] R[n-2]^T R[n-1] amplifies any loss of
    // orthonormality ~(1 + sqrt 2)x per frame until the poses blow up.
    // Project the prediction back onto SO(3).
    guess.rot = expSo3(logSo3(guess.rot));
    return guess;
}

SE3
SlamSystem::geometricTrack(const data::Frame &frame,
                           const SE3 &init) const
{
    if (prevDepth_.empty())
        return init;

    SE3 cam_to_world = init.inverse();
    SE3 prev_cam_to_world = prevPose_.inverse();
    u32 stride = std::max<u32>(1, config_.icpStride);

    // Sensor depth noise would make finite-difference normals useless;
    // smooth the reference depth with a small box filter over valid
    // pixels first (standard practice for normal estimation).
    ImageF smooth(prevDepth_.width(), prevDepth_.height());
    for (u32 y = 0; y < smooth.height(); ++y) {
        for (u32 x = 0; x < smooth.width(); ++x) {
            Real acc = 0;
            u32 n = 0;
            for (i32 dy = -1; dy <= 1; ++dy) {
                for (i32 dx = -1; dx <= 1; ++dx) {
                    i32 sx = static_cast<i32>(x) + dx;
                    i32 sy = static_cast<i32>(y) + dy;
                    if (sx < 0 || sy < 0 ||
                        sx >= static_cast<i32>(smooth.width()) ||
                        sy >= static_cast<i32>(smooth.height())) {
                        continue;
                    }
                    Real d = prevDepth_.at(static_cast<u32>(sx),
                                           static_cast<u32>(sy));
                    if (d > 0) {
                        acc += d;
                        ++n;
                    }
                }
            }
            smooth.at(x, y) = n >= 5 ? acc / static_cast<Real>(n)
                                     : Real(0);
        }
    }

    // Surface normals of the previous depth map (world frame), for
    // point-to-plane residuals; point-to-point slides on the planar
    // surfaces that dominate indoor scenes.
    auto prev_point = [&](i32 x, i32 y) -> Vec3f {
        Real d = smooth.at(static_cast<u32>(x), static_cast<u32>(y));
        return intrinsics_.unproject({static_cast<Real>(x) + Real(0.5),
                                      static_cast<Real>(y) + Real(0.5)},
                                     d);
    };

    for (u32 iter = 0; iter < config_.icpIterations; ++iter) {
        double h[6][6] = {};
        double b[6] = {};
        size_t pairs = 0;

        for (u32 y = stride / 2; y < frame.depth.height(); y += stride) {
            for (u32 x = stride / 2; x < frame.depth.width(); x += stride) {
                Real d = frame.depth.at(x, y);
                if (d <= 0)
                    continue;
                Vec3f p_cam = intrinsics_.unproject(
                    {static_cast<Real>(x) + Real(0.5),
                     static_cast<Real>(y) + Real(0.5)}, d);
                Vec3f p_world = cam_to_world.apply(p_cam);

                // Projective association into the previous frame.
                Vec3f q_cam = prevPose_.apply(p_world);
                if (q_cam.z <= Real(0.05))
                    continue;
                Vec2f px = intrinsics_.project(q_cam);
                i32 qx = static_cast<i32>(px.x);
                i32 qy = static_cast<i32>(px.y);
                // Normals need a wide finite-difference baseline to be
                // robust against sensor depth noise.
                const i32 nb = 3;
                if (qx < nb || qy < nb ||
                    qx + nb >= static_cast<i32>(smooth.width()) ||
                    qy + nb >= static_cast<i32>(smooth.height())) {
                    continue;
                }
                Real dq = smooth.at(static_cast<u32>(qx),
                                    static_cast<u32>(qy));
                Real dqx = smooth.at(static_cast<u32>(qx + nb),
                                     static_cast<u32>(qy));
                Real dqy = smooth.at(static_cast<u32>(qx),
                                     static_cast<u32>(qy + nb));
                if (dq <= 0 || dqx <= 0 || dqy <= 0)
                    continue;
                // Reject normals that straddle a depth discontinuity.
                if (std::abs(dqx - dq) > Real(0.15) * dq ||
                    std::abs(dqy - dq) > Real(0.15) * dq) {
                    continue;
                }

                Vec3f q0 = prev_point(qx, qy);
                Vec3f qx1 = prev_point(qx + nb, qy);
                Vec3f qy1 = prev_point(qx, qy + nb);
                Vec3f n_cam = (qx1 - q0).cross(qy1 - q0);
                Real n_len = n_cam.norm();
                if (n_len < Real(1e-9))
                    continue;
                n_cam = n_cam / n_len;

                Vec3f q_world = prev_cam_to_world.apply(q0);
                Vec3f n_world = prev_cam_to_world.rot * n_cam;

                // Point-to-plane residual with a Cauchy robust weight:
                // sensor depth noise grows with range, so large
                // residuals are down-weighted rather than trusted.
                Real r = n_world.dot(p_world - q_world);
                if (std::abs(r) > Real(0.3))
                    continue; // hard outlier gate
                Real k = Real(0.05) * std::max(Real(1), dq);
                Real w = 1 / (1 + (r / k) * (r / k));

                // d(p_world)/d(xi) = [I | -[p_world]x]; project onto n.
                Vec3f cr = p_world.cross(n_world);
                Real jac[6] = {n_world.x, n_world.y, n_world.z,
                               cr.x, cr.y, cr.z};
                for (int ci = 0; ci < 6; ++ci) {
                    b[ci] += w * jac[ci] * r;
                    for (int cj = ci; cj < 6; ++cj)
                        h[ci][cj] += w * jac[ci] * jac[cj];
                }
                ++pairs;
            }
        }
        if (pairs < 12)
            break;
        for (int ci = 0; ci < 6; ++ci) {
            for (int cj = 0; cj < ci; ++cj)
                h[ci][cj] = h[cj][ci];
            h[ci][ci] += 1e-6; // Levenberg damping
        }
        double x[6];
        if (!solve6(h, b, x))
            break;
        Twist step{{static_cast<Real>(-x[0]), static_cast<Real>(-x[1]),
                    static_cast<Real>(-x[2])},
                   {static_cast<Real>(-x[3]), static_cast<Real>(-x[4]),
                    static_cast<Real>(-x[5])}};
        cam_to_world = cam_to_world.retract(step);
        if (step.norm() < Real(1e-6))
            break;
    }
    return cam_to_world.inverse();
}

bool
SlamSystem::decideKeyframe(const KeyframeQuery &query)
{
    return query.frameIndex == 0 || keyframePolicy_->isKeyframe(query);
}

bool
SlamSystem::predictKeyframe(const data::Frame &frame) const
{
    if (!bootstrapped_)
        return true;
    KeyframeQuery query;
    query.frameIndex = frame.index;
    query.lastKeyframeIndex = lastKeyframeIndex_;
    query.currentPose = constantVelocityGuess();
    query.lastKeyframePose = lastKeyframePose_;
    query.currentImage = &frame.rgb;
    query.lastKeyframeImage =
        lastKeyframeImage_.empty() ? nullptr : &lastKeyframeImage_;
    // The policy objects are stateless; const_cast avoids duplicating
    // the decision path for the prediction-only call.
    auto *policy = const_cast<KeyframePolicy *>(keyframePolicy_.get());
    return policy->isKeyframe(query);
}

SE3
SlamSystem::stageTrack(const data::Frame &frame, Real tracking_scale,
                       const FrameBudget *budget, FrameReport &report,
                       bool ignore_depth, const SE3 *init_override,
                       Tracker *tracker_override)
{
    if (!bootstrapped_) {
        // Frame 0 anchors the world frame (standard SLAM convention).
        bootstrapped_ = true;
        return frame.gtPose;
    }

    SE3 guess = init_override ? *init_override : constantVelocityGuess();
    StageProfiler::Scope scope(profiler_, "tracking");
    Stopwatch watch;
    SE3 pose;
    if (config_.algorithm == BaseAlgorithm::PhotoSlam) {
        // Classical geometric backend: needs only the previous frame's
        // depth, so it never touches the (possibly in-flight) map.
        pose = geometricTrack(frame, guess);
    } else {
        PreprocessedObservation obs =
            preprocessObservation(frame, intrinsics_, tracking_scale);
        u32 track_budget = budget ? budget->trackIterations : 0;
        bool allow_exceed = budget && budget->allowExceed;
        // Health-detected depth dropout: track RGB-only rather than
        // against a blanked sensor.
        const ImageF *depth = ignore_depth ? nullptr : &obs.depth();
        Tracker &tracker = tracker_override ? *tracker_override : tracker_;
        TrackResult tr;
        if (mapWorker_) {
            // Async mode: render against a copy-on-write clone of the
            // latest published snapshot (O(columns), no cloud copy) so
            // the map stage can mutate the authoritative cloud
            // concurrently. The clone is mutable on purpose: the RTGS
            // pruning hook masks/compacts it mid-frame exactly as it
            // would the authoritative cloud in sync mode.
            refreshTrackingClone(frame, report);
            tr = tracker.track(pipeline_, trackCloud_, obs.intr, guess,
                               obs.rgb(), depth, trackHook_,
                               track_budget, allow_exceed);
        } else {
            tr = tracker.track(pipeline_, syncCloud(), obs.intr, guess,
                               obs.rgb(), depth, trackHook_,
                               track_budget, allow_exceed);
        }
        pose = tr.pose;
        report.trackLoss = tr.finalLoss;
        report.trackIterations = tr.iterationsRun;
        report.trackFragments = tr.totalFragments;
    }
    report.trackSeconds = watch.seconds();
    return pose;
}

bool
SlamSystem::stageKeyframeDecision(const data::Frame &frame,
                                  const SE3 &pose,
                                  const bool *force_keyframe)
{
    if (force_keyframe)
        return frame.index == 0 || *force_keyframe;

    // Keyframe decision uses the tracked pose and current image.
    KeyframeQuery query;
    query.frameIndex = frame.index;
    query.lastKeyframeIndex = lastKeyframeIndex_;
    query.currentPose = pose;
    query.lastKeyframePose = lastKeyframePose_;
    query.currentImage = &frame.rgb;
    query.lastKeyframeImage =
        lastKeyframeImage_.empty() ? nullptr : &lastKeyframeImage_;
    return decideKeyframe(query);
}

void
SlamSystem::stageEnqueueMap(const data::Frame &frame, const SE3 &pose,
                            const FrameBudget *budget,
                            size_t report_index)
{
    // Caller-side keyframe state is recorded at enqueue time, so the
    // keyframe policy sees the same history in both modes.
    lastKeyframeIndex_ = frame.index;
    lastKeyframeImage_ = frame.rgb;
    lastKeyframePose_ = pose;

    MapJob job;
    job.record = KeyframeRecord{frame.index, pose, frame.rgb, frame.depth};
    job.mapIterationBudget = budget ? budget->mapIterations : 0;
    job.reportIndex = report_index;
    if (mapWorker_)
        mapWorker_->enqueue(std::move(job));
    else
        runMapJob(job);
}

void
SlamSystem::runMapJob(MapJob &job)
{
    Stopwatch watch;
    StageProfiler::Scope scope(profiler_, "mapping");

    const u32 frame_index = job.record.frameIndex;
    MapBatchItem item;
    item.record = std::move(job.record);
    item.iterationBudget = job.mapIterationBudget;
    size_t count, bytes;
    double publish_seconds = 0;
    u64 generation = 0;
    {
        MutexLock lock(stateMutex_);
        // Fold tracking-side prune decisions in first so this job
        // optimises the cloud the tracker actually kept.
        applyPendingPrunesLocked();
        mapper_.mapBatch(pipeline_, cloud_, intrinsics_, item, mapHook_);

        count = cloud_.size();
        bytes = cloud_.parameterBytes();
        peakBytes_ = std::max(peakBytes_, bytes);

        // Async mode publishes an immutable snapshot generation — a
        // refcount bump per column, not a cloud copy — so later frames
        // track against the newest *completed* map without waiting on
        // an in-flight job. (config_, not mapWorker_: the worker may be
        // mid-destruction while it drains its last jobs.)
        if (config_.mapQueueDepth > 0) {
            publish_seconds = publishSnapshotLocked(frame_index);
            generation = mapGeneration_;
        }
    }
    double seconds = watch.seconds();

    MutexLock lock(reportMutex_);
    rtgs_assert(job.reportIndex < reports_.size());
    FrameReport &row = reports_[job.reportIndex];
    row.densified = item.densified;
    row.mapLoss = item.mapLoss;
    row.mapMultiViews = item.multiViews;
    row.mapSeconds = seconds;
    row.gaussianCount = count;
    row.gaussianBytes = bytes;
    row.publishedGeneration = generation;
    row.snapshotPublishSeconds = publish_seconds;
}

std::shared_ptr<const TrackingSnapshot>
SlamSystem::snapshotCloud()
{
    {
        MutexLock lock(snapshotMutex_);
        if (trackingSnapshot_ && !trackingSnapshot_->cloud.empty())
            return trackingSnapshot_;
    }
    // Bootstrap: the first keyframe's mapping may still be queued or in
    // flight; never track against an empty map when one is on the way.
    // waitForMapping() runs a queued job on this thread if needed.
    waitForMapping();
    MutexLock lock(snapshotMutex_);
    if (!trackingSnapshot_)
        trackingSnapshot_ = std::make_shared<const TrackingSnapshot>();
    return trackingSnapshot_;
}

void
SlamSystem::refreshTrackingClone(const data::Frame &frame,
                                 FrameReport &report)
{
    std::shared_ptr<const TrackingSnapshot> snap = snapshotCloud();
    if (snap->generation == trackCloneGeneration_) {
        // No new publication since the last clone: the current clone
        // already carries every tracking-side prune and mask, so
        // re-deriving it (and re-materialising columns) is redundant.
        report.snapshotGeneration = snap->generation;
        report.snapshotStaleFrames =
            frame.index > snap->lastMappedFrame
                ? frame.index - snap->lastMappedFrame
                : 0;
        return;
    }

    // Tracking-side mask state (the RTGS pruner's grace-interval masks)
    // lives only in the clone's active column; collect it before the
    // refresh so it persists across frames by stable id, exactly as a
    // mask persists in the authoritative cloud in sync mode. The scan
    // is a byte pass and masked_prev is empty whenever pruning is off.
    std::vector<u64> masked_prev;
    {
        const auto &act = trackCloud_.active.view();
        const auto &ids = trackCloud_.ids.view();
        for (size_t k = 0; k < act.size(); ++k)
            if (!act[k])
                masked_prev.push_back(ids[k]); // ascending
    }

    trackCloud_ = snap->cloud; // COW: one refcount bump per column
    trackCloneGeneration_ = snap->generation;

    // Filter out entries the tracker already pruned but no map job
    // has absorbed yet, and garbage-collect requests that a published
    // generation has since made permanent.
    std::vector<u64> dropped;
    {
        MutexLock lock(pruneMutex_);
        auto alive = pendingPrunes_.begin();
        for (auto it = pendingPrunes_.begin();
             it != pendingPrunes_.end(); ++it) {
            if (it->appliedInGeneration != 0 &&
                snap->generation >= it->appliedInGeneration) {
                continue; // this snapshot already lacks those ids
            }
            dropped.insert(dropped.end(), it->ids.begin(),
                           it->ids.end());
            if (alive != it)
                *alive = std::move(*it);
            ++alive;
        }
        pendingPrunes_.erase(alive, pendingPrunes_.end());
    }
    if (!dropped.empty()) {
        std::sort(dropped.begin(), dropped.end());
        // Pending ids the map already removed translate to an all-ones
        // mask; compact() early-outs on those without re-materialising.
        trackCloud_.compact(trackCloud_.translateKeepMask(dropped));
    }

    if (!masked_prev.empty()) {
        // Re-apply surviving masks (ids the map has since pruned
        // simply don't match and stay kept in the translated mask).
        std::vector<u8> unmasked =
            trackCloud_.translateKeepMask(masked_prev);
        if (std::find(unmasked.begin(), unmasked.end(), u8(0)) !=
            unmasked.end()) {
            auto &act = trackCloud_.active.mut();
            for (size_t k = 0; k < unmasked.size(); ++k)
                if (!unmasked[k])
                    act[k] = 0;
        }
    }

    report.snapshotGeneration = snap->generation;
    report.snapshotStaleFrames =
        frame.index > snap->lastMappedFrame
            ? frame.index - snap->lastMappedFrame
            : 0;
}

void
SlamSystem::fillMapFootprint(FrameReport &report)
{
    if (!mapWorker_) {
        // Sync mode: the frame loop is the only mutator, so taking the
        // state lock here is uncontended and keeps the guarded reads
        // honest under the thread-safety analysis.
        MutexLock lock(stateMutex_);
        report.gaussianCount = cloud_.size();
        report.gaussianBytes = cloud_.parameterBytes();
        peakBytes_ = std::max(peakBytes_, report.gaussianBytes);
    } else {
        // Async: never touch stateMutex_ from the frame loop (an
        // in-flight job holds it for its whole duration). Report the
        // latest *published* map's footprint; keyframe rows get their
        // exact post-map numbers from the worker, and the worker also
        // maintains the peak.
        std::shared_ptr<const TrackingSnapshot> snap;
        {
            MutexLock lock(snapshotMutex_);
            snap = trackingSnapshot_;
        }
        if (snap) {
            report.gaussianCount = snap->cloud.size();
            report.gaussianBytes = snap->cloud.parameterBytes();
        }
    }
}

FrameReport
SlamSystem::rejectFrame(FrameReport &report)
{
    // The frame never reaches tracking: hold the constant-velocity
    // prediction so the trajectory stays aligned with the stream, and
    // leave the previous-frame tracking state (prevDepth_/prevPose_)
    // untouched so the next accepted frame associates against trusted
    // data.
    report.inputRejected = true;
    report.poseHeld = bootstrapped_;
    SE3 pose = bootstrapped_ ? constantVelocityGuess() : SE3::identity();
    report.pose = pose;
    report.healthState = health_->state();
    report.framesSinceHealthy = health_->framesSinceHealthy();
    report.framesLost = health_->framesLost();
    trajectory_.push_back(pose);
    fillMapFootprint(report);
    MutexLock lock(reportMutex_);
    reports_.push_back(report);
    return report;
}

double
SlamSystem::probePsnr(const data::Frame &frame, const SE3 &pose)
{
    // Pick a readable map without touching stateMutex_ (an in-flight
    // async job may hold it for seconds): the frame loop's tracking
    // clone when it exists, else the newest published snapshot (the
    // geometric backend never clones), else the authoritative cloud in
    // sync mode, where the frame loop is the only mutator.
    std::shared_ptr<const TrackingSnapshot> snap;
    const gs::GaussianCloud *cloud = &syncCloud();
    if (mapWorker_) {
        if (!trackCloud_.empty()) {
            cloud = &trackCloud_;
        } else {
            {
                MutexLock lock(snapshotMutex_);
                snap = trackingSnapshot_;
            }
            if (!snap)
                return -1;
            cloud = &snap->cloud;
        }
    }
    if (cloud->empty())
        return -1;

    Real scale = std::min(
        Real(1),
        static_cast<Real>(config_.health.probeWidth) /
            static_cast<Real>(std::max<u32>(1, frame.rgb.width())));
    PreprocessedObservation obs =
        preprocessObservation(frame, intrinsics_, scale);
    Camera cam(obs.intr, pose);
    gs::ForwardContext ctx = pipeline_.forward(*cloud, cam);
    double db = psnr(ctx.result.image, obs.rgb());
    return std::isfinite(db) ? db : 99.0; // identical probes: cap
}

bool
SlamSystem::stageRelocalize(const data::Frame &frame,
                            Real tracking_scale, FrameReport &report,
                            SE3 &pose_out)
{
    StageProfiler::Scope scope(profiler_, "relocalize");
    // Score against what tracking would render against: the COW clone
    // of the newest published snapshot in async mode (refreshing it
    // here never blocks an in-flight map job), the authoritative
    // cloud in sync mode where the frame loop is the only mutator.
    if (mapWorker_)
        refreshTrackingClone(frame, report);
    const gs::GaussianCloud &cloud = trackingCloud();
    if (cloud.empty())
        return false; // nothing to search against yet; retry next frame

    // One downsampled observation shared by every candidate render.
    Real scale = std::min(
        Real(1),
        static_cast<Real>(config_.reloc.probeWidth) /
            static_cast<Real>(std::max<u32>(1, frame.rgb.width())));
    PreprocessedObservation obs =
        preprocessObservation(frame, intrinsics_, scale);
    auto score = [&](const SE3 &p) {
        Camera cam(obs.intr, p);
        gs::ForwardContext ctx = pipeline_.forward(cloud, cam);
        double db = psnr(ctx.result.image, obs.rgb());
        return std::isfinite(db) ? db : 99.0; // identical probes: cap
    };

    report.relocAttempts = 1;
    RelocSearchResult found =
        reloc_->search(frame.index, reloc_->makeProbe(frame.rgb), score);
    report.relocCandidatesScored = found.candidatesScored;
    if (!found.hasCandidate) {
        reloc_->noteOutcome(frame.index, false);
        return false;
    }

    // Refinement burst: full tracking from the best candidate with a
    // boosted iteration budget (the recovery boost's bigger sibling).
    FrameBudget burst;
    burst.trackIterations = std::max(
        config_.tracker.iterations + 1,
        static_cast<u32>(
            std::ceil(static_cast<Real>(config_.tracker.iterations) *
                      std::max(Real(1),
                               config_.reloc.refineBoostFactor))));
    burst.allowExceed = true;
    report.budgetBoosted = true;
    report.trackIterationBudget = burst.trackIterations;
    report.mapIterationBudget = 0;
    // Cold-start refinement: the incremental tracker's decayed
    // learning rates bound its total correction to a warm-start-sized
    // step, so the burst runs a dedicated tracker scaled for the
    // multi-keyframe distance a candidate starts from.
    TrackerConfig refine_cfg = config_.tracker;
    refine_cfg.lrTranslation *=
        std::max(Real(1), config_.reloc.refineLrScale);
    refine_cfg.lrRotation *=
        std::max(Real(1), config_.reloc.refineLrScale);
    refine_cfg.lrDecay =
        std::clamp(config_.reloc.refineLrDecay, Real(0.5), Real(1));
    refine_cfg.earlyStop = false;
    Tracker refiner(refine_cfg);
    SE3 refined = stageTrack(frame, tracking_scale, &burst, report,
                             /*ignore_depth=*/false, &found.bestPose,
                             &refiner);

    // Accept only when the refined pose genuinely explains the frame.
    double verify = score(refined);
    report.relocProbePsnr = verify;
    bool accept =
        verify >= static_cast<double>(config_.reloc.acceptPsnrMinDb);
    reloc_->noteOutcome(frame.index, accept);
    if (accept)
        pose_out = refined;
    return accept;
}

FrameReport
SlamSystem::processFrame(const data::Frame &frame, Real tracking_scale,
                         const bool *force_keyframe,
                         const FrameBudget *budget)
{
    rtgs_assert(tracking_scale > 0 && tracking_scale <= 1);
    FrameReport report;
    report.frameIndex = frame.index;
    if (budget) {
        report.trackIterationBudget = budget->trackIterations;
        report.mapIterationBudget = budget->mapIterations;
    }

    // --- tracking-health: input validation + recovery boost. With the
    // monitor disabled (the default) all the health blocks are inert
    // and the frame takes exactly the historical path.
    bool ignore_depth = false;
    bool was_bootstrapped = bootstrapped_;
    FrameBudget boosted;
    if (health_) {
        InputCheck check = health_->checkInput(frame);
        report.inputNan = check.nanPixels;
        report.inputBadTimestamp = check.badTimestamp;
        report.depthIgnored = check.depthInvalid;
        if (check.reject) {
            health_->noteRejected();
            return rejectFrame(report);
        }
        ignore_depth = check.depthInvalid;
        FrameAdvice advice = health_->advise(config_.tracker.iterations);
        if (advice.boostBudget && was_bootstrapped) {
            // Recovery boost overrides the caller's (similarity-gate)
            // budget: a health-flagged frame is never also gated down.
            boosted.trackIterations = advice.trackIterations;
            boosted.allowExceed = true;
            budget = &boosted;
            report.budgetBoosted = true;
            report.trackIterationBudget = boosted.trackIterations;
            report.mapIterationBudget = 0;
        }
    }

    SE3 guess;
    if (health_ && was_bootstrapped)
        guess = constantVelocityGuess();

    // --- relocalization: the final escalation rung. Only reached in
    // the Lost state (and on the backoff schedule), so the clean path
    // never pays for it and never diverges byte-wise.
    bool reloc_attempted = false;
    bool reloc_accepted = false;
    SE3 pose;
    if (reloc_ && health_ && was_bootstrapped &&
        health_->state() == HealthState::Lost &&
        reloc_->shouldAttempt(frame.index)) {
        reloc_attempted = true;
        reloc_accepted =
            stageRelocalize(frame, tracking_scale, report, pose);
    }
    if (!reloc_attempted) {
        pose = stageTrack(frame, tracking_scale, budget, report,
                          ignore_depth);
    } else if (!reloc_accepted) {
        // Rejected attempt: hold the coast pose, exactly like any
        // other suspect frame.
        pose = guess;
    }

    // --- tracking-health: divergence assessment sits between the
    // track stage and the keyframe decision. A relocalization attempt
    // replaces the assessment for its frame: the verdict is the
    // accept/reject decision itself.
    bool kf_override_value = false;
    const bool *kf_override = force_keyframe;
    if (health_ && was_bootstrapped && reloc_attempted) {
        if (reloc_accepted) {
            health_->noteRelocalized();
            report.relocAccepted = true;
            // Re-anchor the map at the relocalized pose immediately,
            // and stop the motion model extrapolating the correction.
            kf_override_value = true;
            kf_override = &kf_override_value;
            report.forcedRecoveryKeyframe = true;
            velocityResetIndex_ = trajectory_.size();
        } else {
            health_->noteRelocalizationFailed();
            report.poseHeld = true;
            kf_override_value = false;
            kf_override = &kf_override_value;
        }
        report.healthState = health_->state();
        report.framesSinceHealthy = health_->framesSinceHealthy();
    } else if (health_ && was_bootstrapped) {
        AssessInput in;
        in.trackLoss = report.trackLoss;
        in.haveLoss = config_.algorithm != BaseAlgorithm::PhotoSlam;
        in.trackedPose = pose;
        in.predictedPose = guess;
        if (config_.health.probeConfirm) {
            in.probePsnr = [this, &frame, &pose] {
                return probePsnr(frame, pose);
            };
        }
        Assessment verdict = health_->assess(in);
        report.probePsnrDb = verdict.probePsnrDb;
        report.healthState = verdict.state;
        report.framesSinceHealthy = health_->framesSinceHealthy();
        if (verdict.holdPose) {
            pose = guess;
            report.poseHeld = true;
        }
        // Health overrides the caller's keyframe request: a suspect
        // frame must never anchor the map, and the recovery re-anchor
        // must happen even where the policy would decline.
        if (verdict.suppressKeyframe) {
            kf_override_value = false;
            kf_override = &kf_override_value;
        } else if (verdict.forceKeyframe) {
            kf_override_value = true;
            kf_override = &kf_override_value;
            report.forcedRecoveryKeyframe = true;
        }
    }
    if (health_)
        report.framesLost = health_->framesLost();

    trajectory_.push_back(pose);

    report.isKeyframe = stageKeyframeDecision(frame, pose, kf_override);
    report.pose = pose;

    // Feed the relocalizer's pose/probe database from the keyframe
    // decision: every accepted keyframe is a future anchor.
    if (reloc_ && report.isKeyframe)
        reloc_->noteKeyframe(frame.index, pose, frame.rgb);

    report.mappedAsync = report.isKeyframe && mapWorker_ != nullptr;

    if (!report.poseHeld) {
        prevDepth_ = frame.depth;
        prevPose_ = pose;
    }

    fillMapFootprint(report);

    size_t report_index;
    {
        MutexLock lock(reportMutex_);
        report_index = reports_.size();
        reports_.push_back(report);
    }
    if (!report.isKeyframe)
        return report;

    // The map job fills this keyframe's row: inline in sync mode, maybe
    // already in async mode. Return the freshest view.
    stageEnqueueMap(frame, pose, budget, report_index);
    MutexLock lock(reportMutex_);
    return reports_[report_index];
}

ImageRGB
SlamSystem::renderView(const SE3 &pose) const
{
    MutexLock lock(stateMutex_);
    Camera cam(intrinsics_, pose);
    gs::ForwardContext ctx = pipeline_.forward(cloud_, cam);
    return ctx.result.image;
}

} // namespace rtgs::slam
