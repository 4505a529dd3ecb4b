/**
 * @file
 * End-to-end SLAM system assembling tracking + mapping with one of the
 * four base-algorithm profiles the paper evaluates (Sec. 2.3/6.1):
 *
 *  - GS-SLAM-like:   keyframes on pose distance, RGB-D tracking
 *  - MonoGS-like:    keyframes on fixed intervals, RGB-D tracking,
 *                    denser maps
 *  - Photo-SLAM-like: keyframes on photometric change; tracking uses a
 *                    classical geometric (projective ICP) backend
 *                    instead of rendering backpropagation
 *  - SplaTAM-like:   every frame is mapped (no keyframe selection)
 *
 * Each profile only configures this one system; the RTGS algorithm
 * layer (src/core) plugs pruning and downsampling into any of them.
 */

#ifndef RTGS_SLAM_PIPELINE_HH
#define RTGS_SLAM_PIPELINE_HH

#include <algorithm>
#include <memory>
#include <vector>

#include "common/annotations.hh"
#include "common/mutex.hh"

#include "data/dataset.hh"
#include "slam/health_monitor.hh"
#include "slam/keyframe.hh"
#include "slam/relocalizer.hh"
#include "slam/map_worker.hh"
#include "slam/mapper.hh"
#include "slam/preprocess.hh"
#include "slam/profiler.hh"
#include "slam/tracker.hh"

namespace rtgs::slam
{

/** The base 3DGS-SLAM algorithm profiles from the paper. */
enum class BaseAlgorithm { GsSlam, MonoGs, PhotoSlam, SplaTam };

/** Human-readable algorithm name. */
const char *algorithmName(BaseAlgorithm algo);

/** Full system configuration. */
struct SlamConfig
{
    BaseAlgorithm algorithm = BaseAlgorithm::MonoGs;
    TrackerConfig tracker;
    MapperConfig mapper;

    // Keyframe policy parameters (profile-dependent).
    u32 kfInterval = 8;
    Real kfTranslationThreshold = Real(0.15);
    Real kfRotationThreshold = Real(0.20);
    Real kfPhotometricRmse = Real(0.08);

    /** Projective-ICP iterations for the Photo-SLAM tracking backend. */
    u32 icpIterations = 6;
    /** Pixel stride for ICP point sampling. */
    u32 icpStride = 4;

    /**
     * Asynchronous-mapping queue depth. 0 (the default) runs mapping
     * synchronously inside processFrame, exactly reproducing the
     * monolithic loop; >= 1 runs keyframe mapping on the shared
     * ThreadPool behind a bounded queue of this depth, overlapping it
     * with the tracking of subsequent frames. See src/slam/README.md
     * for the threading/ownership model.
     */
    u32 mapQueueDepth = 0;

    /**
     * What a full async map queue does to the enqueue-map stage:
     * Block (bounded-staleness backpressure, the default) or DropOldest
     * (shed the stalest queued keyframe; the drop is accounted in that
     * keyframe's FrameReport row). Ignored in sync mode.
     */
    OverflowPolicy mapOverflowPolicy = OverflowPolicy::Block;

    /**
     * Pool the async map drain runs on. Null (the default) selects the
     * process-global ThreadPool — the single-session behaviour.
     * FleetRuntime injects its own pool here so one thread set serves
     * tracking and mapping for every session. Non-owning; must outlive
     * the SlamSystem. Ignored in sync mode.
     */
    ThreadPool *mapExecutor = nullptr;

    /**
     * Tracking-health monitoring (input validation, divergence
     * detection, escalating recovery). Disabled by default; on a
     * fault-free stream an enabled monitor never intervenes, so the
     * output stays byte-identical either way.
     */
    HealthConfig health;

    /**
     * Map-based relocalization for LOST recovery (the final rung of
     * the health escalation). Requires the health monitor: the
     * relocalizer only engages while the monitor reports Lost, so on
     * clean input (or with health disabled) an enabled relocalizer
     * never changes the output. See src/slam/relocalizer.hh.
     */
    RelocalizerConfig reloc;

    /** Build the per-profile default configuration. */
    static SlamConfig forAlgorithm(BaseAlgorithm algo);
};

/**
 * Per-frame iteration budgets, produced by the similarity gate
 * (core::SimilarityGate). 0 means "use the configured count"; non-zero
 * values only ever lower the configured count — unless `allowExceed`
 * is set (the health monitor's recovery boost), in which case a
 * non-zero tracking budget may raise it.
 */
struct FrameBudget
{
    u32 trackIterations = 0;
    u32 mapIterations = 0;
    bool allowExceed = false;
};

/** Per-frame outcome report. */
struct FrameReport
{
    u32 frameIndex = 0;
    bool isKeyframe = false;
    SE3 pose;
    double trackLoss = 0;
    double mapLoss = 0;
    size_t gaussianCount = 0;
    size_t gaussianBytes = 0;
    size_t densified = 0;
    double trackSeconds = 0;
    double mapSeconds = 0;

    // Staged-pipeline observability.
    u32 trackIterations = 0;       //!< tracking iterations executed
    u32 trackIterationBudget = 0;  //!< gated budget applied (0 = config)
    u32 mapIterationBudget = 0;    //!< gated budget applied (0 = config)
    u64 trackFragments = 0;        //!< fragments summed over iterations
    /**
     * True when this keyframe's mapping was deferred to the async
     * worker; mapLoss / densified / mapSeconds / gaussianCount are
     * filled in once the job completes (guaranteed after
     * waitForMapping()).
     */
    bool mappedAsync = false;

    // Copy-on-write snapshot observability (async mode only).
    u64 snapshotGeneration = 0;  //!< map generation tracking rendered
    /** Generation this keyframe's map job published on completion
     *  (worker-filled; 0 on non-keyframe rows). */
    u64 publishedGeneration = 0;
    /** Queue staleness: frames between this frame and the newest
     *  keyframe folded into the snapshot tracking rendered against. */
    u32 snapshotStaleFrames = 0;
    /** Wall time of the snapshot publication this keyframe's map job
     *  performed. */
    double snapshotPublishSeconds = 0;
    /** Views rendered by this keyframe's final map optimiser step
     *  (1 on the sequential path, up to mapper.multiViewWindow once
     *  the keyframe window has filled; 0 on non-keyframe rows). */
    u32 mapMultiViews = 0;

    // Tracking-health / robustness observability (all neutral unless
    // config.health.enabled or an overflow policy intervened).
    HealthState healthState = HealthState::Ok;
    /** Frames since the monitor last reported Ok (0 when Ok). */
    u32 framesSinceHealthy = 0;
    /** Input validation rejected this frame; tracking was skipped and
     *  the constant-velocity pose held. */
    bool inputRejected = false;
    bool inputNan = false;          //!< non-finite rgb/depth pixels
    bool inputBadTimestamp = false; //!< duplicate/regressed timestamp
    /** Depth was mostly invalid; the frame tracked RGB-only. */
    bool depthIgnored = false;
    /** Divergence detected: the tracked pose was discarded and the
     *  constant-velocity prediction kept instead. */
    bool poseHeld = false;
    /** Recovery boost: tracking ran MORE than the configured
     *  iterations this frame. */
    bool budgetBoosted = false;
    /** This keyframe was forced by the recovery re-anchor. */
    bool forcedRecoveryKeyframe = false;
    /** Probe PSNR (dB) when the divergence probe ran; -1 otherwise. */
    double probePsnrDb = -1;
    /** This keyframe's async map job was evicted by the overflow
     *  policy and never mapped (mapLoss/densified stay zero). */
    bool mapJobDropped = false;

    // Relocalization observability (all neutral unless
    // config.reloc.enabled and the monitor went Lost).
    /** Relocalization attempts on this frame (0 or 1). */
    u32 relocAttempts = 0;
    /** Candidate poses probe-scored by this frame's attempt. */
    u32 relocCandidatesScored = 0;
    /** Probe PSNR (dB) of the refined relocalization pose when an
     *  attempt ran; -1 otherwise. */
    double relocProbePsnr = -1;
    /** This frame's pose came from an accepted relocalization. */
    bool relocAccepted = false;
    /** Cumulative frames the monitor has reported Lost so far. */
    u32 framesLost = 0;
};

/**
 * Aggregate COW-snapshot observability over a run's reports (shared by
 * the examples and benches). Feed every row through add(); rows from
 * sync-mode runs contribute nothing.
 */
struct SnapshotStats
{
    /** Total publication wall time recorded in keyframe rows. The
     *  rare trailing publication waitForMapping performs to flush a
     *  prune requested after the last map job has no report row and
     *  is not attributed. */
    double publishSeconds = 0;
    u64 publishes = 0;         //!< highest published generation seen
    u64 staleSum = 0;
    u64 staleFrames = 0;

    void
    add(const FrameReport &r)
    {
        publishSeconds += r.snapshotPublishSeconds;
        publishes = std::max(publishes, r.publishedGeneration);
        if (r.snapshotGeneration > 0) {
            staleSum += r.snapshotStaleFrames;
            ++staleFrames;
        }
    }

    /** Mean queue staleness over tracked frames (0 if none). */
    double
    meanStaleFrames() const
    {
        return staleFrames ? static_cast<double>(staleSum) /
                                 static_cast<double>(staleFrames)
                           : 0.0;
    }
};

/**
 * An immutable, generation-tagged view of the map published for
 * lock-free tracking. The cloud shares its column buffers with the
 * authoritative map via copy-on-write, so publishing costs O(columns)
 * refcount bumps; the map worker re-materialises only the columns it
 * later mutates.
 */
struct TrackingSnapshot
{
    gs::GaussianCloud cloud;
    u64 generation = 0;     //!< 1-based publication counter
    u32 lastMappedFrame = 0; //!< newest keyframe folded into the map
};

/**
 * The SLAM system, organised as an explicit stage graph per frame:
 *
 *   preprocess -> track -> keyframe decision -> enqueue-map -> map
 *
 * The map stage is one function, runMapJob(), in both modes. With
 * config.mapQueueDepth == 0 it runs inline on the caller thread,
 * byte-identical to the original monolithic loop. With a positive depth
 * it runs asynchronously behind a bounded keyframe queue (MapWorker),
 * one job at a time in FIFO order, on a pool worker or on whichever
 * thread has to wait for mapping. Tracking renders against a
 * copy-on-write clone of the newest published snapshot taken under the
 * snapshot lock. In async mode, call waitForMapping() before reading
 * cloud()/reports() (the map-iteration hook may fire on a pool worker
 * then).
 *
 * Feed frames in order via processFrame(); read the trajectory, map,
 * and reports afterwards.
 */
class SlamSystem
{
  public:
    SlamSystem(const SlamConfig &config, const Intrinsics &intrinsics);

    const SlamConfig &config() const { return config_; }

    /**
     * The authoritative cloud, lock-free. Legal from the frame loop in
     * sync mode, after waitForMapping() quiesced the workers in async
     * mode, and from map-iteration hooks (which already run under the
     * state lock). The analysis escape is deliberate: locking here
     * would deadlock the hook path.
     */
    const gs::GaussianCloud &
    cloud() const RTGS_NO_THREAD_SAFETY_ANALYSIS
    {
        return cloud_;
    }

    /** See the const overload for when this is legal. */
    gs::GaussianCloud &
    cloud() RTGS_NO_THREAD_SAFETY_ANALYSIS
    {
        return cloud_;
    }

    const std::vector<SE3> &trajectory() const { return trajectory_; }

    /**
     * All per-frame reports. Async-mode rows marked mappedAsync are
     * worker-filled; call waitForMapping() before reading them (the
     * escape mirrors cloud()).
     */
    const std::vector<FrameReport> &
    reports() const RTGS_NO_THREAD_SAFETY_ANALYSIS
    {
        return reports_;
    }

    const gs::RenderPipeline &renderPipeline() const { return pipeline_; }
    StageProfiler &profiler() { return profiler_; }

    /** The mapper; same quiescence contract as cloud(). */
    Mapper &mapper() RTGS_NO_THREAD_SAFETY_ANALYSIS { return mapper_; }

    /** True when keyframe mapping runs asynchronously. */
    bool asyncMapping() const { return mapWorker_ != nullptr; }

    /** The tracking-health monitor; null unless config.health.enabled. */
    const HealthMonitor *healthMonitor() const { return health_.get(); }

    /** The relocalizer; null unless config.reloc.enabled (and the
     *  health monitor is on — it is the monitor's LOST exit). */
    const Relocalizer *relocalizer() const { return reloc_.get(); }

    /** Async map jobs evicted by the overflow policy (0 in sync mode). */
    size_t
    mapJobsDropped() const
    {
        return mapWorker_ ? mapWorker_->droppedJobs() : 0;
    }

    /**
     * The cloud tracking renders against: the authoritative map in sync
     * mode, the per-frame copy-on-write clone of the newest published
     * snapshot in async mode. Iteration hooks (RTGS pruning, workload
     * capture) must read THIS cloud — the authoritative one may be
     * mid-mutation on a map worker. Only valid on the frame-loop
     * thread.
     */
    gs::GaussianCloud &trackingCloud();
    const gs::GaussianCloud &trackingCloud() const;

    /**
     * Async-mode pruning: record that tracking decided to drop the
     * entries where keep[i] == 0 of the CURRENT tracking clone (call
     * before compacting the clone — the mask is translated through the
     * clone's stable ids). The drop is applied to the authoritative
     * cloud by the next map job (or by waitForMapping()) under the
     * state lock, with the mapper's optimiser state remapped in the
     * same motion; later tracking clones filter the dropped ids out
     * immediately, so tracking never resurrects what it pruned.
     */
    void requestTrackingPrune(const std::vector<u8> &keep);

    /** Prune requests not yet folded into the authoritative map. */
    size_t pendingPruneCount() const;

    /**
     * Thread-pool override for the render pipeline (tests pin worker
     * counts); all rendering outputs are bitwise pool-size-independent.
     */
    void setRenderPool(ThreadPool *pool);

    /**
     * Hand the frame loop off to a different thread. The frame-loop
     * state (trajectory, keyframe policy, tracking clone) carries no
     * lock, and the health monitor / relocalizer are pinned to one
     * thread by a ThreadAffinity capability — a fleet scheduler that
     * migrates a session's turns across workers calls this at the
     * start of each turn so the thread-affine state follows the turn
     * instead of panicking. Legal ONLY between frames, from a thread
     * that is (or is becoming) the sole caller of processFrame(), with
     * a happens-before edge from the previous frame (the fleet's
     * scheduler mutex provides it). State is preserved, not reset.
     */
    void rebindFrameLoopThread();

    /**
     * Block until every enqueued mapping job has completed and every
     * requested prune has been folded into the authoritative cloud.
     * No-op in sync mode. Call before reading the cloud, reports, or
     * rendering when mapQueueDepth > 0.
     */
    void waitForMapping() RTGS_EXCLUDES(stateMutex_, snapshotMutex_);

    /** Largest Gaussian-parameter footprint seen so far (bytes). */
    size_t
    peakGaussianBytes() const
    {
        // Async map jobs update the peak under the state lock.
        MutexLock lock(stateMutex_);
        return peakBytes_;
    }

    /** Per-iteration observers (RTGS pruning / HW trace capture). */
    void setTrackIterationHook(TrackIterationHook hook);
    void setMapIterationHook(MapIterationHook hook);

    /**
     * Process the next frame. `tracking_scale` (0 < s <= 1) optionally
     * tracks against a downsampled observation (RTGS dynamic
     * downsampling); 1 keeps the native resolution.
     *
     * @param force_keyframe when non-null, overrides the keyframe
     *        policy with the given decision (RTGS decides keyframe
     *        status before tracking so downsampling can reuse it)
     * @param budget optional per-frame iteration budgets from the
     *        similarity gate; null keeps the configured counts
     * @return report for this frame (see FrameReport::mappedAsync for
     *         which fields may still be pending in async mode)
     */
    FrameReport processFrame(const data::Frame &frame,
                             Real tracking_scale = Real(1),
                             const bool *force_keyframe = nullptr,
                             const FrameBudget *budget = nullptr);

    /**
     * Predict the keyframe decision for the upcoming frame before
     * tracking it, using the constant-velocity pose guess. RTGS's
     * dynamic downsampling reuses this prediction (Sec. 4.2).
     */
    bool predictKeyframe(const data::Frame &frame) const;

    /**
     * Render the current map at a given pose/resolution (evaluation).
     */
    ImageRGB renderView(const SE3 &pose) const;

    /** Decide keyframe status for a tracked frame (exposed for tests). */
    bool decideKeyframe(const KeyframeQuery &query);

  private:
    SE3 constantVelocityGuess() const;

    /** Photo-SLAM-style classical tracking: projective point ICP. */
    SE3 geometricTrack(const data::Frame &frame, const SE3 &init) const;

    // ------------------------------------------------- frame stages
    /** Preprocess + track: returns the frame's pose estimate.
     *  `ignore_depth` tracks RGB-only (health-detected depth dropout);
     *  `init_override` replaces the constant-velocity initial pose
     *  (the relocalizer's refinement burst starts from its best
     *  candidate instead); `tracker_override` swaps in a differently
     *  configured tracker (the burst's cold-start optimizer). */
    SE3 stageTrack(const data::Frame &frame, Real tracking_scale,
                   const FrameBudget *budget, FrameReport &report,
                   bool ignore_depth = false,
                   const SE3 *init_override = nullptr,
                   Tracker *tracker_override = nullptr);

    /** Relocalization stage (LOST only): deterministic candidate
     *  search scored by downsampled probe renders, then a boosted
     *  refinement burst. Returns true and fills `pose_out` when the
     *  refined pose's probe PSNR clears the accept threshold. */
    bool stageRelocalize(const data::Frame &frame, Real tracking_scale,
                         FrameReport &report, SE3 &pose_out);

    /** Health path: skip a rejected frame — hold the constant-velocity
     *  pose, no keyframe, prev-frame tracking state untouched. */
    FrameReport rejectFrame(FrameReport &report);

    /** Divergence probe: PSNR (dB) of a downsampled render of the
     *  tracking cloud at `pose` vs the observation; negative when no
     *  map is available. Never takes stateMutex_ (async-safe): the
     *  sync-mode cloud read goes through syncCloud(). */
    double probePsnr(const data::Frame &frame, const SE3 &pose);

    /** Published-map footprint fields for a non-mapping frame row. */
    void fillMapFootprint(FrameReport &report);

    /** Keyframe decision from the tracked pose / policy override. */
    bool stageKeyframeDecision(const data::Frame &frame, const SE3 &pose,
                               const bool *force_keyframe);

    /** Enqueue-map stage: record the keyframe and hand its map job to
     *  the queue (async) or run it inline (sync). */
    void stageEnqueueMap(const data::Frame &frame, const SE3 &pose,
                         const FrameBudget *budget, size_t report_index);

    /**
     * The map stage, in both modes: fold pending tracking prunes into
     * the authoritative cloud, map the keyframe (densify -> admit ->
     * optimise -> prune transparent), record the footprint and peak,
     * publish a tracking snapshot (async mode only), and fill the
     * keyframe's report row.
     */
    void runMapJob(MapJob &job) RTGS_EXCLUDES(stateMutex_, reportMutex_);

    /**
     * Latest published map snapshot (async mode). Map jobs publish a
     * fresh immutable generation when they complete, so tracking never
     * waits on an in-flight job (it reads the newest finished map).
     */
    std::shared_ptr<const TrackingSnapshot> snapshotCloud();

    /**
     * Refresh the per-frame tracking clone from the newest published
     * snapshot (O(columns) copy-on-write), filter out ids from prune
     * requests the map has not absorbed yet, and stamp the report's
     * snapshot generation/staleness fields.
     */
    void refreshTrackingClone(const data::Frame &frame,
                              FrameReport &report);

    /**
     * Fold every not-yet-applied prune request into the authoritative
     * cloud (stable-id keep-mask translation + optimiser remap).
     * Returns true when the cloud changed.
     */
    bool applyPendingPrunesLocked() RTGS_REQUIRES(stateMutex_);

    /** Publish cloud_ as a new snapshot generation; returns the wall
     *  seconds the publication cost. */
    double publishSnapshotLocked(u32 last_mapped_frame)
        RTGS_REQUIRES(stateMutex_);

    /**
     * The single sanctioned unlocked path to the authoritative cloud:
     * legal ONLY where the frame loop is provably the sole accessor —
     * sync mode (no worker exists) or after waitForMapping(). Every
     * other cloud_ access is statically checked against stateMutex_;
     * concentrating the escape here keeps it auditable.
     */
    gs::GaussianCloud &
    syncCloud() RTGS_NO_THREAD_SAFETY_ANALYSIS
    {
        return cloud_;
    }

    const gs::GaussianCloud &
    syncCloud() const RTGS_NO_THREAD_SAFETY_ANALYSIS
    {
        return cloud_;
    }

    // --- Immutable after construction / internally synchronized.
    SlamConfig config_;
    Intrinsics intrinsics_;
    /** A plain value; every render buffer belongs to its thread. */
    gs::RenderPipeline pipeline_;
    Tracker tracker_;
    std::unique_ptr<KeyframePolicy> keyframePolicy_;
    /** Internally synchronized. */
    StageProfiler profiler_;
    /** Set before the first frame; read by the frame loop (track) and
     *  by map workers under stateMutex_ (map). */
    TrackIterationHook trackHook_;
    MapIterationHook mapHook_;

    // --- Frame-loop-confined: only processFrame() and its stages (all
    // on the caller thread) touch these; no lock needed.
    std::vector<SE3> trajectory_;
    u32 lastKeyframeIndex_ = 0;
    ImageRGB lastKeyframeImage_;
    SE3 lastKeyframePose_;
    // Previous frame data for the geometric (ICP) tracking backend.
    ImageF prevDepth_;
    SE3 prevPose_;
    bool bootstrapped_ = false;
    /** Tracking-health monitor; null unless config.health.enabled.
     *  Thread-confined internally via its ThreadAffinity capability. */
    std::unique_ptr<HealthMonitor> health_;
    /** Map-based relocalizer; null unless config.reloc.enabled AND the
     *  health monitor exists. Thread-confined like the monitor. */
    std::unique_ptr<Relocalizer> reloc_;
    /** Trajectory index of the last accepted relocalization pose: the
     *  constant-velocity model must not extrapolate the correction
     *  jump, so the guess right after a relocalization is
     *  zero-velocity. ~0 = none. */
    size_t velocityResetIndex_ = ~size_t(0);
    /** Per-frame tracking clone of the snapshot. */
    gs::GaussianCloud trackCloud_;
    /** Generation trackCloud_ was cloned from (the sentinel forces the
     *  first refresh to clone). */
    u64 trackCloneGeneration_ = ~u64(0);

    /** One tracking-side prune decision awaiting authoritative apply. */
    struct PendingPrune
    {
        std::vector<u64> ids;          //!< stable ids to drop (sorted)
        u64 appliedInGeneration = 0;   //!< 0 = not yet applied
    };

    /** Guards the authoritative map state against the async map stage.
     *  Lock order: stateMutex_ before snapshotMutex_ / reportMutex_ /
     *  pruneMutex_ (never the reverse). */
    mutable Mutex stateMutex_;
    gs::GaussianCloud cloud_ RTGS_GUARDED_BY(stateMutex_);
    Mapper mapper_ RTGS_GUARDED_BY(stateMutex_);
    size_t peakBytes_ RTGS_GUARDED_BY(stateMutex_) = 0;
    /** Snapshot publication counter. */
    u64 mapGeneration_ RTGS_GUARDED_BY(stateMutex_) = 0;
    /** Newest keyframe folded into a published snapshot. */
    u32 lastPublishedFrame_ RTGS_GUARDED_BY(stateMutex_) = 0;

    /** Guards reports_ (caller pushes rows, the worker fills them in). */
    mutable Mutex reportMutex_;
    std::vector<FrameReport> reports_ RTGS_GUARDED_BY(reportMutex_);

    /** Guards trackingSnapshot_ (published by map jobs, read by
     *  track). */
    mutable Mutex snapshotMutex_;
    std::shared_ptr<const TrackingSnapshot> trackingSnapshot_
        RTGS_GUARDED_BY(snapshotMutex_);

    /** Guards pendingPrunes_ (tracker appends, map jobs consume). */
    mutable Mutex pruneMutex_;
    std::vector<PendingPrune> pendingPrunes_ RTGS_GUARDED_BY(pruneMutex_);

    /** Async map executor; null in sync mode. Declared last so its
     *  destructor drains in-flight jobs before members are torn down.
     *  Immutable after construction; internally synchronized. */
    // det-lint: allow(unguarded-field)
    std::unique_ptr<MapWorker> mapWorker_;
};

} // namespace rtgs::slam

#endif // RTGS_SLAM_PIPELINE_HH
