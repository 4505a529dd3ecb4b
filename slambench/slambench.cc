/**
 * @file
 * End-to-end benchmark of the real CPU SLAM pipeline.
 *
 *   slambench --workload <single|map_heavy|fleet> --seed N
 *             --seconds S --trace <0|1>
 *
 * Every workload replays fixed-length episodes of a seeded synthetic
 * RGB-D sequence through the library, back to back (closed loop), until
 * the measured window has run for S seconds. An episode is one fresh
 * session over the sequence, so the map grows and resets the way a
 * short real capture does and every episode repeats the same work.
 *
 *   single     one SlamSystem, MonoGS profile, mapping inline (sync)
 *   map_heavy  one SlamSystem, SplaTAM profile (every frame a keyframe,
 *              mapped inline) on a denser scene
 *   fleet      three sessions on one two-worker FleetRuntime executor,
 *              each its own slice of the sequence, fed on one frame
 *              clock: frame f of every session is submitted together
 *              and frame f+1 once all three completed, so each step
 *              one session waits for a worker. (A feeder that keeps
 *              the queues full makes latency queue depth over
 *              throughput, which repeats fps with scheduler noise.)
 *
 * Mapping runs inline in every workload. The async map worker overlaps
 * tracking with mapping in a timing-dependent way; its run-to-run
 * spread was too wide for a regression bound on a shared 4-core host.
 * Rendering runs on the process-wide pool, as it does for every caller
 * that sets no render pool.
 *
 * --trace 0 prints the end-to-end metrics: frames/s, p50/p90 frame
 * latency (processFrame wall time for the single-system workloads,
 * submit-to-completion for the fleet), each taken per episode and
 * reported as the fastest quartile over the run's episodes, peak RSS
 * and the median set-up
 * time of the program (constructing the SlamSystem, or the FleetRuntime
 * and opening its sessions, once per episode).
 *
 * --trace 1 runs the same loop with iteration hooks installed. Each
 * hook re-executes the iteration it observed layer by layer — the same
 * library calls RenderPipeline / Tracker / Mapper make, on the same
 * cloud, camera and observation — and times every call. Per-layer
 * figures are milliseconds per processed frame, so they add up against
 * `busy_ms`, the pipeline's own track+map stage time per frame with the
 * hook time taken out; `layer_sum_share` is that sum as a percentage.
 *
 * Which end-to-end figure each layer should move: projection through
 * projection_bp run in every tracking and mapping iteration, so they
 * move fps and frame_p50 on every workload; optimizer_step, densify and
 * prune run per mapped keyframe, so they move frame_p90 on `single` and
 * `fleet` (one keyframe in four) and every figure on `map_heavy`;
 * frame_wait is the fleet's queueing and scheduling, so it moves the
 * fleet's latencies; reloc_search is on no workload's frame path
 * (relocalization engages only when tracking is LOST), so a change
 * there should move no end-to-end figure.
 *
 * Correctness: every episode must reproduce the output bytes
 * (trajectory + map FNV probe) of the first episode on the same input
 * (for the first input, the untraced warm-up, so tracing must not
 * change the output either), every trajectory must stay finite with a
 * camera-centre and a rotation RMSE well under those of a tracker stuck
 * at frame 0, and each fleet session must match the same slice run on a
 * standalone SlamSystem.
 *
 * The last line of stdout is one JSON object:
 *   {"correct": bool, "attempted": frames, "failed": frames,
 *    "metrics": {name: {"value": v, "unit": u}, ...}}
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.hh"
#include "data/dataset.hh"
#include "gs/backward.hh"
#include "gs/projection.hh"
#include "gs/rasterizer.hh"
#include "gs/sorting.hh"
#include "gs/tiling.hh"
#include "image/metrics.hh"
#include "slam/fleet_runtime.hh"
#include "slam/pipeline.hh"
#include "slam/preprocess.hh"
#include "slam/relocalizer.hh"

namespace
{

using namespace rtgs;
using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------ arguments

struct Args
{
    std::string workload;
    u64 seed = 0;
    double seconds = 0;
    bool trace = false;
};

bool
parseArgs(int argc, char **argv, Args &args)
{
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        const char *value = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            args.workload = value;
            have_workload = true;
        } else if (key == "--seed") {
            args.seed = std::strtoull(value, &end, 10);
            have_seed = end && *end == '\0';
        } else if (key == "--seconds") {
            args.seconds = std::strtod(value, &end);
            have_seconds = end && *end == '\0' && args.seconds > 0;
        } else if (key == "--trace") {
            args.trace = std::strcmp(value, "1") == 0;
            have_trace = args.trace || std::strcmp(value, "0") == 0;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
           have_trace;
}

// ------------------------------------------------------------ workloads

/**
 * Tracking-error bounds, as shares of the error of a tracker that never
 * moves off frame 0 (its error is the camera's own motion over the
 * episode), which scores exactly 1. On these sequences the tracker's
 * rotation RMSE is 0.47-0.70 of that and its camera-centre RMSE
 * 0.95-1.21 (rotation and translation trade off at these image sizes),
 * so the rotation bound is the one that tells tracking from standing
 * still; the camera-centre bound only catches divergence.
 */
constexpr double kMaxTransShare = 1.5;
constexpr double kMaxRotShare = 0.85;

struct Workload
{
    data::DatasetSpec spec;
    slam::SlamConfig slam;
    u32 episodeFrames = 0;
    /** Sessions per episode; 0 = a standalone SlamSystem. */
    u32 fleetSessions = 0;
    size_t fleetWorkers = 0;
    /** Frames between the first frames of consecutive fleet sessions. */
    u32 sessionStride = 0;
};

void
setSequenceLength(data::DatasetSpec &spec, u32 frames)
{
    spec.trajectory.frameCount = frames;
    // ~2 cm between frames. Faster sweeps outrun the tracker: its pose
    // error grows with the motion and diverges within ~20 frames.
    spec.trajectory.revolutions = Real(0.002) * static_cast<Real>(frames);
}

bool
makeWorkload(const std::string &name, Workload &w)
{
    if (name == "single") {
        w.spec = data::DatasetSpec::tumLike(Real(0.2));
        w.slam = slam::SlamConfig::forAlgorithm(slam::BaseAlgorithm::MonoGs);
        w.slam.tracker.iterations = 10;
        w.slam.mapper.iterations = 12;
        w.slam.kfInterval = 4;
        w.episodeFrames = 16;
    } else if (name == "map_heavy") {
        w.spec = data::DatasetSpec::replicaLike(Real(0.12));
        w.slam =
            slam::SlamConfig::forAlgorithm(slam::BaseAlgorithm::SplaTam);
        w.episodeFrames = 16;
    } else if (name == "fleet") {
        w.spec = data::DatasetSpec::tumLike(Real(0.15));
        w.slam = slam::SlamConfig::forAlgorithm(slam::BaseAlgorithm::MonoGs);
        w.slam.tracker.iterations = 10;
        w.slam.mapper.iterations = 12;
        w.slam.kfInterval = 4;
        w.episodeFrames = 16;
        w.fleetSessions = 3;
        w.fleetWorkers = 2;
        w.sessionStride = 4;
    } else {
        return false;
    }
    // A fixed iteration budget: with early stopping the work per frame
    // would follow the noise realisation rather than the code.
    w.slam.tracker.earlyStop = false;
    u32 sessions = std::max<u32>(1, w.fleetSessions);
    setSequenceLength(w.spec, w.episodeFrames + (sessions - 1) * w.sessionStride);
    return true;
}

/** One session's episode input, re-indexed from frame 0. */
struct SessionInput
{
    std::vector<data::Frame> frames;
    std::vector<SE3> gt;
};

struct Inputs
{
    Intrinsics intrinsics;
    std::vector<SessionInput> sessions;
};

/**
 * The benchmark's input: generate the scene and render the ground
 * truth. The scene and camera path are the preset's own (a fixed
 * sequence, as a recorded dataset is); `noise_seed` draws the
 * sensor-noise realisation, so inputs differ between seeds but the
 * shape of the work does not.
 */
Inputs
buildInputs(const Workload &w, u64 noise_seed)
{
    data::DatasetSpec spec = w.spec;
    spec.noise.seed = noise_seed;
    data::SyntheticDataset ds(spec);
    Inputs in;
    in.intrinsics = ds.intrinsics();
    u32 sessions = std::max<u32>(1, w.fleetSessions);
    in.sessions.resize(sessions);
    for (u32 s = 0; s < sessions; ++s) {
        SessionInput &si = in.sessions[s];
        for (u32 f = 0; f < w.episodeFrames; ++f) {
            data::Frame frame = ds.frame(s * w.sessionStride + f);
            frame.index = f;
            frame.timestamp = static_cast<double>(f) /
                              static_cast<double>(w.spec.fps);
            si.gt.push_back(frame.gtPose);
            si.frames.push_back(std::move(frame));
        }
    }
    return in;
}

// ------------------------------------------------------------ output probes

u64
fnv1a(const void *bytes, size_t n, u64 hash)
{
    const unsigned char *p = static_cast<const unsigned char *>(bytes);
    for (size_t i = 0; i < n; ++i) {
        hash ^= p[i];
        hash *= 1099511628211ull;
    }
    return hash;
}

/** FNV-1a over the trajectory and every cloud column. */
u64
outputHash(const slam::SlamSystem &sys)
{
    u64 hash = 1469598103934665603ull;
    for (const SE3 &pose : sys.trajectory()) {
        hash = fnv1a(&pose.rot, sizeof(pose.rot), hash);
        hash = fnv1a(&pose.trans, sizeof(pose.trans), hash);
    }
    const gs::GaussianCloud &cloud = sys.cloud();
    auto mix = [&hash](const auto &column) {
        using T = typename std::decay_t<decltype(column)>::value_type;
        if (column.size())
            hash = fnv1a(column.data(), column.size() * sizeof(T), hash);
    };
    mix(cloud.positions);
    mix(cloud.logScales);
    mix(cloud.rotations);
    mix(cloud.opacityLogits);
    mix(cloud.shCoeffs);
    mix(cloud.active);
    return hash;
}

/** Largest error shares seen in a run (stderr summary). */
struct TrackErrorStats
{
    double transShare = 0;
    double rotShare = 0;
    double transM = 0;
    double rotDeg = 0;
};

/**
 * Finite trajectory whose camera-centre and rotation RMSE stay under
 * their shares of a stuck tracker's. Frame 0 is anchored at its
 * ground-truth pose, so estimate and ground truth share a world frame
 * and need no alignment.
 */
bool
trajectoryOk(const slam::SlamSystem &sys, const SessionInput &in,
             TrackErrorStats &stats)
{
    const std::vector<SE3> &est = sys.trajectory();
    if (est.size() != in.gt.size() || est.empty())
        return false;
    double trans = 0, rot = 0, stuck_trans = 0, stuck_rot = 0;
    for (size_t f = 0; f < est.size(); ++f) {
        if (!data::isFinitePose(est[f]))
            return false;
        auto sq = [](Real x) { return static_cast<double>(x) * x; };
        trans += sq(SE3::translationDistance(est[f], in.gt[f]));
        rot += sq(SE3::rotationDistance(est[f], in.gt[f]));
        stuck_trans += sq(SE3::translationDistance(in.gt[0], in.gt[f]));
        stuck_rot += sq(SE3::rotationDistance(in.gt[0], in.gt[f]));
    }
    double trans_share = std::sqrt(trans / stuck_trans);
    double rot_share = std::sqrt(rot / stuck_rot);
    const double n = static_cast<double>(est.size());
    stats.transShare = std::max(stats.transShare, trans_share);
    stats.rotShare = std::max(stats.rotShare, rot_share);
    stats.transM = std::max(stats.transM, std::sqrt(trans / n));
    stats.rotDeg = std::max(stats.rotDeg, std::sqrt(rot / n) * 180 / M_PI);
    return trans_share <= kMaxTransShare && rot_share <= kMaxRotShare;
}

/** Peak resident set of this process in MB. */
double
peakRssMb()
{
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // kB on Linux
}

// ------------------------------------------------------------ layer tracing

enum Layer : size_t
{
    kPreprocess,
    kProjection,
    kTileBinning,
    kDepthSort,
    kRasterize,
    kLoss,
    kBackward,
    kGradientGather,
    kProjectionBp,
    kOptimizerStep,
    kDensify,
    kPrune,
    kLayerCount
};

constexpr std::array<const char *, kLayerCount> kLayerNames = {
    "preprocess_ms",  "projection_ms",       "tile_binning_ms",
    "depth_sort_ms",  "rasterize_ms",        "loss_ms",
    "backward_ms",    "gradient_gather_ms",  "projection_bp_ms",
    "optimizer_step_ms", "densify_ms",       "prune_ms"};

struct LayerTotals
{
    std::array<double, kLayerCount> seconds{};
    /** Wall time spent inside the hooks (replays + their copies). */
    double hookSeconds = 0;
    double relocSeconds = 0;
    u64 relocSearches = 0;
    /** Gaussians the densify replays inserted. */
    u64 densified = 0;
    u64 iterations = 0;
    u64 gaussians = 0;
    u64 tilePairs = 0;
    u64 fragments = 0;
    u64 blended = 0;

    void
    add(const LayerTotals &o)
    {
        for (size_t l = 0; l < kLayerCount; ++l)
            seconds[l] += o.seconds[l];
        hookSeconds += o.hookSeconds;
        relocSeconds += o.relocSeconds;
        relocSearches += o.relocSearches;
        densified += o.densified;
        iterations += o.iterations;
        gaussians += o.gaussians;
        tilePairs += o.tilePairs;
        fragments += o.fragments;
        blended += o.blended;
    }
};

/** Re-materialise every column so later writes never copy. */
void
materialize(gs::GaussianCloud &cloud)
{
    cloud.positions.mut();
    cloud.logScales.mut();
    cloud.rotations.mut();
    cloud.opacityLogits.mut();
    cloud.shCoeffs.mut();
    cloud.active.mut();
    cloud.ids.mut();
}

/**
 * Times each layer of one session by re-executing, inside the
 * pipeline's iteration hooks, the iteration the hook just observed.
 * With inline mapping both hooks run on the session's frame-loop
 * thread, so one set of totals and scratch buffers serves both.
 */
class LayerTracer
{
  public:
    LayerTracer(slam::SlamSystem &sys, const SessionInput &input,
                const Intrinsics &intrinsics)
        : sys_(sys), input_(input), intrinsics_(intrinsics),
          preMap_(sys.cloud()), scratchMapper_(sys.config().mapper),
          reloc_(slam::RelocalizerConfig{})
    {
        sys_.setTrackIterationHook(
            [this](const slam::TrackIterationContext &c) { onTrack(c); });
        sys_.setMapIterationHook(
            [this](const slam::MapIterationContext &c) { onMap(c); });
    }

    LayerTracer(const LayerTracer &) = delete;
    LayerTracer &operator=(const LayerTracer &) = delete;

    /** Totals so far; call once the session is quiescent. */
    const LayerTotals &totals() const { return totals_; }

  private:
    void
    onTrack(const slam::TrackIterationContext &ctx)
    {
        Clock::time_point h0 = Clock::now();
        // The frame being tracked is the next trajectory entry.
        const data::Frame &frame =
            input_.frames[sys_.trajectory().size()];
        if (ctx.iteration == 0) {
            Clock::time_point t0 = Clock::now();
            slam::PreprocessedObservation obs =
                slam::preprocessObservation(frame, intrinsics_, Real(1));
            totals_.seconds[kPreprocess] += since(t0);
            (void)obs;
            // With inline mapping the tracking cloud is the map itself
            // and tracking leaves it unchanged: this is the cloud the
            // frame's mapping starts from, densify first. A private copy,
            // so the pipeline's own writes never pay for unsharing.
            preMap_ = sys_.trackingCloud();
            materialize(preMap_);
        }
        const gs::GaussianCloud &cloud = sys_.trackingCloud();
        const slam::TrackerConfig &cfg = sys_.config().tracker;
        replay(cloud, ctx.forward->camera, frame.rgb, &frame.depth,
               cfg.loss, /*pose_grad=*/true);

        Clock::time_point t0 = Clock::now();
        slam::PoseOptimizer opt(cfg.lrTranslation, cfg.lrRotation);
        SE3 pose = ctx.forward->camera.pose;
        opt.step(pose, back_.poseGrad);
        totals_.seconds[kOptimizerStep] += since(t0);

        count(*ctx.forward, cloud);
        totals_.hookSeconds += since(h0);
    }

    void
    onMap(const slam::MapIterationContext &ctx)
    {
        Clock::time_point h0 = Clock::now();
        const auto &window = sys_.mapper().window();
        size_t view = slam::Mapper::multiViewSelection(
                          window.size(), ctx.iteration,
                          sys_.config().mapper.multiViewWindow)
                          .back();
        const slam::KeyframeRecord &kf = window[view];
        const gs::GaussianCloud &cloud = sys_.cloud();
        replay(cloud, ctx.forward->camera, kf.rgb, &kf.depth,
               sys_.config().mapper.loss, /*pose_grad=*/false);

        // The Adam step mutates, so it runs on a private copy.
        gs::GaussianCloud copy = cloud;
        materialize(copy);
        scratchOpt_.ensureSize(copy.size());
        Clock::time_point t0 = Clock::now();
        scratchOpt_.step(copy, back_.grads);
        totals_.seconds[kOptimizerStep] += since(t0);

        if (ctx.iteration == 0) {
            // The mapper densified the pre-mapping cloud before this
            // first iteration; frame 0's is the empty initial cloud.
            Clock::time_point t1 = Clock::now();
            totals_.densified += scratchMapper_.densify(
                sys_.renderPipeline(), preMap_, intrinsics_, window.back());
            totals_.seconds[kDensify] += since(t1);
        }
        if (ctx.iteration + 1 == sys_.config().mapper.iterations)
            replayKeyframeEnd(window.back(), cloud);
        count(*ctx.forward, cloud);
        totals_.hookSeconds += since(h0);
    }

    /** After a keyframe's last mapping iteration: prune, relocalize. */
    void
    replayKeyframeEnd(const slam::KeyframeRecord &kf,
                      const gs::GaussianCloud &cloud)
    {
        gs::GaussianCloud copy = cloud;
        materialize(copy);
        Clock::time_point t0 = Clock::now();
        scratchMapper_.pruneTransparent(copy);
        totals_.seconds[kPrune] += since(t0);

        // Candidate search of a LOST recovery against this map, with the
        // probe renders SlamSystem::stageRelocalize scores.
        reloc_.rebindThread();
        const data::Frame &frame = input_.frames[kf.frameIndex];
        t0 = Clock::now();
        reloc_.noteKeyframe(kf.frameIndex, kf.pose, kf.rgb);
        Real scale = std::min(
            Real(1), static_cast<Real>(reloc_.config().probeWidth) /
                         static_cast<Real>(frame.rgb.width()));
        slam::PreprocessedObservation obs =
            slam::preprocessObservation(frame, intrinsics_, scale);
        const gs::RenderPipeline &pipeline = sys_.renderPipeline();
        auto score = [&](const SE3 &p) {
            gs::ForwardContext c =
                pipeline.forward(cloud, Camera(obs.intr, p));
            double db = psnr(c.result.image, obs.rgb());
            return std::isfinite(db) ? db : 99.0;
        };
        reloc_.search(kf.frameIndex, reloc_.makeProbe(frame.rgb), score);
        totals_.relocSeconds += since(t0);
        ++totals_.relocSearches;
    }

    /** One render/backward iteration, layer by layer, as
     *  gs::RenderPipeline::forward/backward and the loss compose it. */
    void
    replay(const gs::GaussianCloud &cloud, const Camera &cam,
           const ImageRGB &rgb, const ImageF *depth,
           const slam::LossConfig &loss_cfg, bool pose_grad)
    {
        const gs::RenderSettings &settings =
            sys_.renderPipeline().settings();
        // The pool RenderPipeline renders on when no pool is set.
        ThreadPool &pool = globalPool();
        Clock::time_point t0 = Clock::now();
        auto lap = [&](Layer layer) {
            Clock::time_point now = Clock::now();
            totals_.seconds[layer] +=
                std::chrono::duration<double>(now - t0).count();
            t0 = now;
        };

        gs::ProjectedCloud projected =
            gs::projectGaussians(cloud, cam, settings);
        lap(kProjection);

        gs::TileGrid grid(cam.intr.width, cam.intr.height,
                          settings.tileSize);
        gs::TileBins bins = gs::intersectTiles(projected, grid);
        lap(kTileBinning);

        gs::sortTilesByDepth(bins, projected);
        lap(kDepthSort);

        gs::RenderResult result = gs::makeRenderResult(grid);
        pool.parallelForChunks(0, grid.tileCount(),
                               [&](size_t lo, size_t hi) {
            for (size_t tile = lo; tile < hi; ++tile)
                gs::rasterizeTile(static_cast<u32>(tile), projected, bins,
                                  grid, settings, result);
        });
        lap(kRasterize);

        slam::LossResult loss =
            slam::computeLoss(result, rgb, depth, loss_cfg);
        const ImageF *dl_ddepth =
            loss_cfg.useDepth && depth ? &loss.dlDDepth : nullptr;
        lap(kLoss);

        records_.resize(bins.indices.size());
        pool.parallelForChunks(0, grid.tileCount(),
                               [&](size_t lo, size_t hi) {
            for (size_t tile = lo; tile < hi; ++tile)
                gs::backwardTileSplatMajor(
                    static_cast<u32>(tile), projected, bins, grid,
                    settings, result, loss.dlDColor, dl_ddepth,
                    records_.data());
        });
        lap(kBackward);

        const size_t n = cloud.size();
        back_.grad2d.resize(n);
        gs::gatherSplatGradients(bins, records_, back_.grad2d);
        lap(kGradientGather);

        constexpr size_t kBlock = 256;
        back_.grads.resize(n);
        const size_t nblocks = (n + kBlock - 1) / kBlock;
        poseBlocks_.assign(nblocks, Twist{});
        pool.parallelForChunks(0, nblocks, [&](size_t blo, size_t bhi) {
            for (size_t b = blo; b < bhi; ++b) {
                Twist *pg = pose_grad ? &poseBlocks_[b] : nullptr;
                for (size_t k = b * kBlock; k < std::min(n, (b + 1) * kBlock);
                     ++k)
                    gs::preprocessBackwardOne(k, cloud, cam, back_.grad2d,
                                              projected, back_.grads, pg);
            }
        });
        Twist pose{};
        for (const Twist &p : poseBlocks_)
            pose = pose + p;
        back_.poseGrad = pose;
        lap(kProjectionBp);
    }

    void
    count(const gs::ForwardContext &ctx, const gs::GaussianCloud &cloud)
    {
        ++totals_.iterations;
        totals_.gaussians += cloud.size();
        totals_.tilePairs += ctx.bins.totalIntersections();
        totals_.fragments += ctx.result.totalFragments();
        totals_.blended += ctx.result.totalBlended();
    }

    slam::SlamSystem &sys_;
    const SessionInput &input_;
    Intrinsics intrinsics_;
    /** The map as the current frame's mapping finds it. */
    gs::GaussianCloud preMap_;
    LayerTotals totals_;
    // Scratch reused across replays.
    gs::BackwardResult back_;
    std::vector<gs::SplatGradRecord> records_;
    std::vector<Twist> poseBlocks_;
    slam::Mapper scratchMapper_;
    slam::MapOptimizer scratchOpt_;
    slam::Relocalizer reloc_;
};

// ------------------------------------------------------------ measurement

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank > 0 ? rank - 1 : 0)];
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

/** Everything one run accumulates across its episodes. */
struct RunTotals
{
    u64 attempted = 0;
    u64 failed = 0;
    bool correct = true;
    u64 frames = 0;
    /** Per measured episode: frames per second and the p50 / p90 of its
     *  frame latencies. Every episode does the same work, and on a
     *  shared host other tenants' load only ever slows one down (it
     *  stretches wall time, not CPU time per frame), so the run reports
     *  the fastest quartile over episodes: a burst of load that spans
     *  up to three quarters of the run does not move it. */
    std::vector<double> episodeFps;
    std::vector<double> episodeP50;
    std::vector<double> episodeP90;
    /** Per frame: latency minus that frame's track+map time. */
    std::vector<double> waitSeconds;
    /** Sum of the pipeline's own track+map stage seconds. */
    double stageSeconds = 0;
    /** Per episode: constructing the system or fleet and its sessions. */
    std::vector<double> setupSeconds;
    TrackErrorStats trackError;
    LayerTotals layers;
};

void
fail(RunTotals &run, const char *what, u64 frames)
{
    std::fprintf(stderr, "slambench: check failed: %s\n", what);
    run.correct = false;
    run.failed += frames;
}

/**
 * Per-frame latencies, waits and stage times of one session;
 * `latencies` parallels the session's report rows.
 */
void
addFrameTimes(const slam::SlamSystem &sys,
              const std::vector<double> &latencies, RunTotals &run)
{
    const std::vector<slam::FrameReport> &reports = sys.reports();
    for (size_t f = 0; f < latencies.size() && f < reports.size(); ++f) {
        const slam::FrameReport &r = reports[f];
        run.waitSeconds.push_back(latencies[f] - r.trackSeconds -
                                  r.mapSeconds);
    }
    for (const slam::FrameReport &r : reports)
        run.stageSeconds += r.trackSeconds + r.mapSeconds;
}

/** One episode's throughput and latency percentiles (all sessions). */
void
addEpisode(RunTotals &run, u64 frames, double wall,
           const std::vector<double> &latencies)
{
    run.episodeFps.push_back(static_cast<double>(frames) / wall);
    run.episodeP50.push_back(percentile(latencies, 0.50));
    run.episodeP90.push_back(percentile(latencies, 0.90));
}

/** Adds one session's layer totals. Its densify replays must have
 *  inserted exactly the Gaussians the session's own densify did. */
void
addLayerTotals(const slam::SlamSystem &sys, const LayerTracer &tracer,
               RunTotals &run, u64 frames)
{
    u64 densified = 0;
    for (const slam::FrameReport &r : sys.reports())
        densified += r.densified;
    if (tracer.totals().densified != densified)
        fail(run, "densify replay differs from the program's densify",
             frames);
    run.layers.add(tracer.totals());
}

/** One standalone episode; `hash_out` receives its output probe. */
void
runSystemEpisode(const Workload &w, const Inputs &in, bool trace,
                 RunTotals &run, u64 &hash_out)
{
    const SessionInput &input = in.sessions[0];
    Clock::time_point t0 = Clock::now();
    slam::SlamSystem sys(w.slam, in.intrinsics);
    run.setupSeconds.push_back(since(t0));
    std::unique_ptr<LayerTracer> tracer;
    if (trace)
        tracer = std::make_unique<LayerTracer>(sys, input, in.intrinsics);
    std::vector<double> latencies;
    for (const data::Frame &frame : input.frames) {
        Clock::time_point f0 = Clock::now();
        sys.processFrame(frame);
        latencies.push_back(since(f0));
    }
    double wall = since(t0);

    const u64 frames = input.frames.size();
    addEpisode(run, frames, wall, latencies);
    run.attempted += frames;
    run.frames += frames;
    addFrameTimes(sys, latencies, run);
    if (tracer)
        addLayerTotals(sys, *tracer, run, frames);

    hash_out = outputHash(sys);
    if (!trajectoryOk(sys, input, run.trackError))
        fail(run, "trajectory non-finite or over the error bound", frames);
}

/** One fleet episode: every session opened, fed, drained and closed. */
void
runFleetEpisode(const Workload &w, const Inputs &in, bool trace,
                RunTotals &run, std::vector<u64> &hashes_out)
{
    Clock::time_point t0 = Clock::now();
    slam::FleetConfig fleet_cfg;
    fleet_cfg.workers = w.fleetWorkers;
    fleet_cfg.maxActiveSessions = w.fleetSessions;
    slam::FleetRuntime fleet(fleet_cfg);

    const size_t sessions = in.sessions.size();
    std::vector<slam::FleetRuntime::SessionId> ids(sessions);
    std::vector<std::unique_ptr<LayerTracer>> tracers(sessions);
    for (size_t s = 0; s < sessions; ++s) {
        slam::FleetSessionConfig cfg;
        cfg.slam = w.slam;
        cfg.intrinsics = in.intrinsics;
        if (fleet.openSession(cfg, ids[s]) !=
            slam::AdmitDecision::Admitted) {
            fail(run, "fleet session not admitted", w.episodeFrames);
            return;
        }
    }
    run.setupSeconds.push_back(since(t0));
    if (trace)
        for (size_t s = 0; s < sessions; ++s)
            tracers[s] = std::make_unique<LayerTracer>(
                *fleet.system(ids[s]), in.sessions[s], in.intrinsics);
    // One frame clock for every camera: frame f of each session is
    // submitted together and frame f+1 once all of them completed.
    u64 submitted = 0;
    for (u32 f = 0; f < w.episodeFrames; ++f) {
        for (size_t s = 0; s < sessions; ++s)
            submitted += fleet.submitFrame(ids[s], in.sessions[s].frames[f]);
        for (size_t s = 0; s < sessions; ++s)
            fleet.drainSession(ids[s]);
    }
    std::vector<slam::FleetSessionStats> stats(sessions);
    for (size_t s = 0; s < sessions; ++s)
        stats[s] = fleet.closeSession(ids[s]);
    double wall = since(t0);

    run.attempted += static_cast<u64>(sessions) * w.episodeFrames;
    hashes_out.assign(sessions, 0);
    u64 completed = 0;
    std::vector<double> latencies;
    for (size_t s = 0; s < sessions; ++s) {
        const slam::SlamSystem &sys = *fleet.system(ids[s]);
        completed += stats[s].completed;
        latencies.insert(latencies.end(), stats[s].latenciesSeconds.begin(),
                         stats[s].latenciesSeconds.end());
        addFrameTimes(sys, stats[s].latenciesSeconds, run);
        if (tracers[s])
            addLayerTotals(sys, *tracers[s], run, w.episodeFrames);
        hashes_out[s] = outputHash(sys);
        if (!trajectoryOk(sys, in.sessions[s], run.trackError))
            fail(run, "fleet trajectory non-finite or over the error bound",
                 w.episodeFrames);
    }
    run.frames += completed;
    addEpisode(run, completed, wall, latencies);
    u64 expected = static_cast<u64>(sessions) * w.episodeFrames;
    if (submitted != expected || completed != expected)
        fail(run, "fleet frames refused or left unprocessed",
             expected - std::min(expected, completed));
}

void
runEpisode(const Workload &w, const Inputs &in, bool trace, RunTotals &run,
           std::vector<u64> &hashes)
{
    if (w.fleetSessions == 0) {
        hashes.assign(1, 0);
        runSystemEpisode(w, in, trace, run, hashes[0]);
    } else {
        runFleetEpisode(w, in, trace, run, hashes);
    }
}

/** A fleet session must match the same slice run standalone. */
void
checkFleetAgainstStandalone(const Workload &w, const Inputs &in,
                            const std::vector<u64> &fleet_hashes,
                            RunTotals &run)
{
    for (size_t s = 0; s < in.sessions.size(); ++s) {
        slam::SlamSystem solo(w.slam, in.intrinsics);
        for (const data::Frame &frame : in.sessions[s].frames)
            solo.processFrame(frame);
        if (outputHash(solo) != fleet_hashes[s])
            fail(run, "fleet session differs from standalone",
                 w.episodeFrames);
    }
}

// ------------------------------------------------------------ reporting

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
printResult(const RunTotals &run, const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                run.correct ? "true" : "false", run.attempted, run.failed);
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    }
    std::printf("}}\n");
}

std::vector<Metric>
endToEndMetrics(const RunTotals &run)
{
    return {
        {"fps", percentile(run.episodeFps, 0.75), "1/s"},
        {"frame_p50_ms", percentile(run.episodeP50, 0.25) * 1e3, "ms"},
        {"frame_p90_ms", percentile(run.episodeP90, 0.25) * 1e3, "ms"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"setup_s", median(run.setupSeconds), "s"},
    };
}

std::vector<Metric>
perLayerMetrics(const RunTotals &run)
{
    const LayerTotals &l = run.layers;
    const double frames = static_cast<double>(std::max<u64>(1, run.frames));
    const double iters = static_cast<double>(std::max<u64>(1, l.iterations));
    std::vector<Metric> m;
    double layer_sum = 0;
    for (size_t i = 0; i < kLayerCount; ++i) {
        m.push_back({kLayerNames[i], l.seconds[i] / frames * 1e3, "ms"});
        layer_sum += l.seconds[i];
    }
    // The pipeline's own stage time with the tracer's hook time removed:
    // what the layers above should add up to.
    double busy = run.stageSeconds - l.hookSeconds;
    m.push_back({"reloc_search_ms",
                 l.relocSeconds /
                     static_cast<double>(std::max<u64>(1, l.relocSearches)) *
                     1e3,
                 "ms"});
    m.push_back({"busy_ms", busy / frames * 1e3, "ms"});
    m.push_back({"layer_sum_share", busy > 0 ? layer_sum / busy * 100 : 0,
                 "%"});
    m.push_back({"frame_wait_ms", median(run.waitSeconds) * 1e3, "ms"});
    m.push_back({"gaussians", static_cast<double>(l.gaussians) / iters,
                 "count"});
    m.push_back({"tile_pairs", static_cast<double>(l.tilePairs) / iters,
                 "count"});
    m.push_back({"fragments", static_cast<double>(l.fragments) / iters,
                 "count"});
    m.push_back({"blend_ratio",
                 l.fragments ? static_cast<double>(l.blended) /
                                   static_cast<double>(l.fragments) * 100
                             : 0,
                 "%"});
    m.push_back({"iterations_per_frame",
                 static_cast<double>(l.iterations) / frames, "count"});
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    Workload w;
    if (!parseArgs(argc, argv, args) ||
        !makeWorkload(args.workload, w)) {
        std::fprintf(stderr,
                     "usage: slambench --workload <single|map_heavy|fleet> "
                     "--seed N --seconds S --trace <0|1>\n");
        return 2;
    }

    // One input set per noise realisation; episodes cycle through them,
    // so a run averages over several.
    constexpr u64 kRealisations = 4;
    std::vector<Inputs> inputs(kRealisations);
    for (u64 k = 0; k < kRealisations; ++k)
        inputs[k] = buildInputs(w, args.seed * kRealisations + k);

    // The untraced warm-up episode (not measured) fills caches and pools
    // and fixes realisation 0's output; the first measured episode of
    // every other realisation fixes its own. Every later episode must
    // reproduce them.
    RunTotals run;
    std::vector<std::vector<u64>> reference(kRealisations);
    {
        RunTotals warm;
        runEpisode(w, inputs[0], false, warm, reference[0]);
        run.correct = warm.correct;
    }
    Clock::time_point start = Clock::now();
    size_t episode = 0;
    do {
        const size_t k = episode++ % kRealisations;
        std::vector<u64> hashes;
        u64 before = run.attempted;
        runEpisode(w, inputs[k], args.trace, run, hashes);
        if (reference[k].empty())
            reference[k] = hashes;
        else if (hashes != reference[k])
            fail(run, "episode output differs from the first episode",
                 run.attempted - before);
    } while (since(start) < args.seconds);

    if (w.fleetSessions > 0)
        checkFleetAgainstStandalone(w, inputs[0], reference[0], run);

    const TrackErrorStats &err = run.trackError;
    std::fprintf(stderr,
                 "slambench: worst episode RMSE %.4f m / %.3f deg = "
                 "%.3f / %.3f of a stuck tracker's (bounds %.2f / %.2f)\n",
                 err.transM, err.rotDeg, err.transShare, err.rotShare,
                 kMaxTransShare, kMaxRotShare);
    printResult(run, args.trace ? perLayerMetrics(run)
                                : endToEndMetrics(run));
    return 0;
}
