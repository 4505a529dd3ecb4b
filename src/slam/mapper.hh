/**
 * @file
 * The mapping stage: keyframe-driven optimisation of the Gaussian map,
 * plus densification (inserting Gaussians for newly observed geometry)
 * and transparent-Gaussian cleanup — the standard machinery of
 * keyframe-based 3DGS-SLAM (Sec. 2.2/2.3).
 */

#ifndef RTGS_SLAM_MAPPER_HH
#define RTGS_SLAM_MAPPER_HH

#include <deque>
#include <functional>
#include <vector>

#include "gs/render_pipeline.hh"
#include "slam/loss.hh"
#include "slam/optimizer.hh"

namespace rtgs::slam
{

/** A keyframe retained in the mapping window. */
struct KeyframeRecord
{
    u32 frameIndex = 0;
    SE3 pose;
    ImageRGB rgb;
    ImageF depth;
};

/** Mapping configuration. */
struct MapperConfig
{
    u32 iterations = 15;
    /** Keyframes kept in the optimisation window. */
    u32 windowSize = 3;
    /**
     * Multi-view window B: how many window keyframes each optimiser
     * step renders. 0 (the default) and 1 both run the sequential
     * newest/rest alternation — one view per step, byte-identical to
     * the pre-multi-view recipe. B >= 2 renders min(B, windowSize)
     * views per step (the newest keyframe plus a rotating selection of
     * the rest), sums their gradients deterministically (bitwise
     * independent of the render worker count), and applies one
     * averaged update. Changes numerics for B >= 2 — see the
     * bench_fig15 multi-view ablation.
     */
    u32 multiViewWindow = 0;
    MapLearningRates learningRates;
    LossConfig loss;

    // Densification: pixels sampled on a stride; a Gaussian is inserted
    // where the map has no coverage or a large depth error.
    u32 densifyStride = 4;
    Real densifyAlphaThreshold = Real(0.5);
    Real densifyDepthError = Real(0.15);
    Real newGaussianOpacity = Real(0.7);
    /** Upper bound on map size (resource cap). */
    size_t maxGaussians = 2'000'000;

    /** Opacity below which Gaussians are removed during cleanup. */
    Real pruneOpacity = Real(0.02);
};

/** Per-map-iteration observer (mirrors the tracker's hook). */
struct MapIterationContext
{
    u32 iteration = 0;
    const gs::ForwardContext *forward = nullptr;
    const gs::BackwardResult *backward = nullptr;
    double loss = 0;
};

using MapIterationHook = std::function<void(const MapIterationContext &)>;

/**
 * One keyframe's mapping call: the record + budget going in, the
 * per-keyframe outcome coming back out.
 */
struct MapBatchItem
{
    KeyframeRecord record;   //!< consumed (moved into the window)
    u32 iterationBudget = 0; //!< 0 = mapper config default
    double mapLoss = 0;      //!< final loss for this keyframe
    size_t densified = 0;    //!< Gaussians inserted for this keyframe
    /** Views rendered by this keyframe's final optimiser step (1 on
     *  the sequential path; up to multiViewWindow once the window has
     *  filled). */
    u32 multiViews = 0;
};

/** Keyframe mapper; owns the keyframe window and the map optimiser. */
class Mapper
{
  public:
    explicit Mapper(const MapperConfig &config = {});

    const MapperConfig &config() const { return config_; }
    MapperConfig &config() { return config_; }

    /** Keyframes currently in the window. */
    const std::deque<KeyframeRecord> &window() const { return window_; }

    /** Insert a keyframe into the window (evicting the oldest). */
    void addKeyframe(KeyframeRecord record);

    /**
     * Densify the map from a keyframe observation: back-project pixels
     * that the current map fails to explain. Returns the number of
     * Gaussians added.
     */
    size_t densify(const gs::RenderPipeline &pipeline,
                   gs::GaussianCloud &cloud, const Intrinsics &intr,
                   const KeyframeRecord &record);

    /**
     * Run one keyframe through the full mapping recipe (densify →
     * admit → optimise → prune transparent), reusing one backward
     * gradient arena across the call's iterations. This is the ONE
     * copy of the recipe; SlamSystem::runMapJob calls it in sync and
     * async mode alike, so sync/async byte-identity holds by
     * construction. The item's iteration budget caps the configured
     * count (0 keeps it; never raises it). With multiViewWindow >= 2
     * the optimise stage runs multi-view steps (several window
     * keyframes per averaged update — see src/slam/README.md); <= 1
     * keeps the sequential alternation.
     */
    void mapBatch(const gs::RenderPipeline &pipeline,
                  gs::GaussianCloud &cloud, const Intrinsics &intr,
                  MapBatchItem &item,
                  const MapIterationHook &hook = nullptr);

    /**
     * Window indices optimiser step `iteration` renders, newest view
     * last (its loss is the step's reported loss). With
     * multi_view_window <= 1 this is the sequential alternation —
     * newest on even steps, a rotating pick of the rest on odd ones —
     * so B = 0 and B = 1 reproduce the single-view recipe exactly.
     * With B >= 2 every step renders the newest keyframe plus
     * min(B, window_size) - 1 distinct older ones, rotated by step so
     * the whole window is revisited. Exposed for the window-selection
     * unit tests.
     */
    static std::vector<size_t> multiViewSelection(size_t window_size,
                                                  u32 iteration,
                                                  u32 multi_view_window);

    /** Remove near-transparent Gaussians; returns how many were cut. */
    size_t pruneTransparent(gs::GaussianCloud &cloud);

    /**
     * Mirror an externally performed compaction (e.g. RTGS pruning) in
     * the optimiser's moment buffers.
     */
    void remapOptimizer(const std::vector<u8> &keep);

    /** Reset optimiser + window state. */
    void reset();

  private:
    /** The mapping iteration loop, writing into a caller-owned
     *  gradient arena. */
    double mapIterations(const gs::RenderPipeline &pipeline,
                         gs::GaussianCloud &cloud, const Intrinsics &intr,
                         const MapIterationHook &hook, u32 max_iters,
                         gs::BackwardResult &back);

    MapperConfig config_;
    std::deque<KeyframeRecord> window_;
    MapOptimizer optimizer_;
    /** Per-view scratch for multi-view steps (views beyond the first
     *  write here before folding into the step's arena). */
    gs::BackwardResult viewScratch_;
    /** Views rendered by the most recent optimiser step. */
    u32 lastStepViews_ = 0;
};

} // namespace rtgs::slam

#endif // RTGS_SLAM_MAPPER_HH
