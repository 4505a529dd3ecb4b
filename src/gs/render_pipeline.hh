/**
 * @file
 * End-to-end differentiable rendering: orchestrates Steps 1-5 with
 * tile-level multithreading, and retains every intermediate the SLAM
 * layer and the hardware models need (projected Gaussians, tile bins,
 * per-pixel workload counters).
 */

#ifndef RTGS_GS_RENDER_PIPELINE_HH
#define RTGS_GS_RENDER_PIPELINE_HH

#include "gs/backward.hh"

namespace rtgs
{
class ThreadPool;
}

namespace rtgs::gs
{

/**
 * Per-frame workload counters in one compact record. The similarity
 * gate and the hardware models consume these instead of re-deriving
 * them from the full forward context.
 */
struct WorkloadSummary
{
    size_t activeGaussians = 0;   //!< projected (unmasked) Gaussians
    size_t culledGaussians = 0;   //!< masked or frustum/size-culled
    u64 tileIntersections = 0;    //!< Gaussian-tile pairs binned
    u64 fragmentsIterated = 0;    //!< fragments examined by rasterisation
    u64 fragmentsBlended = 0;     //!< fragments above the alpha threshold
    u64 imagePixels = 0;          //!< pixels rendered (for normalising)

    /** Fragments per rendered pixel — comparable across frames even
     *  when dynamic downsampling changes the tracking resolution. */
    double
    fragmentsPerPixel() const
    {
        return imagePixels
                   ? static_cast<double>(fragmentsIterated) /
                         static_cast<double>(imagePixels)
                   : 0.0;
    }
};

/** All forward-pass intermediates for one rendered view. */
struct ForwardContext
{
    Camera camera;
    TileGrid grid;
    ProjectedCloud projected;
    TileBins bins;
    RenderResult result;

    /** Summarise this frame's workload counters. */
    WorkloadSummary workload() const;
};

/**
 * Thread-parallel renderer: a plain value of settings plus a pool
 * pointer. It holds no mutable state; every working buffer belongs to
 * the thread using it, so concurrent forward/backward calls on one
 * pipeline (tracking overlapped with async mapping) stay safe.
 */
class RenderPipeline
{
  public:
    explicit RenderPipeline(const RenderSettings &settings = {});

    const RenderSettings &settings() const { return settings_; }
    RenderSettings &settings() { return settings_; }

    /**
     * Thread pool override for every stage of forward and backward
     * (projection, binning, sort, rasterise, backward), mainly for
     * tests that pin a worker count; nullptr (the default) selects the
     * process-wide globalPool(). All pipeline outputs are bitwise
     * independent of the pool size.
     */
    void setPool(ThreadPool *pool) { pool_ = pool; }

    /** Steps 1-3: project, bin, sort, rasterise. */
    ForwardContext forward(const GaussianCloud &cloud,
                           const Camera &camera) const;

    /**
     * Steps 4-5 from a forward context and per-pixel loss gradients,
     * reusing `out`'s buffers (callers that run backward every
     * iteration keep one BackwardResult alive across the loop and pay
     * no per-iteration allocation).
     *
     * @param compute_pose_grad accumulate dL/dP (tracking stages)
     */
    void backward(const GaussianCloud &cloud, const ForwardContext &ctx,
                  const ImageRGB &dl_dcolor, const ImageF *dl_ddepth,
                  bool compute_pose_grad, BackwardResult &out) const;

    /** Convenience overload returning a fresh BackwardResult. */
    BackwardResult backward(const GaussianCloud &cloud,
                            const ForwardContext &ctx,
                            const ImageRGB &dl_dcolor,
                            const ImageF *dl_ddepth,
                            bool compute_pose_grad) const;

    /**
     * Multi-target reduction: fold one view's backward result into a
     * running multi-view sum, lane by lane (sum += view) over fixed
     * per-Gaussian chunks. Each lane is touched by exactly one chunk
     * and views are folded in call order, so — like every other
     * pipeline output — the sum is bitwise independent of the worker
     * count. The 2D buffers are summed too: across views they lose
     * their per-image-plane meaning but keep the magnitude semantics
     * the importance score (Eq. 7) and the hardware models consume.
     */
    void accumulateBackward(BackwardResult &sum,
                            const BackwardResult &view) const;

    /**
     * Scale every gradient lane (3D, 2D, and pose) by `s` — 1/B turns
     * a B-view sum into the averaged update a multi-view optimiser
     * step applies. s == 1 is an exact no-op.
     */
    void scaleBackward(BackwardResult &sum, Real s) const;

  private:
    ThreadPool &pool() const;

    RenderSettings settings_;
    ThreadPool *pool_ = nullptr;
};

} // namespace rtgs::gs

#endif // RTGS_GS_RENDER_PIPELINE_HH
