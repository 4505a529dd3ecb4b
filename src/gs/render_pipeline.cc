#include "gs/render_pipeline.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace rtgs::gs
{

namespace
{

/**
 * Preprocessing-BP block size: the pose twist is reduced over
 * fixed-size Gaussian blocks (not per-worker ranges), so the summation
 * order — and hence the result, bitwise — is independent of how many
 * threads ran the pass.
 */
constexpr size_t kPoseBlock = 256;

} // namespace

/**
 * Reusable backward-pass working memory. One arena is checked out per
 * backward() call, so concurrent calls (tracking overlapped with async
 * mapping) each get their own; steady-state iterations re-use the
 * buffers instead of re-allocating workers x cloud-size accumulators
 * every call.
 */
struct RenderPipeline::BackwardScratch
{
    std::vector<SplatGradRecord> records; //!< parallel to bins.indices
    std::vector<Twist> poseBlocks;        //!< per-block pose partials
};

RenderPipeline::RenderPipeline(const RenderSettings &settings)
    : settings_(settings)
{
}

RenderPipeline::~RenderPipeline() = default;

RenderPipeline::RenderPipeline(const RenderPipeline &other)
    : settings_(other.settings_), pool_(other.pool_)
{
}

RenderPipeline &
RenderPipeline::operator=(const RenderPipeline &other)
{
    settings_ = other.settings_;
    pool_ = other.pool_;
    return *this;
}

ThreadPool &
RenderPipeline::pool() const
{
    return pool_ ? *pool_ : globalPool();
}

std::unique_ptr<RenderPipeline::BackwardScratch>
RenderPipeline::acquireScratch() const
{
    {
        MutexLock lock(scratchMutex_);
        if (!scratchFree_.empty()) {
            auto scratch = std::move(scratchFree_.back());
            scratchFree_.pop_back();
            return scratch;
        }
    }
    return std::make_unique<BackwardScratch>();
}

void
RenderPipeline::releaseScratch(
    std::unique_ptr<BackwardScratch> scratch) const
{
    MutexLock lock(scratchMutex_);
    scratchFree_.push_back(std::move(scratch));
}

WorkloadSummary
ForwardContext::workload() const
{
    WorkloadSummary w;
    w.activeGaussians = projected.validCount();
    w.culledGaussians = projected.size() - w.activeGaussians;
    w.tileIntersections = bins.totalIntersections();
    w.fragmentsIterated = result.totalFragments();
    w.fragmentsBlended = result.totalBlended();
    w.imagePixels = static_cast<u64>(result.image.width()) *
                    result.image.height();
    return w;
}

ForwardContext
RenderPipeline::forward(const GaussianCloud &cloud,
                        const Camera &camera) const
{
    ForwardContext ctx;
    ctx.camera = camera;
    ctx.grid = TileGrid(camera.intr.width, camera.intr.height,
                        settings_.tileSize);
    ThreadPool &pool = this->pool();
    ctx.projected = projectGaussians(cloud, camera, settings_, pool);
    ctx.bins = intersectTiles(ctx.projected, ctx.grid, pool);
    sortTilesByDepth(ctx.bins, ctx.projected, pool);

    ctx.result = makeRenderResult(ctx.grid);
    pool.parallelForChunks(
        0, ctx.grid.tileCount(), [&](size_t lo, size_t hi) {
            for (size_t t = lo; t < hi; ++t)
                rasterizeTile(static_cast<u32>(t), ctx.projected,
                              ctx.bins, ctx.grid, settings_, ctx.result);
        });
    return ctx;
}

void
RenderPipeline::backward(const GaussianCloud &cloud,
                         const ForwardContext &ctx,
                         const ImageRGB &dl_dcolor,
                         const ImageF *dl_ddepth, bool compute_pose_grad,
                         BackwardResult &out) const
{
    ThreadPool &pool = this->pool();
    std::unique_ptr<BackwardScratch> scratch = acquireScratch();
    const size_t n = cloud.size();

    // Step 4, splat-major: every tile writes its slice of the flat
    // per-slot record buffer — disjoint ranges, no accumulator copies
    // per worker. parallelForChunks handles the degenerate shapes
    // (1 tile, tiles < workers) that hand-rolled chunk math got wrong.
    scratch->records.resize(ctx.bins.indices.size());
    pool.parallelForChunks(
        0, ctx.grid.tileCount(), [&](size_t lo, size_t hi) {
            for (size_t t = lo; t < hi; ++t)
                backwardTileSplatMajor(static_cast<u32>(t), ctx.projected,
                                       ctx.bins, ctx.grid, settings_,
                                       ctx.result, dl_dcolor, dl_ddepth,
                                       scratch->records.data());
        });

    // Per-Gaussian reduction in flat-buffer order: deterministic for
    // any thread count (the CPU stand-in for the GMU's conflict-free
    // gradient aggregation).
    out.grad2d.resize(n);
    gatherSplatGradients(ctx.bins, scratch->records, out.grad2d);

    // Step 5: embarrassingly parallel over Gaussians; the pose twist is
    // reduced over fixed-size blocks in block order so the result does
    // not depend on the worker count.
    out.grads.resize(n);
    const size_t nblocks = (n + kPoseBlock - 1) / kPoseBlock;
    scratch->poseBlocks.assign(nblocks, Twist{});
    pool.parallelForChunks(0, nblocks, [&](size_t blo, size_t bhi) {
        for (size_t b = blo; b < bhi; ++b) {
            size_t k0 = b * kPoseBlock;
            size_t k1 = std::min(n, k0 + kPoseBlock);
            Twist *pg =
                compute_pose_grad ? &scratch->poseBlocks[b] : nullptr;
            for (size_t k = k0; k < k1; ++k)
                preprocessBackwardOne(k, cloud, ctx.camera, out.grad2d,
                                      ctx.projected, out.grads, pg);
        }
    });
    Twist pose{};
    for (const Twist &p : scratch->poseBlocks)
        pose = pose + p;
    out.poseGrad = pose;

    releaseScratch(std::move(scratch));
}

BackwardResult
RenderPipeline::backward(const GaussianCloud &cloud,
                         const ForwardContext &ctx,
                         const ImageRGB &dl_dcolor,
                         const ImageF *dl_ddepth,
                         bool compute_pose_grad) const
{
    BackwardResult out;
    backward(cloud, ctx, dl_dcolor, dl_ddepth, compute_pose_grad, out);
    return out;
}

void
RenderPipeline::accumulateBackward(BackwardResult &sum,
                                   const BackwardResult &view) const
{
    const size_t n = sum.grads.size();
    rtgs_assert(view.grads.size() == n);
    rtgs_assert(sum.grad2d.size() == n && view.grad2d.size() == n);

    // Every Gaussian lane belongs to exactly one chunk and the views
    // arrive through serial calls, so the per-lane summation order is
    // fixed regardless of how chunks were scheduled across workers.
    // The lane lists live with the gradient structs (accumulateRange)
    // so a new lane cannot be missed here.
    pool().parallelForChunks(0, n, [&](size_t lo, size_t hi) {
        sum.grads.accumulateRange(view.grads, lo, hi);
        sum.grad2d.accumulateRange(view.grad2d, lo, hi);
    });
    sum.poseGrad = sum.poseGrad + view.poseGrad;
}

void
RenderPipeline::scaleBackward(BackwardResult &sum, Real s) const
{
    if (s == Real(1))
        return;
    pool().parallelForChunks(0, sum.grads.size(),
                             [&](size_t lo, size_t hi) {
        sum.grads.scaleRange(s, lo, hi);
        sum.grad2d.scaleRange(s, lo, hi);
    });
    for (int c = 0; c < 6; ++c)
        sum.poseGrad[c] *= s;
}

} // namespace rtgs::gs
