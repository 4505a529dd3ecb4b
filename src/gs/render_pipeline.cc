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

RenderPipeline::RenderPipeline(const RenderSettings &settings)
    : settings_(settings)
{
}

ThreadPool &
RenderPipeline::pool() const
{
    return pool_ ? *pool_ : globalPool();
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
    ctx.bins = intersectTiles(ctx.projected, ctx.grid);
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
    const size_t n = cloud.size();

    // Working memory belongs to the calling thread, like the tile
    // kernels' buffers: concurrent calls (tracking overlapped with
    // async mapping) run on different threads, and a thread's next call
    // reuses the capacity. The chunk lambdas run on pool workers too,
    // so they must use these references, never the thread_local names.
    thread_local std::vector<SplatGradRecord> tl_records;
    thread_local std::vector<Twist> tl_pose_blocks;
    std::vector<SplatGradRecord> &records = tl_records;
    std::vector<Twist> &pose_blocks = tl_pose_blocks;

    // Step 4, splat-major: every tile writes its slice of the flat
    // per-slot record buffer — disjoint ranges, no accumulator copies
    // per worker. parallelForChunks handles the degenerate shapes
    // (1 tile, tiles < workers) that hand-rolled chunk math got wrong.
    records.resize(ctx.bins.indices.size());
    pool.parallelForChunks(
        0, ctx.grid.tileCount(), [&](size_t lo, size_t hi) {
            for (size_t t = lo; t < hi; ++t)
                backwardTileSplatMajor(static_cast<u32>(t), ctx.projected,
                                       ctx.bins, ctx.grid, settings_,
                                       ctx.result, dl_dcolor, dl_ddepth,
                                       records.data());
        });

    // Per-Gaussian reduction in flat-buffer order: deterministic for
    // any thread count (the CPU stand-in for the GMU's conflict-free
    // gradient aggregation).
    out.grad2d.resize(n);
    gatherSplatGradients(ctx.bins, records, out.grad2d);

    // Step 5: embarrassingly parallel over Gaussians; the pose twist is
    // reduced over fixed-size blocks in block order so the result does
    // not depend on the worker count.
    out.grads.resize(n);
    const size_t nblocks = (n + kPoseBlock - 1) / kPoseBlock;
    pose_blocks.assign(nblocks, Twist{});
    pool.parallelForChunks(0, nblocks, [&](size_t blo, size_t bhi) {
        for (size_t b = blo; b < bhi; ++b) {
            size_t k0 = b * kPoseBlock;
            size_t k1 = std::min(n, k0 + kPoseBlock);
            Twist *pg = compute_pose_grad ? &pose_blocks[b] : nullptr;
            for (size_t k = k0; k < k1; ++k)
                preprocessBackwardOne(k, cloud, ctx.camera, out.grad2d,
                                      ctx.projected, out.grads, pg);
        }
    });
    Twist pose{};
    for (const Twist &p : pose_blocks)
        pose = pose + p;
    out.poseGrad = pose;
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
