/**
 * @file
 * Steps 4 and 5 of the pipeline: Rendering Backpropagation and
 * Preprocessing Backpropagation.
 *
 * Step 4 propagates per-pixel colour/depth loss gradients to pixel-level
 * 2D Gaussian gradients (Eq. 4/5) and aggregates them per Gaussian —
 * the aggregation whose memory behaviour the GMU targets. Step 5
 * propagates 2D Gaussian gradients to the 3D parameters, and (for
 * tracking) to the camera pose twist dL/dP.
 */

#ifndef RTGS_GS_BACKWARD_HH
#define RTGS_GS_BACKWARD_HH

#include <vector>

#include "geometry/camera.hh"
#include "gs/rasterizer.hh"

namespace rtgs::gs
{

/**
 * Per-Gaussian 2D gradient accumulators (the dL/dG2D of the paper).
 * The symmetric `dConic` stores the off-diagonal as the *sum* of both
 * matrix entries; helpers in the implementation convert to full-matrix
 * form for the chain rule.
 */
struct Gradient2DBuffers
{
    std::vector<Vec2f> dMean2d;
    std::vector<Sym2f> dConic;
    std::vector<Vec3f> dColor;       //!< w.r.t. activated RGB
    std::vector<Real> dOpacityAct;   //!< w.r.t. activated opacity
    std::vector<Real> dDepth;        //!< w.r.t. camera-space depth

    void resize(size_t n);
    size_t size() const { return dMean2d.size(); }

    /** Elementwise in-place sum over Gaussians [lo, hi) — the chunk
     *  body of parallel reductions (RenderPipeline::accumulateBackward).
     *  Shapes must match. */
    void accumulateRange(const Gradient2DBuffers &other, size_t lo,
                         size_t hi);

    /** Scale every lane of Gaussians [lo, hi) by s. */
    void scaleRange(Real s, size_t lo, size_t hi);
};

/** Everything the backward pass produces. */
struct BackwardResult
{
    CloudGrads grads;        //!< dL/dG3D (raw-parameter gradients)
    Twist poseGrad;          //!< dL/dP (left-perturbation twist)
    Gradient2DBuffers grad2d; //!< aggregated dL/dG2D (kept for HW models)
};

/**
 * One (tile, stream-slot) 2D-gradient contribution emitted by the
 * splat-major backward tile kernel: the tile-local sum, over every
 * pixel that blended the splat, of the pixel-level dL/dG2D terms. Slot
 * i of tile t describes the Gaussian bins.tileData(t)[i]; the flat
 * record array is parallel to TileBins::indices, so the per-Gaussian
 * reduction (gatherSplatGradients) is a deterministic walk of the flat
 * buffer, independent of how tiles were scheduled across threads.
 */
struct SplatGradRecord
{
    Real dMeanX = 0, dMeanY = 0;
    Real dConicXX = 0, dConicXY = 0, dConicYY = 0; //!< symmetric-sum form
    Real dColorR = 0, dColorG = 0, dColorB = 0;
    Real dOpacityAct = 0;
    Real dDepth = 0;
};

/**
 * Step 4 for a single tile, splat-major: mirror of the forward
 * rasteriser's structure. Walks the tile's hot-splat stream in reverse
 * depth order, touching only the pixels inside each splat's
 * cutoff-ellipse bounding box, and runs the standard back-to-front
 * blending recurrence from the per-pixel terminal state the forward
 * pass saved in `result` (finalT and nContrib) — no per-pixel forward
 * re-walk, no fragment records. Writes one SplatGradRecord per stream
 * slot into records[bins.offsets[tile] .. bins.offsets[tile + 1]);
 * every slot of a non-empty tile is written (zeros for splats nothing
 * blended), so the caller never needs to pre-zero the array.
 *
 * The recovered per-fragment transmittance divides the running rear
 * transmittance by (1 - alpha) instead of replaying the forward
 * product, so gradients agree with the seed's pixel-major walk
 * (backwardTile, oracle/backward_reference.hh) to ~1 ulp per blended
 * fragment rather than bit-exactly (see src/gs/README.md).
 */
void backwardTileSplatMajor(u32 tile, const ProjectedCloud &projected,
                            const TileBins &bins, const TileGrid &grid,
                            const RenderSettings &settings,
                            const RenderResult &result,
                            const ImageRGB &dl_dcolor,
                            const ImageF *dl_ddepth,
                            SplatGradRecord *records);

/**
 * Reduce the flat per-slot records into per-Gaussian 2D gradient
 * buffers (which must already be sized and zeroed). Runs in flat-buffer
 * order — tiles ascending, stream slots ascending — so the summation
 * order is fixed no matter how many threads produced the records.
 */
void gatherSplatGradients(const TileBins &bins,
                          const std::vector<SplatGradRecord> &records,
                          Gradient2DBuffers &out);

/**
 * Step 5 for one Gaussian: transform its aggregated 2D gradients into 3D
 * parameter gradients, and optionally accumulate the camera pose twist.
 */
void preprocessBackwardOne(size_t k, const GaussianCloud &cloud,
                           const Camera &camera,
                           const Gradient2DBuffers &g2d,
                           const ProjectedCloud &projected,
                           CloudGrads &out, Twist *pose_grad);

} // namespace rtgs::gs

#endif // RTGS_GS_BACKWARD_HH
