/**
 * @file
 * Splat kernels for the splat-major forward blend and backward
 * gradient walks, the exact exp they call, and the runtime dispatcher
 * that picks an implementation per SIMD level.
 *
 * A splat kernel processes one splat's clipped cutoff-ellipse bounding
 * box inside one tile against the tile's SoA per-pixel state: the row
 * loop lives inside the kernel and the splat's constants are set up
 * once, so the CPU overlaps independent rows. The tile drivers
 * (`rasterizeTile`, `backwardTileSplatMajor`) own traversal order, the
 * cutoff-ellipse clip and the per-splat record write; the kernels own
 * the per-pixel arithmetic.
 *
 * One template body, two lane types: the forward, the backward and the
 * double core of the exact exp are written once over a lane type
 * (gs/row_kernels_body.hh) and instantiated twice:
 *  - scalar table — one pixel per step (gs/row_kernels.cc); the
 *    fallback when AVX2 is unavailable.
 *  - AVX2 table — 8 lanes per step (gs/row_kernels_avx2.cc), compiled
 *    in one TU with -mavx2 and selected only when CPUID reports support
 *    (common/cpu_features.hh).
 * Both run the same IEEE operations per lane in the same order, by
 * construction, with no FMA (the library pins -ffp-contract=off and the
 * AVX2 TU gets -mavx2 alone), and the backward sums every per-splat
 * gradient in one fixed order (8 lane partial sums, one reduction tree;
 * see BackwardSplatFn). They therefore give the same bytes, and the
 * serial reference, which calls the same expExact, gives them too.
 */

#ifndef RTGS_GS_ROW_KERNELS_HH
#define RTGS_GS_ROW_KERNELS_HH

#include <cstddef>

#include "common/cpu_features.hh"
#include "gs/rasterizer.hh"

namespace rtgs::gs
{

/** Sentinel for "pixel never terminated" in the forward term array. */
inline constexpr u32 kRowNotTerminated = 0xFFFFFFFFu;

/**
 * Elements every tile-state array carries past its last pixel. The AVX2
 * body loads and stores whole 8-lane steps, so a row's last step reaches
 * up to 7 elements past the row; lanes outside the footprint store back
 * the value they loaded.
 */
inline constexpr u32 kTileStatePad = 8;

/** Blend thresholds shared by every kernel (from RenderSettings). */
struct SplatKernelCtx
{
    Real alphaMin;
    Real alphaMax;
    Real tEps;
};

/**
 * One splat's clipped footprint in one tile. The tile state is
 * row-major from the tile origin with row stride `tw`, so pixel
 * (px, py) sits at index (py - y0) * tw + (px - x0).
 */
struct SplatFootprint
{
    u32 sx0, sy0, sx1, sy1; //!< clipped bbox [sx0,sx1) x [sy0,sy1)
    u32 x0, y0;             //!< tile origin
    u32 tw;                 //!< tile width (state row stride)
    u32 slot;               //!< the splat's position in the tile stream
};

/**
 * SoA per-pixel forward state of one tile, each array padded by
 * kTileStatePad. Disjoint per tile, so kernels never synchronise.
 */
struct ForwardTileState
{
    Real *T;      //!< running transmittance
    Real *r, *g, *b; //!< accumulated colour
    Real *d;      //!< accumulated alpha-weighted depth
    u32 *blended; //!< fragments blended so far
    u32 *term;    //!< stream slot of termination (kRowNotTerminated)
};

/**
 * Blend splat `g` into every pixel of its footprint. Returns how many
 * pixels newly crossed the termination threshold.
 */
using ForwardSplatFn = u32 (*)(const HotSplat &g, const SplatFootprint &fp,
                               const SplatKernelCtx &ctx,
                               const ForwardTileState &st);

/**
 * One splat's gradient sums over its footprint, folded into a
 * SplatGradRecord by the tile driver. Raw moment sums; conic factors
 * and the -1/2 are applied once per splat.
 */
struct BackwardSplatAccum
{
    Real dR = 0, dG = 0, dB = 0, dDepth = 0, dOp = 0;
    Real sX = 0, sY = 0, sXX = 0, sXY = 0, sYY = 0;
};

/** SoA per-pixel backward state of one tile, padded like the forward's. */
struct BackwardTileState
{
    Real *T;       //!< rear transmittance (rewinds front-to-back)
    Real *acc;     //!< rear colour/depth pre-dotted with adjoints
    const Real *bgT;  //!< finalT * background.dot(dL/dC)
    const Real *dlR, *dlG, *dlB, *dlD; //!< loss adjoints
    const u32 *ce; //!< per-pixel contributor count (forward nContrib)
};

/**
 * Accumulate splat `g`'s gradient over its footprint, rewinding the
 * tile's rear state. Rows whose `row_ce` (indexed py - y0) is at most
 * the slot are skipped: every pixel there terminated earlier.
 *
 * Summation order, shared by both tables: each of the ten sums keeps 8
 * lane partial sums over all rows of the splat, lane k taking the
 * columns with (px - sx0) mod 8 == k, rows in order; the partials are
 * reduced once, as ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7)).
 */
using BackwardSplatFn = BackwardSplatAccum (*)(const HotSplat &g,
                                               const SplatFootprint &fp,
                                               const SplatKernelCtx &ctx,
                                               const BackwardTileState &st,
                                               const u32 *row_ce);

/** The kernels' exp over a batch (for the exp contract tests). */
using ExpBatchFn = void (*)(const Real *x, Real *out, size_t n);

/** The kernel table of one ISA. */
struct SplatKernels
{
    ForwardSplatFn forwardSplat;
    BackwardSplatFn backwardSplat;
    ExpBatchFn expBatch;
    const char *name; //!< "scalar-exact" or "avx2-exact" (for JSON)
};

/**
 * Pick the kernel table at an explicit SIMD level: the AVX2 table when
 * the level allows and the binary carries it, else the scalar table.
 */
const SplatKernels &selectSplatKernels(SimdLevel level);

/** Dispatch at the process's active SIMD level (CPUID + RTGS_SIMD). */
inline const SplatKernels &
selectSplatKernels()
{
    return selectSplatKernels(activeSimdLevel());
}

/**
 * The exact exp of the splat math, libm-free: widens to double, reduces
 * by n = round(x / ln 2) with a hi/lo split of ln 2, evaluates a
 * degree-8 Taylor polynomial in Estrin form with plain mul/add, scales
 * by 2^n through the exponent bits and narrows to float once. Within
 * 1 ulp of std::exp (every float in [-87, 0] checked, the rest of the
 * range on a strided sweep); NaN stays NaN. The AVX2 table runs the
 * same core on 4-double lanes and gives the same bytes. Called by the
 * scalar kernels, the serial reference forward and the pixel-major
 * backward.
 */
Real expExact(Real x);

/**
 * AVX2 kernel table from the -mavx2 TU, or nullptr when the toolchain
 * could not build it. Internal to the dispatcher; call through
 * selectSplatKernels() everywhere else.
 */
const SplatKernels *splatKernelsAvx2();

} // namespace rtgs::gs

#endif // RTGS_GS_ROW_KERNELS_HH
