/**
 * @file
 * Contract tests for the splat kernels and their SIMD dispatch:
 *
 *  - the production forward pass is BITWISE identical to the serial
 *    reference (the strongest cross-implementation check the repo has:
 *    two independent loop structures, one bit pattern), and the AVX2
 *    body and the scalar twin give the same bytes: the exact exp, the
 *    forward outputs, the backward's per-splat records and a whole
 *    MonoGS run, plus both tables called directly on crafted edge
 *    footprints (every tail length, clamped alpha, terminated pixels,
 *    skipped rows);
 *  - the exact exp honours its <= 1 ulp bound over the live power
 *    range, on whatever path the process dispatches to (AVX2 or
 *    scalar);
 *  - a forward pass is bitwise deterministic across 1/2/4 render
 *    workers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "byte_identity.hh"
#include "common/cpu_features.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "data/dataset.hh"
#include "gs/backward.hh"
#include "gs/render_pipeline.hh"
#include "gs/row_kernels.hh"
#include "oracle/reference.hh"
#include "slam/pipeline.hh"

namespace rtgs::gs
{

namespace
{

/** Randomised cloud + camera (same flavour as the equivalence sweeps). */
struct SimdScene
{
    GaussianCloud cloud;
    Camera camera;

    explicit SimdScene(u64 seed, size_t count = 80)
    {
        Rng rng(seed);
        for (size_t i = 0; i < count; ++i) {
            Vec3f pos{static_cast<Real>(rng.uniform(-1.2, 1.2)),
                      static_cast<Real>(rng.uniform(-0.9, 0.9)),
                      static_cast<Real>(rng.uniform(1.2, 5.0))};
            Real scale = static_cast<Real>(rng.uniform(0.04, 0.4));
            Real opacity = static_cast<Real>(rng.uniform(0.05, 0.95));
            Vec3f rgb{static_cast<Real>(rng.uniform(0.05, 0.95)),
                      static_cast<Real>(rng.uniform(0.05, 0.95)),
                      static_cast<Real>(rng.uniform(0.05, 0.95))};
            cloud.pushIsotropic(pos, scale, opacity, rgb);
            if (i % 2 == 0) {
                cloud.logScales.mut()[i].x +=
                    static_cast<Real>(rng.uniform(-0.8, 0.8));
                cloud.rotations.mut()[i] = Quatf::fromAxisAngle(
                    {static_cast<Real>(rng.normal()),
                     static_cast<Real>(rng.normal()),
                     static_cast<Real>(rng.normal())},
                    static_cast<Real>(rng.uniform(0, 3)));
            }
        }
        camera = Camera(Intrinsics::fromFov(Real(1.2), 144, 112),
                        SE3::lookAt(
                            {static_cast<Real>(rng.uniform(-0.3, 0.3)),
                             static_cast<Real>(rng.uniform(-0.3, 0.3)),
                             static_cast<Real>(rng.uniform(-0.5, 0.0))},
                            {0, 0, 3}));
    }
};

/** ulp distance between two floats of the same sign regime. */
u32
ulpDiff(float a, float b)
{
    i32 ia, ib;
    std::memcpy(&ia, &a, 4);
    std::memcpy(&ib, &b, 4);
    // Map to a monotonic integer line (both values positive here).
    i64 d = static_cast<i64>(ia) - static_cast<i64>(ib);
    return static_cast<u32>(d < 0 ? -d : d);
}

/** Bitwise image compare. */
bool
bitIdentical(const ImageRGB &a, const ImageRGB &b)
{
    return a.pixelCount() == b.pixelCount() &&
           std::memcmp(a.data(), b.data(),
                       a.pixelCount() * sizeof(Vec3f)) == 0;
}

ForwardContext
renderOn(const SimdScene &scene, ThreadPool *pool)
{
    RenderSettings settings;
    settings.background = {0.1f, 0.2f, 0.3f};
    RenderPipeline pipe(settings);
    pipe.setPool(pool);
    return pipe.forward(scene.cloud, scene.camera);
}

/** Bitwise compare of two equally sized buffers of T. */
template <typename T>
bool
sameBytes(const T *a, const T *b, size_t n)
{
    return std::memcmp(a, b, n * sizeof(T)) == 0;
}

/** One forward plus the backward's per-splat records. */
struct KernelRun
{
    ForwardContext fwd;
    std::vector<SplatGradRecord> records;
};

/**
 * Render the scene at an explicit dispatch level and run the
 * splat-major backward over every tile, with adjoints drawn from a
 * fixed seed (every seventh pixel zero, to exercise the zero-adjoint
 * skip).
 */
KernelRun
runAt(const SimdScene &scene, SimdLevel level)
{
    ScopedSimdLevel pin(level);
    RenderSettings settings;
    settings.background = {0.1f, 0.2f, 0.3f};
    RenderPipeline pipe(settings);
    KernelRun run{pipe.forward(scene.cloud, scene.camera), {}};
    const ForwardContext &f = run.fwd;

    ImageRGB dl_dcolor(f.grid.width, f.grid.height);
    ImageF dl_ddepth(f.grid.width, f.grid.height);
    Rng rng(99);
    for (size_t i = 0; i < dl_dcolor.pixelCount(); ++i) {
        const bool zero = i % 7 == 0;
        for (int c = 0; c < 3; ++c)
            dl_dcolor[i][c] =
                zero ? Real(0) : static_cast<Real>(rng.uniform(-0.5, 0.5));
        dl_ddepth[i] =
            zero ? Real(0) : static_cast<Real>(rng.uniform(-0.1, 0.1));
    }
    run.records.resize(f.bins.indices.size());
    for (u32 t = 0; t < f.grid.tileCount(); ++t)
        backwardTileSplatMajor(t, f.projected, f.bins, f.grid, settings,
                               f.result, dl_dcolor, &dl_ddepth,
                               run.records.data());
    return run;
}

/**
 * Trajectory+map FNV of a 16-frame MonoGS run (slambench's `single`
 * configuration on a smaller scene) at an explicit dispatch level.
 * Hashes the raw column bytes through data(), as slambench's
 * outputHash does.
 */
u64
monoGsRunHash(SimdLevel level)
{
    ScopedSimdLevel pin(level);
    data::DatasetSpec spec = data::DatasetSpec::tumLike(Real(0.15));
    spec.trajectory.frameCount = 16;
    spec.trajectory.revolutions = Real(0.032);
    data::SyntheticDataset ds(spec);
    slam::SlamConfig cfg =
        slam::SlamConfig::forAlgorithm(slam::BaseAlgorithm::MonoGs);
    cfg.tracker.iterations = 10;
    cfg.tracker.earlyStop = false;
    cfg.mapper.iterations = 12;
    cfg.kfInterval = 4;
    slam::SlamSystem sys(cfg, ds.intrinsics());
    for (u32 f = 0; f < ds.frameCount(); ++f)
        sys.processFrame(ds.frame(f));
    return outputFnv(sys.trajectory(), sys.cloud());
}

/** Crafted splats and their footprints in one 16x16 tile at (32, 48). */
struct EdgeStack
{
    static constexpr u32 kX0 = 32, kY0 = 48, kSide = 16;
    std::vector<HotSplat> splats;
    std::vector<SplatFootprint> fps;
};

/**
 * Footprints of every width 1..16 at several x offsets, so every 8-lane
 * tail length occurs; most splats have opacity 1 and every other one is
 * centred on a pixel, so raw alpha passes alphaMax and the clamped path
 * runs. Three flat, clamped splats first terminate every pixel of rows
 * 12..15, which the backward then skips through row_ce.
 */
EdgeStack
edgeStack()
{
    const RenderSettings settings;
    EdgeStack s;
    Rng rng(27);
    auto add = [&](u32 ox, u32 w, u32 oy, u32 h, Real opacity, Real cxx,
                   Real cxy, Real cyy, bool centred) {
        const u32 sx0 = EdgeStack::kX0 + ox, sy0 = EdgeStack::kY0 + oy;
        HotSplat g{};
        g.mx = static_cast<Real>(sx0) +
               (centred ? static_cast<Real>(w / 2) + Real(0.5)
                        : static_cast<Real>(rng.uniform(0, w)));
        g.my = static_cast<Real>(sy0) +
               (centred ? static_cast<Real>(h / 2) + Real(0.5)
                        : static_cast<Real>(rng.uniform(0, h)));
        g.cxx = cxx;
        g.cxy = cxy;
        g.cyy = cyy;
        g.powerSkip = std::log(settings.alphaMin / opacity) - Real(1e-3);
        g.opacity = opacity;
        g.r = static_cast<Real>(rng.uniform(0, 1));
        g.g = static_cast<Real>(rng.uniform(0, 1));
        g.b = static_cast<Real>(rng.uniform(0, 1));
        g.depth = static_cast<Real>(rng.uniform(1, 5));
        const u32 slot = static_cast<u32>(s.splats.size());
        s.splats.push_back(g);
        s.fps.push_back({sx0, sy0, sx0 + w, sy0 + h, EdgeStack::kX0,
                         EdgeStack::kY0, EdgeStack::kSide, slot});
    };
    for (int i = 0; i < 3; ++i)
        add(0, 16, 12, 4, Real(1), Real(1e-3), Real(0), Real(1e-3), true);
    for (u32 w = 1; w <= 16; ++w) {
        for (u32 ox : {0u, 1u, 5u, 8u, 16u - w}) {
            if (ox + w > 16)
                continue;
            const u32 oy = static_cast<u32>(rng.uniformInt(12));
            const u32 h = 1 + static_cast<u32>(rng.uniformInt(16 - oy));
            const Real cxx = static_cast<Real>(rng.uniform(0.005, 0.6));
            const Real cyy = static_cast<Real>(rng.uniform(0.005, 0.6));
            const Real cxy = static_cast<Real>(rng.uniform(-0.5, 0.5)) *
                             std::sqrt(cxx * cyy);
            const size_t n = s.splats.size();
            const Real opacity =
                n % 3 == 0 ? static_cast<Real>(rng.uniform(0.2, 1))
                           : Real(1);
            add(ox, w, oy, h, opacity, cxx, cxy, cyy, n % 2 == 0);
        }
    }
    return s;
}

/** Everything one kernel table writes over an EdgeStack. */
struct EdgeRun
{
    std::vector<Real> fT, fR, fG, fB, fD;
    std::vector<u32> blended, term, newlyTerminated;
    std::vector<BackwardSplatAccum> accums;
    std::vector<Real> bT, bAcc;
    u32 skippedRows = 0;
};

/**
 * Blend the stack front to back with `k`'s forward kernel, then walk it
 * back to front with `k`'s backward kernel, seeding the backward state
 * the way backwardTileSplatMajor does: ce is the forward's contributor
 * count, 0 where the adjoint is zero (row 5 and every 11th pixel),
 * and row_ce the per-row maximum.
 */
EdgeRun
runEdgeStack(const SplatKernels &k, const EdgeStack &stack)
{
    const RenderSettings settings;
    const SplatKernelCtx ctx{settings.alphaMin, kAlphaMax,
                             settings.transmittanceEps};
    constexpr u32 side = EdgeStack::kSide;
    const size_t n_st = size_t(side) * side + kTileStatePad;
    const u32 n_splats = static_cast<u32>(stack.splats.size());

    EdgeRun r;
    r.fT.assign(n_st, Real(1));
    r.fR.assign(n_st, Real(0));
    r.fG.assign(n_st, Real(0));
    r.fB.assign(n_st, Real(0));
    r.fD.assign(n_st, Real(0));
    r.blended.assign(n_st, 0);
    r.term.assign(n_st, kRowNotTerminated);
    const ForwardTileState fst{r.fT.data(), r.fR.data(),     r.fG.data(),
                               r.fB.data(), r.fD.data(),     r.blended.data(),
                               r.term.data()};
    for (u32 s = 0; s < n_splats; ++s)
        r.newlyTerminated.push_back(
            k.forwardSplat(stack.splats[s], stack.fps[s], ctx, fst));

    const Vec3f bg{0.1f, 0.2f, 0.3f};
    std::vector<Real> bgT(n_st, 0), dlR(n_st, 0), dlG(n_st, 0),
        dlB(n_st, 0), dlD(n_st, 0);
    std::vector<u32> ce(n_st, 0), row_ce(side, 0);
    r.bT = r.fT;
    r.bAcc.assign(n_st, Real(0));
    Rng rng(11);
    for (u32 i = 0; i < side * side; ++i) {
        const bool zero = i / side == 5 || i % 11 == 0;
        const Vec3f dl{
            zero ? Real(0) : static_cast<Real>(rng.uniform(-0.5, 0.5)),
            zero ? Real(0) : static_cast<Real>(rng.uniform(-0.5, 0.5)),
            zero ? Real(0) : static_cast<Real>(rng.uniform(-0.5, 0.5))};
        dlR[i] = dl.x;
        dlG[i] = dl.y;
        dlB[i] = dl.z;
        dlD[i] = zero ? Real(0) : static_cast<Real>(rng.uniform(-0.1, 0.1));
        bgT[i] = r.fT[i] * bg.dot(dl);
        ce[i] = zero                            ? 0
                : r.term[i] != kRowNotTerminated ? r.term[i] + 1
                                                 : n_splats;
        row_ce[i / side] = std::max(row_ce[i / side], ce[i]);
    }
    for (u32 row : row_ce)
        r.skippedRows += row < n_splats ? 1 : 0;
    const BackwardTileState bst{r.bT.data(), r.bAcc.data(), bgT.data(),
                                dlR.data(),  dlG.data(),    dlB.data(),
                                dlD.data(),  ce.data()};
    r.accums.resize(n_splats);
    for (u32 s = n_splats; s-- > 0;)
        r.accums[s] = k.backwardSplat(stack.splats[s], stack.fps[s], ctx,
                                      bst, row_ce.data());
    return r;
}

/**
 * The table the CPU can run above scalar, or nullptr when the CPU or
 * the binary has no AVX2 kernels. Gated on the detected level, not the
 * active one, so RTGS_SIMD=scalar still compares both paths.
 */
const SplatKernels *
avx2Kernels()
{
    const SplatKernels &k = selectSplatKernels(detectedSimdLevel());
    return &k == &selectSplatKernels(SimdLevel::Scalar) ? nullptr : &k;
}

} // namespace

// ---------------------------------------------------------------------
// bitwise identity vs the serial reference and across dispatch levels
// ---------------------------------------------------------------------

class SimdPrecise : public ::testing::TestWithParam<u64>
{
};

TEST_P(SimdPrecise, BitwiseMatchesSerialReference)
{
    SimdScene scene(GetParam());
    RenderSettings settings;
    settings.background = {0.1f, 0.2f, 0.3f};

    ReferenceForward ref =
        forwardReference(scene.cloud, scene.camera, settings);
    RenderPipeline pipe(settings);
    ForwardContext ctx = pipe.forward(scene.cloud, scene.camera);

    ASSERT_EQ(ref.result.image.pixelCount(),
              ctx.result.image.pixelCount());
    EXPECT_TRUE(bitIdentical(ref.result.image, ctx.result.image));
    for (size_t i = 0; i < ref.result.image.pixelCount(); ++i) {
        ASSERT_EQ(ref.result.depth[i], ctx.result.depth[i]);
        ASSERT_EQ(ref.result.finalT[i], ctx.result.finalT[i]);
        ASSERT_EQ(ref.result.nContrib[i], ctx.result.nContrib[i]);
        ASSERT_EQ(ref.result.nBlended[i], ctx.result.nBlended[i]);
    }
}

TEST_P(SimdPrecise, ScalarAndAvx2KernelsGiveSameBytes)
{
    if (!avx2Kernels())
        GTEST_SKIP() << "no AVX2 kernels on this CPU or binary";
    SimdScene scene(GetParam());
    KernelRun scalar = runAt(scene, SimdLevel::Scalar);
    KernelRun avx2 = runAt(scene, SimdLevel::Avx2);

    const RenderResult &a = scalar.fwd.result, &b = avx2.fwd.result;
    const size_t n = a.image.pixelCount();
    ASSERT_EQ(n, b.image.pixelCount());
    EXPECT_TRUE(bitIdentical(a.image, b.image));
    EXPECT_TRUE(sameBytes(a.depth.data(), b.depth.data(), n));
    EXPECT_TRUE(sameBytes(a.finalT.data(), b.finalT.data(), n));
    EXPECT_TRUE(sameBytes(a.nContrib.data(), b.nContrib.data(), n));
    EXPECT_TRUE(sameBytes(a.nBlended.data(), b.nBlended.data(), n));
    ASSERT_EQ(scalar.records.size(), avx2.records.size());
    ASSERT_FALSE(scalar.records.empty());
    EXPECT_TRUE(sameBytes(scalar.records.data(), avx2.records.data(),
                          scalar.records.size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimdPrecise,
                         ::testing::Values(3u, 17u, 88u, 2026u));

TEST(SimdDispatch, MonoGsRunSameFnvAtBothLevels)
{
    if (!avx2Kernels())
        GTEST_SKIP() << "no AVX2 kernels on this CPU or binary";
    EXPECT_EQ(monoGsRunHash(SimdLevel::Scalar),
              monoGsRunHash(SimdLevel::Avx2));
}

TEST(SimdKernels, EdgeFootprintsSameBytesAtBothLevels)
{
    const SplatKernels *avx2 = avx2Kernels();
    if (!avx2)
        GTEST_SKIP() << "no AVX2 kernels on this CPU or binary";
    const EdgeStack stack = edgeStack();
    const EdgeRun a = runEdgeStack(selectSplatKernels(SimdLevel::Scalar),
                                   stack);
    const EdgeRun b = runEdgeStack(*avx2, stack);

    // The stack reaches what it was built for: terminated pixels and
    // rows the backward skips.
    u32 terminated = 0;
    for (u32 t : a.newlyTerminated)
        terminated += t;
    EXPECT_GT(terminated, 0u);
    EXPECT_GT(a.skippedRows, 0u);

    const size_t n = a.fT.size();
    EXPECT_EQ(a.newlyTerminated, b.newlyTerminated);
    EXPECT_TRUE(sameBytes(a.fT.data(), b.fT.data(), n));
    EXPECT_TRUE(sameBytes(a.fR.data(), b.fR.data(), n));
    EXPECT_TRUE(sameBytes(a.fG.data(), b.fG.data(), n));
    EXPECT_TRUE(sameBytes(a.fB.data(), b.fB.data(), n));
    EXPECT_TRUE(sameBytes(a.fD.data(), b.fD.data(), n));
    EXPECT_TRUE(sameBytes(a.blended.data(), b.blended.data(), n));
    EXPECT_TRUE(sameBytes(a.term.data(), b.term.data(), n));
    ASSERT_EQ(a.accums.size(), b.accums.size());
    EXPECT_TRUE(sameBytes(a.accums.data(), b.accums.data(),
                          a.accums.size()));
    EXPECT_TRUE(sameBytes(a.bT.data(), b.bT.data(), n));
    EXPECT_TRUE(sameBytes(a.bAcc.data(), b.bAcc.data(), n));
}

// ---------------------------------------------------------------------
// exp contracts over the live power range
// ---------------------------------------------------------------------

TEST(SimdExp, FaithfulWithinOneUlpOverLiveRange)
{
    constexpr size_t kN = 20000;
    std::vector<Real> x(kN), y(kN);
    for (size_t i = 0; i < kN; ++i)
        x[i] = Real(-5.6) * static_cast<Real>(i) /
               static_cast<Real>(kN - 1);
    selectSplatKernels().expBatch(x.data(), y.data(), kN);
    u32 max_ulp = 0;
    for (size_t i = 0; i < kN; ++i)
        max_ulp = std::max(max_ulp, ulpDiff(y[i], std::exp(x[i])));
    EXPECT_LE(max_ulp, 1u) << "faithful exp out of contract";
}

TEST(SimdExp, ExactTwinsBitwiseEqualOverFloatSweep)
{
    // Every 997th float bit pattern from -0 down to -87 (~1.1M inputs).
    const float lo = -87.0f;
    u32 last;
    std::memcpy(&last, &lo, 4);
    std::vector<Real> x;
    for (u64 bits = 0x80000000u; bits <= last; bits += 997) {
        const u32 b = static_cast<u32>(bits);
        Real v;
        std::memcpy(&v, &b, 4);
        x.push_back(v);
    }
    std::vector<Real> scalar(x.size()), avx2(x.size());
    for (size_t i = 0; i < x.size(); ++i)
        scalar[i] = expExact(x[i]);

    u32 max_ulp = 0;
    for (size_t i = 0; i < x.size(); ++i)
        max_ulp = std::max(max_ulp, ulpDiff(scalar[i], std::exp(x[i])));
    EXPECT_LE(max_ulp, 1u) << "exact exp out of contract";

    const SplatKernels *k = avx2Kernels();
    if (!k)
        GTEST_SKIP() << "no AVX2 kernels on this CPU or binary";
    k->expBatch(x.data(), avx2.data(), x.size());
    EXPECT_TRUE(sameBytes(scalar.data(), avx2.data(), x.size()));
}

// ---------------------------------------------------------------------
// worker-count determinism
// ---------------------------------------------------------------------

TEST(SimdDeterminism, BitwiseAcrossWorkerCounts)
{
    SimdScene scene(42);
    ThreadPool one(1), two(2), four(4);
    ForwardContext a = renderOn(scene, &one);
    ForwardContext b = renderOn(scene, &two);
    ForwardContext c = renderOn(scene, &four);
    EXPECT_TRUE(bitIdentical(a.result.image, b.result.image));
    EXPECT_TRUE(bitIdentical(a.result.image, c.result.image));
    for (size_t i = 0; i < a.result.image.pixelCount(); ++i) {
        ASSERT_EQ(a.result.finalT[i], b.result.finalT[i]);
        ASSERT_EQ(a.result.finalT[i], c.result.finalT[i]);
        ASSERT_EQ(a.result.nContrib[i], c.result.nContrib[i]);
    }
}

} // namespace rtgs::gs
