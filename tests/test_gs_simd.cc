/**
 * @file
 * Contract tests for the splat kernels and their SIMD dispatch:
 *
 *  - the production forward pass is BITWISE identical to the serial
 *    reference (the strongest cross-implementation check the repo has:
 *    two independent loop structures, one bit pattern), and the AVX2
 *    body and the scalar twin give the same bytes: the exact exp, the
 *    forward outputs, the backward's per-splat records and a whole
 *    MonoGS run;
 *  - the exact exp honours its <= 1 ulp bound over the live power
 *    range, on whatever path the process dispatches to (AVX2 or
 *    scalar);
 *  - a forward pass is bitwise deterministic across 1/2/4 render
 *    workers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/cpu_features.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "data/dataset.hh"
#include "gs/backward.hh"
#include "gs/reference.hh"
#include "gs/render_pipeline.hh"
#include "gs/row_kernels.hh"
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

/** FNV-1a over a byte range. */
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

    u64 hash = 1469598103934665603ull;
    for (const SE3 &pose : sys.trajectory()) {
        hash = fnv1a(&pose.rot, sizeof(pose.rot), hash);
        hash = fnv1a(&pose.trans, sizeof(pose.trans), hash);
    }
    const GaussianCloud &cloud = sys.cloud();
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
