/**
 * @file
 * google-benchmark microbenchmarks of the rasterizer kernels
 * (projection, tile intersection, depth sort, forward rasterisation,
 * backward pass) across scene sizes — the per-kernel costs behind
 * every harness in this directory.
 *
 * After the registered benchmarks run, main() times the seed's serial
 * AoS forward path (gs/reference.hh) against the parallel pipeline
 * head-to-head, checks the rendered images agree to 1e-6 per channel,
 * and writes the result to BENCH_micro_rasterizer.json (override the
 * path with RTGS_BENCH_JSON) so the perf trajectory is recorded in CI.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <vector>

#include "common/cpu_features.hh"
#include "common/thread_pool.hh"
#include "data/scene.hh"
#include "gs/reference.hh"
#include "gs/render_pipeline.hh"
#include "gs/row_kernels.hh"

namespace
{

using namespace rtgs;

struct Fixture
{
    gs::GaussianCloud cloud;
    Camera camera;
    gs::RenderSettings settings;

    explicit Fixture(double spacing)
    {
        data::SceneConfig cfg;
        cfg.surfelSpacing = static_cast<Real>(spacing);
        cloud = data::buildScene(cfg);
        camera = Camera(Intrinsics::fromFov(1.3f, 320, 240),
                        SE3::lookAt({1.0f, -0.3f, 0.4f}, {0, 0, 0}));
    }
};

Fixture &
fixtureFor(double spacing)
{
    static Fixture coarse(0.35);
    static Fixture medium(0.22);
    static Fixture fine(0.15);
    if (spacing > 0.3)
        return coarse;
    if (spacing > 0.18)
        return medium;
    return fine;
}

double
spacingForRange(i64 arg)
{
    return arg == 0 ? 0.35 : arg == 1 ? 0.22 : 0.15;
}

void
BM_Projection(benchmark::State &state)
{
    Fixture &f = fixtureFor(spacingForRange(state.range(0)));
    for (auto _ : state) {
        auto proj = gs::projectGaussians(f.cloud, f.camera, f.settings);
        benchmark::DoNotOptimize(proj.items.data());
    }
    state.counters["gaussians"] = static_cast<double>(f.cloud.size());
}

void
BM_TileIntersection(benchmark::State &state)
{
    Fixture &f = fixtureFor(spacingForRange(state.range(0)));
    auto proj = gs::projectGaussians(f.cloud, f.camera, f.settings);
    gs::TileGrid grid(320, 240, f.settings.tileSize);
    for (auto _ : state) {
        auto bins = gs::intersectTiles(proj, grid);
        benchmark::DoNotOptimize(bins.indices.data());
    }
}

void
BM_DepthSort(benchmark::State &state)
{
    Fixture &f = fixtureFor(spacingForRange(state.range(0)));
    auto proj = gs::projectGaussians(f.cloud, f.camera, f.settings);
    gs::TileGrid grid(320, 240, f.settings.tileSize);
    auto bins = gs::intersectTiles(proj, grid);
    for (auto _ : state) {
        auto copy = bins;
        gs::sortTilesByDepth(copy, proj);
        benchmark::DoNotOptimize(copy.indices.data());
    }
}

void
BM_ForwardRaster(benchmark::State &state)
{
    Fixture &f = fixtureFor(spacingForRange(state.range(0)));
    gs::RenderPipeline pipe(f.settings);
    for (auto _ : state) {
        auto ctx = pipe.forward(f.cloud, f.camera);
        benchmark::DoNotOptimize(ctx.result.image.data());
    }
}

void
BM_ForwardRasterSeed(benchmark::State &state)
{
    // The seed's serial AoS path, kept in gs/reference.hh.
    Fixture &f = fixtureFor(spacingForRange(state.range(0)));
    for (auto _ : state) {
        auto ctx = gs::forwardReference(f.cloud, f.camera, f.settings);
        benchmark::DoNotOptimize(ctx.result.image.data());
    }
}

void
BM_Backward(benchmark::State &state)
{
    Fixture &f = fixtureFor(spacingForRange(state.range(0)));
    gs::RenderPipeline pipe(f.settings);
    auto ctx = pipe.forward(f.cloud, f.camera);
    ImageRGB adj(320, 240, {0.3f, -0.2f, 0.1f});
    gs::BackwardResult back;
    for (auto _ : state) {
        pipe.backward(f.cloud, ctx, adj, nullptr, true, back);
        benchmark::DoNotOptimize(back.grads.dPositions.data());
    }
}

void
BM_BackwardSeed(benchmark::State &state)
{
    // The seed's serial pixel-major walk, kept in gs/backward.hh as the
    // golden reference.
    Fixture &f = fixtureFor(spacingForRange(state.range(0)));
    gs::RenderPipeline pipe(f.settings);
    auto ctx = pipe.forward(f.cloud, f.camera);
    ImageRGB adj(320, 240, {0.3f, -0.2f, 0.1f});
    for (auto _ : state) {
        auto back = gs::backwardFull(f.cloud, ctx.projected, ctx.bins,
                                     ctx.grid, f.settings, ctx.result,
                                     f.camera, adj, nullptr, true);
        benchmark::DoNotOptimize(back.grads.dPositions.data());
    }
}

BENCHMARK(BM_Projection)->DenseRange(0, 2)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_TileIntersection)->DenseRange(0, 2)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_DepthSort)->DenseRange(0, 2)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ForwardRaster)->DenseRange(0, 2)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ForwardRasterSeed)->DenseRange(0, 2)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Backward)->DenseRange(0, 2)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BackwardSeed)->DenseRange(0, 2)
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------------------------
// Seed-vs-RTGS head-to-head, written to BENCH_micro_rasterizer.json.
// ------------------------------------------------------------------

double
maxChannelDiff(const ImageRGB &a, const ImageRGB &b)
{
    double m = 0;
    for (size_t i = 0; i < a.pixelCount(); ++i) {
        m = std::max(m, std::abs(double(a[i].x) - double(b[i].x)));
        m = std::max(m, std::abs(double(a[i].y) - double(b[i].y)));
        m = std::max(m, std::abs(double(a[i].z) - double(b[i].z)));
    }
    return m;
}

/**
 * Min-of-reps wall and CPU time of fn, in milliseconds. The minimum is
 * robust against preemption on loaded shared machines.
 */
template <typename Fn>
void
timeMs(Fn &&fn, int reps, double &wall_ms, double &cpu_ms)
{
    wall_ms = 1e300;
    cpu_ms = 1e300;
    for (int r = 0; r < reps; ++r) {
        auto w0 = std::chrono::steady_clock::now();
        std::clock_t c0 = std::clock();
        fn();
        std::clock_t c1 = std::clock();
        auto w1 = std::chrono::steady_clock::now();
        wall_ms = std::min(
            wall_ms, std::chrono::duration<double, std::milli>(w1 - w0)
                         .count());
        cpu_ms = std::min(cpu_ms, 1000.0 * double(c1 - c0) /
                                      double(CLOCKS_PER_SEC));
    }
}

/**
 * Forward splat-kernel timings: drive each table's forwardSplat over an
 * identical synthetic fragment stream — one wide low-opacity splat per
 * slot covering a 16-row x 256-px tile, every fragment blending — so
 * the measurement isolates the per-fragment arithmetic (exp + blend
 * recurrence) from tile scheduling, binning and projection. Two tables:
 * the scalar table (the baseline) and the table at the active dispatch
 * level. With AVX2 dispatched, the AVX2 table must beat the scalar table
 * by >= 1.5x wall-clock; on scalar-only hosts the two are the same
 * table and the numbers are recorded without a gate.
 */
struct SplatKernelTimings
{
    double scalar_ms = 0, active_ms = 0, speedup = 0;
    const char *level = "";
    const char *scalar_name = "";
    const char *active_name = "";
};

SplatKernelTimings
timeSplatKernels(int reps)
{
    constexpr u32 kW = 256;       // pixels per row
    constexpr u32 kRows = 16;     // rows per pass (one tall tile)
    constexpr u32 kSplats = 96;   // fragment stream depth per pixel
    const size_t n_st = size_t(kW) * kRows + gs::kTileStatePad;

    // One splat per slot: broad (cxx tiny, so every pixel's power stays
    // in (-0.1, 0]) and faint (alpha ~ 0.05, so transmittance survives
    // all 96 slots above the early-termination threshold).
    std::vector<gs::HotSplat> splats(kSplats);
    for (u32 s = 0; s < kSplats; ++s) {
        gs::HotSplat &g = splats[s];
        g.mx = Real(kW) / 2 + Real(s % 7) - 3;
        g.my = Real(kRows) / 2;
        g.cxx = Real(1e-5);
        g.cxy = Real(1e-6);
        g.cyy = Real(2e-4);
        g.powerSkip = Real(-30);
        g.opacity = Real(0.05) + Real(0.002) * Real(s % 5);
        g.r = Real(0.2) + Real(0.01) * Real(s % 11);
        g.g = Real(0.5);
        g.b = Real(0.7);
        g.depth = Real(2) + Real(0.01) * Real(s);
    }

    std::vector<Real> T(n_st), r(n_st), gch(n_st), b(n_st), d(n_st);
    std::vector<u32> blended(n_st), term(n_st);
    const gs::SplatKernelCtx ctx{Real(1) / 255, Real(0.99), Real(1e-4)};
    const gs::ForwardTileState st{T.data(), r.data(), gch.data(),
                                  b.data(), d.data(), blended.data(),
                                  term.data()};

    auto pass = [&](const gs::SplatKernels &kern) {
        std::fill(T.begin(), T.end(), Real(1));
        std::fill(r.begin(), r.end(), Real(0));
        std::fill(gch.begin(), gch.end(), Real(0));
        std::fill(b.begin(), b.end(), Real(0));
        std::fill(d.begin(), d.end(), Real(0));
        std::fill(blended.begin(), blended.end(), 0u);
        std::fill(term.begin(), term.end(), gs::kRowNotTerminated);
        u32 terminated = 0;
        for (u32 s = 0; s < kSplats; ++s) {
            const gs::SplatFootprint fp{0, 0, kW, kRows, 0, 0, kW, s};
            terminated += kern.forwardSplat(splats[s], fp, ctx, st);
        }
        benchmark::DoNotOptimize(terminated);
        benchmark::DoNotOptimize(r.data());
        benchmark::ClobberMemory();
    };

    const SimdLevel level = activeSimdLevel();
    const gs::SplatKernels &scalar =
        gs::selectSplatKernels(SimdLevel::Scalar);
    const gs::SplatKernels &active = gs::selectSplatKernels(level);

    SplatKernelTimings kt;
    kt.level = simdLevelName(level);
    kt.scalar_name = scalar.name;
    kt.active_name = active.name;
    double cpu; // CPU time tracks wall on this single-thread workload
    timeMs([&] { pass(scalar); }, reps, kt.scalar_ms, cpu);
    timeMs([&] { pass(active); }, reps, kt.active_ms, cpu);
    kt.speedup = kt.scalar_ms / kt.active_ms;
    return kt;
}

/**
 * Double-precision ground-truth 2D gradients: the reference pixel-major
 * walk with float blend decisions (alpha/gval computed exactly like the
 * forward pass, so the blended set is identical) but double-precision
 * transmittance/rear-accumulation recurrences and gradient sums. Both
 * float kernels are compared against this to show their mutual
 * divergence is the float rounding envelope itself, not an error of
 * either kernel.
 */
struct Grad2D64
{
    std::vector<double> mx, my, cxx, cxy, cyy, r, g, b, op, dep;

    explicit Grad2D64(size_t n)
        : mx(n), my(n), cxx(n), cxy(n), cyy(n), r(n), g(n), b(n),
          op(n), dep(n)
    {
    }
};

Grad2D64
backwardGroundTruth64(const gs::ForwardContext &ctx,
                      const gs::RenderSettings &settings,
                      const ImageRGB &dl_dcolor, const ImageF &dl_ddepth,
                      size_t cloud_size)
{
    Grad2D64 gt(cloud_size);
    for (u32 tile = 0; tile < ctx.grid.tileCount(); ++tile) {
        if (ctx.bins.count(tile) == 0)
            continue;
        u32 x0, y0, x1, y1;
        ctx.grid.tileBounds(tile, x0, y0, x1, y1);
        const std::vector<gs::HotSplat> &splats =
            gs::gatherTileSplats(ctx.projected, ctx.bins, tile);
        const u32 *ids = ctx.bins.tileData(tile);

        struct Frag
        {
            u32 slot;
            float alpha, gval;
            double dx, dy, tBefore;
            bool clamped;
        };
        std::vector<Frag> frags;
        for (u32 py = y0; py < y1; ++py) {
            for (u32 px = x0; px < x1; ++px) {
                Vec3f dl_dc = dl_dcolor.at(px, py);
                double dld = dl_ddepth.at(px, py);
                if (dl_dc.squaredNorm() == 0 && dld == 0)
                    continue;
                frags.clear();
                double T = 1;
                // Float twin of T drives every *decision* (here, early
                // termination) so the blended set is exactly the
                // forward pass's; only the arithmetic runs in double.
                Real t_dec = 1;
                for (u32 s = 0; s < splats.size(); ++s) {
                    const gs::HotSplat &g = splats[s];
                    // Float decisions, identical to the production
                    // kernels' (and the forward pass's) operations.
                    Real dxf = (Real(px) + Real(0.5)) - g.mx;
                    Real dyf = (Real(py) + Real(0.5)) - g.my;
                    Real power = Real(-0.5) *
                        (g.cxx * dxf * dxf + Real(2) * g.cxy * dxf * dyf +
                         g.cyy * dyf * dyf);
                    if (power > 0 || power < g.powerSkip)
                        continue;
                    Real gval = gs::expExact(power);
                    Real raw = g.opacity * gval;
                    bool clamped = raw > settings.alphaMax;
                    Real alpha = clamped ? settings.alphaMax : raw;
                    if (alpha < settings.alphaMin)
                        continue;
                    frags.push_back({s, alpha, gval, double(dxf),
                                     double(dyf), T, clamped});
                    T *= 1.0 - double(alpha);
                    t_dec *= 1 - alpha;
                    if (t_dec < settings.transmittanceEps)
                        break;
                }
                double t_final = T;
                double bg_dot = double(settings.background.x) * dl_dc.x +
                                double(settings.background.y) * dl_dc.y +
                                double(settings.background.z) * dl_dc.z;
                double aR = 0, aG = 0, aB = 0, aD = 0;
                for (size_t j = frags.size(); j-- > 0;) {
                    const Frag &f = frags[j];
                    const gs::HotSplat &g = splats[f.slot];
                    const u32 gid = ids[f.slot];
                    double a = f.alpha, tb = f.tBefore;
                    double w = a * tb;
                    gt.r[gid] += dl_dc.x * w;
                    gt.g[gid] += dl_dc.y * w;
                    gt.b[gid] += dl_dc.z * w;
                    gt.dep[gid] += dld * w;
                    double da = ((double(g.r) - aR) * dl_dc.x +
                                 (double(g.g) - aG) * dl_dc.y +
                                 (double(g.b) - aB) * dl_dc.z) * tb +
                                (double(g.depth) - aD) * dld * tb;
                    da += (-t_final / (1.0 - a)) * bg_dot;
                    aR = double(g.r) * a + aR * (1.0 - a);
                    aG = double(g.g) * a + aG * (1.0 - a);
                    aB = double(g.b) * a + aB * (1.0 - a);
                    aD = double(g.depth) * a + aD * (1.0 - a);
                    if (f.clamped)
                        continue;
                    gt.op[gid] += double(f.gval) * da;
                    double dp = a * da;
                    double cd_x = double(g.cxx) * f.dx + double(g.cxy) * f.dy;
                    double cd_y = double(g.cxy) * f.dx + double(g.cyy) * f.dy;
                    gt.mx[gid] += cd_x * dp;
                    gt.my[gid] += cd_y * dp;
                    gt.cxx[gid] += -0.5 * f.dx * f.dx * dp;
                    gt.cxy[gid] += -f.dx * f.dy * dp;
                    gt.cyy[gid] += -0.5 * f.dy * f.dy * dp;
                }
            }
        }
    }
    return gt;
}

/** Scale-relative distance of a float grad2d from the f64 ground truth. */
double
grad2dVsGroundTruth(const gs::Gradient2DBuffers &g2, const Grad2D64 &gt)
{
    double worst = 0;
    auto fold = [&](auto getf, const std::vector<double> &ref) {
        double diff = 0, scale = 1;
        for (size_t k = 0; k < ref.size(); ++k) {
            diff = std::max(diff, std::abs(getf(k) - ref[k]));
            scale = std::max(scale, std::abs(ref[k]));
        }
        worst = std::max(worst, diff / scale);
    };
    fold([&](size_t k) { return double(g2.dMean2d[k].x); }, gt.mx);
    fold([&](size_t k) { return double(g2.dMean2d[k].y); }, gt.my);
    fold([&](size_t k) { return double(g2.dConic[k].xx); }, gt.cxx);
    fold([&](size_t k) { return double(g2.dConic[k].xy); }, gt.cxy);
    fold([&](size_t k) { return double(g2.dConic[k].yy); }, gt.cyy);
    fold([&](size_t k) { return double(g2.dColor[k].x); }, gt.r);
    fold([&](size_t k) { return double(g2.dColor[k].y); }, gt.g);
    fold([&](size_t k) { return double(g2.dColor[k].z); }, gt.b);
    fold([&](size_t k) { return double(g2.dOpacityAct[k]); }, gt.op);
    fold([&](size_t k) { return double(g2.dDepth[k]); }, gt.dep);
    return worst;
}

/**
 * Largest per-class gradient difference between two backward results,
 * normalised by each class's own magnitude scale (max(1, max |ref|)) —
 * the gradient analogue of maxChannelDiff, where image channels are
 * already order-one. The splat-major kernel recovers per-fragment
 * transmittance by division, an ulp-level perturbation relative to the
 * magnitudes summed, so this scale-relative metric is the one with a
 * meaningful floating-point bound.
 */
double
maxGradDiffRel(const gs::BackwardResult &a, const gs::BackwardResult &b)
{
    double worst = 0;
    auto fold = [&](auto get, size_t n) {
        double diff = 0, scale = 1;
        for (size_t k = 0; k < n; ++k) {
            double av = get(a, k), bv = get(b, k);
            diff = std::max(diff, std::abs(av - bv));
            scale = std::max(scale, std::abs(bv));
        }
        worst = std::max(worst, diff / scale);
    };
    size_t n = a.grads.size();
    for (int c = 0; c < 3; ++c) {
        fold([c](const gs::BackwardResult &r, size_t k) {
            return double(r.grads.dPositions[k][c]); }, n);
        fold([c](const gs::BackwardResult &r, size_t k) {
            return double(r.grads.dLogScales[k][c]); }, n);
        fold([c](const gs::BackwardResult &r, size_t k) {
            return double(r.grads.dShCoeffs[k][c]); }, n);
    }
    fold([](const gs::BackwardResult &r, size_t k) {
        return double(r.grads.dOpacityLogits[k]); }, n);
    fold([](const gs::BackwardResult &r, size_t k) {
        return double(r.poseGrad[k]); }, 6);
    return worst;
}

int
writeComparison()
{
    const char *path = std::getenv("RTGS_BENCH_JSON");
    if (!path)
        path = "BENCH_micro_rasterizer.json";
    int reps = 15;
    if (const char *r = std::getenv("RTGS_BENCH_COMPARE_REPS"))
        reps = std::max(1, std::atoi(r));

    Fixture &f = fixtureFor(0.22);
    gs::RenderPipeline pipe(f.settings);

    // Correctness gate: the refactored pipeline must render the same
    // image as the seed path (acceptance: <= 1e-6 per channel).
    auto seed_ctx = gs::forwardReference(f.cloud, f.camera, f.settings);
    auto rtgs_ctx = pipe.forward(f.cloud, f.camera);
    double diff =
        maxChannelDiff(seed_ctx.result.image, rtgs_ctx.result.image);

    double seed_wall, seed_cpu, rtgs_wall, rtgs_cpu;
    timeMs(
        [&] {
            auto ctx = gs::forwardReference(f.cloud, f.camera, f.settings);
            benchmark::DoNotOptimize(ctx.result.image.data());
        },
        reps, seed_wall, seed_cpu);
    timeMs(
        [&] {
            auto ctx = pipe.forward(f.cloud, f.camera);
            benchmark::DoNotOptimize(ctx.result.image.data());
        },
        reps, rtgs_wall, rtgs_cpu);

    double speedup = seed_wall / rtgs_wall;
    double cpu_speedup = seed_cpu / rtgs_cpu;

    // Backward head-to-head over the same forward context: the seed's
    // serial pixel-major walk vs the splat-major scheduler, colour and
    // depth adjoints both active. The gradient gate is scale-relative
    // (see maxGradDiffRel).
    ImageRGB adj(320, 240, {0.3f, -0.2f, 0.1f});
    ImageF adj_depth(320, 240, Real(0.05));
    gs::BackwardResult seed_back = gs::backwardFull(
        f.cloud, rtgs_ctx.projected, rtgs_ctx.bins, rtgs_ctx.grid,
        f.settings, rtgs_ctx.result, f.camera, adj, &adj_depth, true);
    gs::BackwardResult rtgs_back =
        pipe.backward(f.cloud, rtgs_ctx, adj, &adj_depth, true);
    double grad_diff = maxGradDiffRel(rtgs_back, seed_back);

    // Both float kernels against the double-precision ground truth:
    // their mutual divergence is bounded by the float rounding envelope
    // itself (each pixel's transmittance recurrence accumulates ~1 ulp
    // per blended fragment, ~22 deep on this fixture), so neither is
    // "wrong" — and the splat-major kernel must stay as close to the
    // truth as the reference is.
    Grad2D64 gt = backwardGroundTruth64(rtgs_ctx, f.settings, adj,
                                        adj_depth, f.cloud.size());
    double seed_vs_gt = grad2dVsGroundTruth(seed_back.grad2d, gt);
    double rtgs_vs_gt = grad2dVsGroundTruth(rtgs_back.grad2d, gt);

    double bseed_wall, bseed_cpu, brtgs_wall, brtgs_cpu;
    timeMs(
        [&] {
            auto back = gs::backwardFull(
                f.cloud, rtgs_ctx.projected, rtgs_ctx.bins, rtgs_ctx.grid,
                f.settings, rtgs_ctx.result, f.camera, adj, &adj_depth,
                true);
            benchmark::DoNotOptimize(back.grads.dPositions.data());
        },
        reps, bseed_wall, bseed_cpu);
    gs::BackwardResult reused; // steady-state: scratch + result reuse
    timeMs(
        [&] {
            pipe.backward(f.cloud, rtgs_ctx, adj, &adj_depth, true,
                          reused);
            benchmark::DoNotOptimize(reused.grads.dPositions.data());
        },
        reps, brtgs_wall, brtgs_cpu);

    double backward_speedup = bseed_wall / brtgs_wall;
    double backward_cpu_speedup = bseed_cpu / brtgs_cpu;

    SplatKernelTimings kt = timeSplatKernels(reps);

    std::FILE *out = std::fopen(path, "w");
    if (!out) {
        std::fprintf(stderr, "cannot open %s\n", path);
        return 1;
    }
    std::fprintf(
        out,
        "{\n"
        "  \"bench\": \"micro_rasterizer\",\n"
        "  \"image\": \"320x240\",\n"
        "  \"gaussians\": %zu,\n"
        "  \"threads\": %zu,\n"
        "  \"reps\": %d,\n"
        "  \"seed_wall_ms\": %.4f,\n"
        "  \"rtgs_wall_ms\": %.4f,\n"
        "  \"speedup\": %.3f,\n"
        "  \"seed_cpu_ms\": %.4f,\n"
        "  \"rtgs_cpu_ms\": %.4f,\n"
        "  \"cpu_speedup\": %.3f,\n"
        "  \"max_abs_channel_diff\": %.3g,\n"
        "  \"backward_seed_wall_ms\": %.4f,\n"
        "  \"backward_rtgs_wall_ms\": %.4f,\n"
        "  \"backward_speedup\": %.3f,\n"
        "  \"backward_seed_cpu_ms\": %.4f,\n"
        "  \"backward_rtgs_cpu_ms\": %.4f,\n"
        "  \"backward_cpu_speedup\": %.3f,\n"
        "  \"backward_max_rel_grad_diff\": %.3g,\n"
        "  \"backward_seed_vs_f64_truth\": %.3g,\n"
        "  \"backward_rtgs_vs_f64_truth\": %.3g,\n"
        "  \"simd_level\": \"%s\",\n"
        "  \"splatkernel_precise_scalar_name\": \"%s\",\n"
        "  \"splatkernel_precise_name\": \"%s\",\n"
        "  \"splatkernel_precise_scalar_ms\": %.4f,\n"
        "  \"splatkernel_precise_ms\": %.4f,\n"
        "  \"splatkernel_precise_speedup\": %.3f\n"
        "}\n",
        f.cloud.size(), globalPool().size() + 1, reps, seed_wall,
        rtgs_wall, speedup, seed_cpu, rtgs_cpu, cpu_speedup, diff,
        bseed_wall, brtgs_wall, backward_speedup, bseed_cpu, brtgs_cpu,
        backward_cpu_speedup, grad_diff, seed_vs_gt, rtgs_vs_gt,
        kt.level, kt.scalar_name, kt.active_name, kt.scalar_ms,
        kt.active_ms, kt.speedup);
    std::fclose(out);

    std::printf("\n== forward pass: seed serial vs parallel pipeline ==\n");
    std::printf("seed  %.3f ms wall / %.3f ms cpu\n", seed_wall, seed_cpu);
    std::printf("rtgs  %.3f ms wall / %.3f ms cpu\n", rtgs_wall, rtgs_cpu);
    std::printf("speedup %.2fx wall, %.2fx cpu; max channel diff %.3g\n",
                speedup, cpu_speedup, diff);
    std::printf("\n== backward pass: seed pixel-major vs splat-major ==\n");
    std::printf("seed  %.3f ms wall / %.3f ms cpu\n", bseed_wall,
                bseed_cpu);
    std::printf("rtgs  %.3f ms wall / %.3f ms cpu\n", brtgs_wall,
                brtgs_cpu);
    std::printf("speedup %.2fx wall, %.2fx cpu; "
                "max scale-relative grad diff %.3g\n",
                backward_speedup, backward_cpu_speedup, grad_diff);
    std::printf("vs f64 ground truth: seed %.3g, rtgs %.3g\n",
                seed_vs_gt, rtgs_vs_gt);
    std::printf("\n== forward splat kernel (%s dispatch) ==\n",
                kt.level);
    std::printf("%-12s %.3f ms\n", kt.scalar_name, kt.scalar_ms);
    std::printf("%-12s %.3f ms  %.2fx\n", kt.active_name, kt.active_ms,
                kt.speedup);
    std::printf("wrote %s\n", path);

    if (diff > 1e-6) {
        std::fprintf(stderr,
                     "FAIL: image mismatch above 1e-6 (%.3g)\n", diff);
        return 1;
    }
    // Documented tolerance (see src/gs/README.md): the splat-major
    // kernel recovers per-fragment transmittance by division instead of
    // replaying the forward float products, so it cannot be bit-equal
    // to the reference; each kernel drifts ~1 ulp per blended fragment
    // (~22 deep here) from the real-valued gradient, which the
    // *_vs_f64_truth fields quantify. The gate bounds the divergence at
    // 2e-5 of each gradient class's scale, ~4x the measured value, and
    // additionally requires the new kernel to stay as close to the f64
    // ground truth as the reference walk is (within 2x).
    if (grad_diff > 2e-5) {
        std::fprintf(stderr,
                     "FAIL: backward gradient mismatch above 2e-5 "
                     "scale-relative (%.3g)\n", grad_diff);
        return 1;
    }
    if (rtgs_vs_gt > 2 * seed_vs_gt + 1e-7) {
        std::fprintf(stderr,
                     "FAIL: splat-major kernel drifts further from f64 "
                     "ground truth (%.3g) than the reference (%.3g)\n",
                     rtgs_vs_gt, seed_vs_gt);
        return 1;
    }
    // Splat-kernel gate: the AVX2 table must beat the scalar table by
    // >= 1.5x wall-clock. Only meaningful when AVX2 actually
    // dispatched — on scalar-only hosts both timings are the scalar
    // table and are recorded without a gate.
    if (activeSimdLevel() >= SimdLevel::Avx2 && kt.speedup < 1.5) {
        std::fprintf(stderr, "FAIL: AVX2 splat kernel below 1.5x (%.2fx)\n",
                     kt.speedup);
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return writeComparison();
}
