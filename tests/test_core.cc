/**
 * @file
 * Unit tests for the RTGS algorithm layer: Eq. 7 importance scoring,
 * the adaptive mask-prune protocol with its dynamic interval rule, the
 * dynamic downsampling schedule and the baseline pruners.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/baselines.hh"
#include "core/downsampling.hh"
#include "core/importance.hh"
#include "core/pruning.hh"

namespace rtgs::core
{

namespace
{

gs::CloudGrads
makeGrads(const std::vector<Real> &pos_norms,
          const std::vector<Real> &cov_norms)
{
    gs::CloudGrads g;
    g.resize(pos_norms.size());
    for (size_t k = 0; k < pos_norms.size(); ++k) {
        g.dPositions[k] = {pos_norms[k], 0, 0};
        g.covGradNorms[k] = cov_norms[k];
    }
    return g;
}

gs::GaussianCloud
makeCloud(size_t n)
{
    gs::GaussianCloud cloud;
    for (size_t i = 0; i < n; ++i) {
        cloud.pushIsotropic({static_cast<Real>(i) * 0.1f, 0, 2}, 0.05f,
                            0.5f, {0.5f, 0.5f, 0.5f});
    }
    return cloud;
}

gs::TileBins
makeBins(u64 intersections)
{
    gs::TileBins bins;
    bins.tiles = 1;
    bins.offsets = {0, static_cast<u32>(intersections)};
    for (u64 i = 0; i < intersections; ++i)
        bins.indices.push_back(static_cast<u32>(i));
    return bins;
}

} // namespace

TEST(Importance, Eq7Weighting)
{
    auto grads = makeGrads({1.0f, 0.0f}, {0.0f, 1.0f});
    auto s = importanceScores(grads, Real(0.8));
    EXPECT_NEAR(s[0], 1.0, 1e-6);   // pure position gradient
    EXPECT_NEAR(s[1], 0.8, 1e-6);   // pure covariance gradient * lambda
}

TEST(Importance, AccumulateExtends)
{
    std::vector<Real> acc;
    accumulateScores(acc, {1, 2});
    accumulateScores(acc, {1, 2, 3});
    ASSERT_EQ(acc.size(), 3u);
    EXPECT_EQ(acc[0], 2);
    EXPECT_EQ(acc[2], 3);
}

TEST(Importance, TopFractionMassDetectsSkew)
{
    // 90% of mass in 10% of entries (Fig. 4-style skew).
    std::vector<Real> skewed(100, Real(0.1));
    for (int i = 0; i < 10; ++i)
        skewed[i] = 9.0f;
    double mass = topFractionMass(skewed, 0.10);
    EXPECT_GT(mass, 0.85);

    std::vector<Real> flat(100, Real(1));
    EXPECT_NEAR(topFractionMass(flat, 0.10), 0.10, 1e-9);
}

TEST(Pruner, MasksLowImportanceAfterInterval)
{
    PrunerConfig cfg;
    cfg.initialInterval = 3;
    cfg.maskFractionPerInterval = Real(0.25);
    cfg.minGaussians = 1;
    AdaptiveGaussianPruner pruner(cfg);

    auto cloud = makeCloud(20);
    pruner.beginFrame(cloud);
    // Gaussians 0..9 important; 10..19 negligible.
    std::vector<Real> pos(20, Real(0.001)), cov(20, Real(0.001));
    for (int i = 0; i < 10; ++i)
        pos[static_cast<size_t>(i)] = 1.0f;
    auto grads = makeGrads(pos, cov);
    auto bins = makeBins(100);

    for (int it = 0; it < 3; ++it)
        pruner.onIteration(cloud, grads, bins, nullptr);

    // 25% of 20 = 5 masked, all from the unimportant half.
    EXPECT_EQ(pruner.stats().masked, 5u);
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(cloud.active[static_cast<size_t>(i)]);
    size_t masked = 0;
    for (int i = 10; i < 20; ++i)
        masked += cloud.active[static_cast<size_t>(i)] ? 0 : 1;
    EXPECT_EQ(masked, 5u);
    // Masked but NOT removed yet (mask-prune, not direct prune).
    EXPECT_EQ(cloud.size(), 20u);
}

TEST(Pruner, RemovesMaskedAtNextBoundary)
{
    PrunerConfig cfg;
    cfg.initialInterval = 2;
    cfg.maskFractionPerInterval = Real(0.2);
    cfg.minGaussians = 1;
    AdaptiveGaussianPruner pruner(cfg);

    auto cloud = makeCloud(10);
    pruner.beginFrame(cloud);
    std::vector<Real> pos(10, Real(0.001)), cov(10, Real(0.001));
    pos[0] = pos[1] = 1.0f;
    auto grads = makeGrads(pos, cov);
    auto bins = makeBins(50);

    bool compact_called = false;
    AdaptiveGaussianPruner::CompactFn compact =
        [&](const std::vector<u8> &keep) {
            compact_called = true;
            EXPECT_EQ(keep.size(), 10u);
        };

    // First interval: masks 2.
    pruner.onIteration(cloud, grads, bins, compact);
    pruner.onIteration(cloud, grads, bins, compact);
    EXPECT_EQ(pruner.stats().masked, 2u);
    EXPECT_FALSE(compact_called);

    // Second interval boundary: masked set permanently removed.
    // Interval adapted: stable intersections -> interval = 2*K0 = 4.
    for (int it = 0; it < 4; ++it) {
        auto g = makeGrads(std::vector<Real>(cloud.size(), Real(0.01)),
                           std::vector<Real>(cloud.size(), Real(0.01)));
        pruner.onIteration(cloud, g, bins, compact);
    }
    EXPECT_TRUE(compact_called);
    EXPECT_EQ(pruner.stats().prunedTotal, 2u);
    EXPECT_EQ(cloud.size(), 8u);
}

TEST(Pruner, IntervalAdaptsToIntersectionChange)
{
    PrunerConfig cfg;
    cfg.initialInterval = 4;
    cfg.maskFractionPerInterval = Real(0.0); // isolate interval logic
    AdaptiveGaussianPruner pruner(cfg);

    auto cloud = makeCloud(10);
    pruner.beginFrame(cloud);
    auto grads = makeGrads(std::vector<Real>(10, Real(0.1)),
                           std::vector<Real>(10, Real(0.1)));

    // Interval 1 establishes the baseline intersection count.
    for (int it = 0; it < 4; ++it)
        pruner.onIteration(cloud, grads, makeBins(100), nullptr);
    EXPECT_EQ(pruner.stats().currentInterval, 4u);

    // Interval 2 sees a >5% change: next interval K0/2 = 2.
    for (int it = 0; it < 4; ++it)
        pruner.onIteration(cloud, grads, makeBins(120), nullptr);
    EXPECT_EQ(pruner.stats().currentInterval, 2u);

    // Interval 3 (length 2) sees a <5% change: next interval 2*K0 = 8.
    for (int it = 0; it < 2; ++it)
        pruner.onIteration(cloud, grads, makeBins(121), nullptr);
    EXPECT_EQ(pruner.stats().currentInterval, 8u);
}

TEST(Pruner, RespectsGlobalCap)
{
    PrunerConfig cfg;
    cfg.initialInterval = 1;
    cfg.maskFractionPerInterval = Real(0.5);
    cfg.maxPruneRatio = Real(0.3);
    cfg.minGaussians = 1;
    AdaptiveGaussianPruner pruner(cfg);

    auto cloud = makeCloud(100);
    pruner.beginFrame(cloud);
    auto grads = makeGrads(std::vector<Real>(100, Real(0.1)),
                           std::vector<Real>(100, Real(0.1)));
    auto bins = makeBins(100);
    for (int it = 0; it < 20; ++it) {
        grads.resize(cloud.size());
        pruner.onIteration(cloud, grads, bins, nullptr);
    }
    // Never prunes beyond 30% of the initial population.
    EXPECT_LE(pruner.stats().prunedTotal + pruner.stats().masked, 30u);
    EXPECT_LE(pruner.prunedRatio(), 0.3 + 1e-9);
}

TEST(Pruner, DirectPruneSkipsGracePeriod)
{
    PrunerConfig cfg;
    cfg.initialInterval = 1;
    cfg.maskFractionPerInterval = Real(0.2);
    cfg.minGaussians = 1;
    cfg.directPrune = true;
    AdaptiveGaussianPruner pruner(cfg);

    auto cloud = makeCloud(10);
    pruner.beginFrame(cloud);
    auto grads = makeGrads(std::vector<Real>(10, Real(0.1)),
                           std::vector<Real>(10, Real(0.1)));
    pruner.onIteration(cloud, grads, makeBins(10), nullptr);
    // Removed immediately, not just masked.
    EXPECT_EQ(cloud.size(), 8u);
    EXPECT_EQ(pruner.stats().masked, 0u);
}

TEST(Pruner, NeverDropsBelowMinimum)
{
    PrunerConfig cfg;
    cfg.initialInterval = 1;
    cfg.maskFractionPerInterval = Real(0.9);
    cfg.maxPruneRatio = Real(0.9);
    cfg.minGaussians = 8;
    AdaptiveGaussianPruner pruner(cfg);

    auto cloud = makeCloud(10);
    pruner.beginFrame(cloud);
    for (int it = 0; it < 10; ++it) {
        auto grads = makeGrads(std::vector<Real>(cloud.size(), Real(0.1)),
                               std::vector<Real>(cloud.size(), Real(0.1)));
        pruner.onIteration(cloud, grads, makeBins(10), nullptr);
    }
    EXPECT_GE(cloud.activeCount(), 8u);
}

TEST(Downsampler, ScheduleMatchesPaperFormula)
{
    DownsamplerConfig cfg;
    cfg.minWidthPixels = 0; // isolate the formula from the pixel floor
    DynamicDownsampler d(cfg);
    // Area scale sequence after a keyframe: 1/16, 2/16, 4/16 (cap 1/4),
    // then stays at the 1/4 cap.
    EXPECT_NEAR(d.areaScaleFor(1), 1.0 / 16, 1e-6);
    EXPECT_NEAR(d.areaScaleFor(2), 2.0 / 16, 1e-6);
    EXPECT_NEAR(d.areaScaleFor(3), 4.0 / 16, 1e-6);
    EXPECT_NEAR(d.areaScaleFor(4), 4.0 / 16, 1e-6);
    EXPECT_NEAR(d.areaScaleFor(9), 4.0 / 16, 1e-6);
}

TEST(Downsampler, KeyframesResetToFull)
{
    DownsamplerConfig cfg;
    cfg.minWidthPixels = 0;
    DynamicDownsampler d(cfg);
    EXPECT_EQ(d.nextScale(true, 640), 1.0f);
    Real s1 = d.nextScale(false, 640);
    EXPECT_NEAR(s1, 0.25f, 1e-5); // sqrt(1/16)
    Real s2 = d.nextScale(false, 640);
    EXPECT_NEAR(s2, std::sqrt(2.0f / 16), 1e-5);
    EXPECT_EQ(d.nextScale(true, 640), 1.0f); // reset
    EXPECT_NEAR(d.nextScale(false, 640), 0.25f, 1e-5);
}

TEST(Downsampler, PixelFloorClampsScale)
{
    DownsamplerConfig cfg;
    cfg.minWidthPixels = 80;
    DynamicDownsampler d(cfg);
    d.nextScale(true, 160);
    // sqrt(1/16)=0.25 would give 40 px < 80 px floor -> clamp to 0.5.
    Real s = d.nextScale(false, 160);
    EXPECT_NEAR(s, 0.5f, 1e-5);
}

TEST(Downsampler, FirstFrameIsFullResolution)
{
    DynamicDownsampler d;
    // Before any keyframe is seen, scale must be 1.
    EXPECT_EQ(d.nextScale(false, 640), 1.0f);
}

TEST(Baselines, KeepMaskDropsLowest)
{
    std::vector<Real> scores{5, 1, 4, 0.5f, 3, 2};
    auto keep = keepMaskFromScores(scores, Real(1.0f / 3), 1);
    // Two pruned: indices 1 and 3 (lowest scores).
    EXPECT_EQ(keep[3], 0);
    EXPECT_EQ(keep[1], 0);
    EXPECT_EQ(keep[0], 1);
    EXPECT_EQ(keep[2], 1);
}

TEST(Baselines, KeepMaskRespectsMinimum)
{
    std::vector<Real> scores(10, Real(1));
    auto keep = keepMaskFromScores(scores, Real(0.9), 8);
    size_t kept = 0;
    for (u8 k : keep)
        kept += k;
    EXPECT_EQ(kept, 8u);
}

TEST(Baselines, TamingWarmupSemantics)
{
    TamingScorer scorer(5);
    auto grads = makeGrads({1, 2}, {0, 0});
    EXPECT_FALSE(scorer.warmedUp());
    for (int i = 0; i < 5; ++i)
        scorer.observe(grads);
    EXPECT_TRUE(scorer.warmedUp());
    EXPECT_EQ(scorer.observedIterations(), 5u);
    auto s = scorer.scores();
    EXPECT_GT(s[1], s[0]); // larger gradients -> larger trend score
}

TEST(Baselines, TamingRemapKeepsAlignment)
{
    TamingScorer scorer(5);
    auto grads = makeGrads({1, 5, 2}, {0, 0, 0});
    scorer.observe(grads);
    scorer.remap({1, 0, 1});
    auto s = scorer.scores();
    ASSERT_EQ(s.size(), 2u);
    EXPECT_LT(s[0], s[1]); // entry for old index 2 > old index 0
}

} // namespace rtgs::core
