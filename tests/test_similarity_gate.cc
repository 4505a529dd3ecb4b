/**
 * @file
 * Unit tests for the frame-level similarity gate: the pure
 * similarity-score -> iteration-budget mapping, the probe-based
 * evaluation path, and the workload-change signal.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/similarity_gate.hh"

namespace rtgs::core
{

namespace
{

SimilarityGateConfig
enabledConfig()
{
    SimilarityGateConfig cfg;
    cfg.enabled = true;
    cfg.probeWidth = 32;
    cfg.rmseStatic = Real(0.01);
    cfg.rmseDynamic = Real(0.06);
    cfg.minBudgetScale = Real(0.3);
    cfg.minIterations = 3;
    return cfg;
}

ImageRGB
flatImage(u32 w, u32 h, Real v)
{
    ImageRGB img(w, h);
    for (u32 y = 0; y < h; ++y)
        for (u32 x = 0; x < w; ++x)
            img.at(x, y) = {v, v, v};
    return img;
}

} // namespace

TEST(SimilarityGate, BudgetScaleMapsSimilarityRamp)
{
    SimilarityGateConfig cfg = enabledConfig();

    // No history: never gate.
    EXPECT_EQ(SimilarityGate::budgetScaleFor(Real(-1), 1, 0, cfg),
              Real(1));
    // Fully static: floor.
    EXPECT_EQ(SimilarityGate::budgetScaleFor(Real(0), 1, 0, cfg),
              cfg.minBudgetScale);
    EXPECT_EQ(SimilarityGate::budgetScaleFor(cfg.rmseStatic, 1, 0, cfg),
              cfg.minBudgetScale);
    // Fully dynamic: full budget.
    EXPECT_EQ(SimilarityGate::budgetScaleFor(cfg.rmseDynamic, 1, 0, cfg),
              Real(1));
    EXPECT_EQ(SimilarityGate::budgetScaleFor(Real(0.5), 1, 0, cfg),
              Real(1));
    // Midpoint of the ramp: midway between floor and 1.
    Real mid = (cfg.rmseStatic + cfg.rmseDynamic) / 2;
    Real expect = (cfg.minBudgetScale + 1) / 2;
    EXPECT_NEAR(SimilarityGate::budgetScaleFor(mid, 1, 0, cfg), expect,
                1e-5);
    // Monotonic in RMSE.
    Real prev = 0;
    for (Real r = 0; r <= Real(0.08); r += Real(0.005)) {
        Real s = SimilarityGate::budgetScaleFor(r, 1, 0, cfg);
        EXPECT_GE(s, prev);
        prev = s;
    }
}

TEST(SimilarityGate, WorkloadChangeLiftsBudget)
{
    SimilarityGateConfig cfg = enabledConfig();
    cfg.workloadChangeWeight = Real(1);
    // Static probe but the rendered workload doubled: gate must back
    // off toward the full budget.
    Real calm = SimilarityGate::budgetScaleFor(Real(0), 1, Real(0), cfg);
    Real churn = SimilarityGate::budgetScaleFor(Real(0), 1, Real(1), cfg);
    EXPECT_EQ(calm, cfg.minBudgetScale);
    EXPECT_EQ(churn, Real(1));
}

TEST(SimilarityGate, SsimSignalLiftsBudget)
{
    SimilarityGateConfig cfg = enabledConfig();
    cfg.useSsim = true;
    // Matched RMSE but structurally dissimilar (low SSIM): full budget.
    Real structural =
        SimilarityGate::budgetScaleFor(Real(0), Real(0.5), 0, cfg);
    EXPECT_EQ(structural, Real(1));
}

TEST(SimilarityGate, ScaleIterationsRespectsFloors)
{
    GateDecision d;
    d.budgetScale = Real(0.2);
    EXPECT_EQ(d.scaleIterations(10, 2), 2u);
    EXPECT_EQ(d.scaleIterations(20, 2), 4u);
    d.budgetScale = Real(1);
    EXPECT_EQ(d.scaleIterations(10, 2), 10u);
    // Never raises above the configured count.
    d.budgetScale = Real(0.99);
    EXPECT_LE(d.scaleIterations(3, 2), 3u);
    // Min-iterations floor binds.
    d.budgetScale = Real(0.01);
    EXPECT_EQ(d.scaleIterations(10, 3), 3u);
    EXPECT_EQ(d.scaleIterations(0, 3), 0u);
}

TEST(SimilarityGate, DisabledGateNeverGates)
{
    SimilarityGate gate; // default config: disabled
    ImageRGB a = flatImage(64, 48, Real(0.5));
    auto d1 = gate.evaluate(a, nullptr);
    auto d2 = gate.evaluate(a, nullptr);
    EXPECT_FALSE(d1.gated);
    EXPECT_FALSE(d2.gated);
    EXPECT_EQ(d2.budgetScale, Real(1));
}

TEST(SimilarityGate, StaticFramesGateDynamicFramesDoNot)
{
    SimilarityGate gate(enabledConfig());
    ImageRGB a = flatImage(64, 48, Real(0.5));

    // First frame: no history, ungated.
    auto first = gate.evaluate(a, nullptr);
    EXPECT_FALSE(first.gated);
    EXPECT_LT(first.rmse, Real(0));

    // Identical frame: fully static, gate to the floor.
    auto still = gate.evaluate(a, nullptr);
    EXPECT_TRUE(still.gated);
    EXPECT_NEAR(still.rmse, 0, 1e-6);
    EXPECT_EQ(still.budgetScale, gate.config().minBudgetScale);

    // Strongly different frame: full budget again.
    ImageRGB b = flatImage(64, 48, Real(0.9));
    auto moved = gate.evaluate(b, nullptr);
    EXPECT_FALSE(moved.gated);
    EXPECT_EQ(moved.budgetScale, Real(1));
}

TEST(SimilarityGate, WorkloadSignalFlowsThroughEvaluate)
{
    SimilarityGateConfig cfg = enabledConfig();
    cfg.workloadChangeWeight = Real(1);
    SimilarityGate gate(cfg);
    ImageRGB a = flatImage(64, 48, Real(0.5));

    gs::WorkloadSummary w1;
    w1.fragmentsIterated = 1000;
    w1.imagePixels = 100;
    gate.evaluate(a, &w1);

    gs::WorkloadSummary w2;
    w2.fragmentsIterated = 3000; // 200% change at the same resolution
    w2.imagePixels = 100;
    auto d = gate.evaluate(a, &w2);
    EXPECT_NEAR(d.workloadChange, 2.0, 1e-6);
    EXPECT_EQ(d.budgetScale, Real(1))
        << "large workload churn must override probe similarity";
}

TEST(SimilarityGate, WorkloadSignalIgnoresResolutionSwitches)
{
    // Dynamic downsampling halves the tracking resolution between
    // frames; per-pixel normalisation must keep the workload signal
    // quiet when the scene itself is static.
    SimilarityGateConfig cfg = enabledConfig();
    cfg.workloadChangeWeight = Real(1);
    SimilarityGate gate(cfg);
    ImageRGB a = flatImage(64, 48, Real(0.5));

    gs::WorkloadSummary full;
    full.fragmentsIterated = 4000;
    full.imagePixels = 400; // 10 fragments/pixel at full resolution
    gate.evaluate(a, &full);

    gs::WorkloadSummary quarter;
    quarter.fragmentsIterated = 1000; // raw count dropped 4x...
    quarter.imagePixels = 100;        // ...because resolution did
    auto d = gate.evaluate(a, &quarter);
    EXPECT_NEAR(d.workloadChange, 0.0, 1e-6)
        << "resolution switches must not read as scene change";
    EXPECT_TRUE(d.gated);
}

TEST(SimilarityGate, ExposureShiftReadsAsDynamicFrame)
{
    // An auto-exposure jump changes every pixel's value; the gate must
    // release the full budget so tracking can re-fit the shifted
    // photometry instead of skipping iterations on a "static" frame.
    SimilarityGate gate(enabledConfig());
    ImageRGB a = flatImage(64, 48, Real(0.4));
    gate.evaluate(a, nullptr);

    ImageRGB brightened = flatImage(64, 48, Real(0.4) * Real(1.6));
    auto d = gate.evaluate(brightened, nullptr);
    EXPECT_FALSE(d.gated);
    EXPECT_EQ(d.budgetScale, Real(1));
    EXPECT_GT(d.rmse, gate.config().rmseDynamic);
}

TEST(SimilarityGate, CorruptedProbeFailsOpen)
{
    // NaN pixels poison the probe RMSE/SSIM. The gate must fail OPEN:
    // a health-flagged frame may never have its iterations skipped on
    // the strength of a meaningless similarity score, and the decision
    // must stay NaN-free for downstream arithmetic.
    SimilarityGate gate(enabledConfig());
    ImageRGB a = flatImage(64, 48, Real(0.5));
    gate.evaluate(a, nullptr);

    ImageRGB corrupted = flatImage(64, 48, Real(0.5));
    for (u32 y = 8; y < 40; ++y)
        for (u32 x = 8; x < 56; ++x)
            corrupted.at(x, y).x = std::numeric_limits<Real>::quiet_NaN();
    auto d = gate.evaluate(corrupted, nullptr);
    EXPECT_FALSE(d.gated);
    EXPECT_EQ(d.budgetScale, Real(1));
    EXPECT_TRUE(std::isfinite(d.rmse));
    EXPECT_TRUE(std::isfinite(d.ssimScore));
    EXPECT_TRUE(std::isfinite(d.budgetScale));

    // The comparison against the corrupted history probe is equally
    // meaningless: the next clean frame must also fail open...
    auto after = gate.evaluate(a, nullptr);
    EXPECT_FALSE(after.gated);
    EXPECT_TRUE(std::isfinite(after.budgetScale));

    // ...and once clean history is re-established the gate recovers.
    auto recovered = gate.evaluate(a, nullptr);
    EXPECT_TRUE(recovered.gated) << "identical clean frames gate again";
    EXPECT_EQ(recovered.budgetScale, gate.config().minBudgetScale);
}

} // namespace rtgs::core
