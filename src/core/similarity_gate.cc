#include "core/similarity_gate.hh"

#include <algorithm>
#include <cmath>

#include "image/metrics.hh"
#include "image/resize.hh"

namespace rtgs::core
{

u32
GateDecision::scaleIterations(u32 configured_iterations,
                              u32 min_iterations) const
{
    if (configured_iterations == 0)
        return 0;
    Real scaled = std::round(static_cast<Real>(configured_iterations) *
                             budgetScale);
    u32 iters = static_cast<u32>(std::max(Real(1), scaled));
    iters = std::max(iters, min_iterations);
    return std::min(iters, configured_iterations);
}

SimilarityGate::SimilarityGate(const SimilarityGateConfig &config)
    : config_(config)
{
}

Real
SimilarityGate::budgetScaleFor(Real rmse, Real ssim_score,
                               Real workload_change,
                               const SimilarityGateConfig &config)
{
    if (rmse < 0)
        return Real(1); // no history: never gate

    // Combine the signals on the RMSE scale. SSIM complements RMSE on
    // structural change (texture shifts with matched means); workload
    // change catches geometry entering/leaving the view that the probe
    // underweights.
    Real dissimilarity = rmse;
    if (config.useSsim) {
        // SSIM ~1 for near-static frames; (1 - ssim) reaches the
        // dynamic threshold at ~0.25 structural dissimilarity.
        dissimilarity = std::max(
            dissimilarity,
            (Real(1) - ssim_score) * Real(4) * config.rmseDynamic);
    }
    if (config.workloadChangeWeight > 0) {
        dissimilarity = std::max(
            dissimilarity, workload_change * config.workloadChangeWeight *
                               config.rmseDynamic);
    }

    if (dissimilarity >= config.rmseDynamic)
        return Real(1);
    if (dissimilarity <= config.rmseStatic)
        return config.minBudgetScale;
    Real t = (dissimilarity - config.rmseStatic) /
             (config.rmseDynamic - config.rmseStatic);
    return config.minBudgetScale + (Real(1) - config.minBudgetScale) * t;
}

GateDecision
SimilarityGate::evaluate(const ImageRGB &rgb,
                         const gs::WorkloadSummary *last_workload)
{
    GateDecision decision;
    if (!config_.enabled)
        return decision;

    ImageRGB probe = resizeThumbnail(rgb, config_.probeWidth);

    if (!prevProbe_.empty() && prevProbe_.width() == probe.width() &&
        prevProbe_.height() == probe.height()) {
        decision.rmse = static_cast<Real>(imageRmse(probe, prevProbe_));
        if (config_.useSsim)
            decision.ssimScore =
                static_cast<Real>(ssim(probe, prevProbe_));
        if (last_workload && havePrevWorkload_ &&
            prevWorkload_.fragmentsPerPixel() > 0) {
            // Per-pixel density, not raw fragments: dynamic
            // downsampling changes the tracking resolution between
            // frames, and raw counts would register the resolution
            // switch as a spurious scene change.
            double prev = prevWorkload_.fragmentsPerPixel();
            double cur = last_workload->fragmentsPerPixel();
            decision.workloadChange =
                static_cast<Real>(std::abs(cur - prev) / prev);
        }
        if (!std::isfinite(decision.rmse) ||
            !std::isfinite(decision.ssimScore)) {
            // A corrupted probe (NaN pixels in either frame) carries no
            // similarity information. Fail open: treat the frame as
            // fully dynamic so corruption can never cause the gate to
            // skip iterations, and keep the decision NaN-free.
            decision.rmse = config_.rmseDynamic;
            decision.ssimScore = 0;
            decision.budgetScale = Real(1);
            decision.gated = false;
        } else {
            decision.budgetScale =
                budgetScaleFor(decision.rmse, decision.ssimScore,
                               decision.workloadChange, config_);
            decision.gated = decision.budgetScale < Real(1);
        }
    }

    prevProbe_ = std::move(probe);
    if (last_workload) {
        prevWorkload_ = *last_workload;
        havePrevWorkload_ = true;
    }
    return decision;
}

} // namespace rtgs::core
