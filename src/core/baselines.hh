/**
 * @file
 * Baseline Gaussian pruning the paper compares against (Tab. 1):
 * Taming 3DGS (gradient-trend prediction), reduced to its published
 * scoring rule, and the keep-mask every score-ranked pruner applies.
 * LightGaussian and FlashGS enter Fig. 13 only through the extra
 * scoring passes the performance models charge them
 * (hw::FrameTrace::extraScoringPasses); RTGS's scoring is free because
 * it reuses tracking gradients.
 */

#ifndef RTGS_CORE_BASELINES_HH
#define RTGS_CORE_BASELINES_HH

#include <vector>

#include "gs/projection.hh"

namespace rtgs::core
{

/** Build a keep-mask dropping the lowest-scored fraction. */
std::vector<u8> keepMaskFromScores(const std::vector<Real> &scores,
                                   Real prune_ratio, size_t min_keep = 16);

/**
 * Taming-3DGS-style scoring: predict importance from the *trend* of
 * per-Gaussian gradient magnitudes over observed iterations. Designed
 * for offline training with hundreds of warm-up iterations; with
 * SLAM's 15-100 iterations per frame the trend estimate is noisy,
 * which is exactly the weakness Tab. 1 calls out.
 */
class TamingScorer
{
  public:
    /**
     * @param warmup_iterations iterations the method expects before its
     *        prediction stabilises (500 in the paper's description)
     */
    explicit TamingScorer(u32 warmup_iterations = 500);

    /** Observe one iteration's gradients. */
    void observe(const gs::CloudGrads &grads);

    /** Keep internal state aligned after a compaction. */
    void remap(const std::vector<u8> &keep);

    /** Trend-based scores (higher = keep). */
    std::vector<Real> scores() const;

    /** Whether enough iterations were observed per the method's design. */
    bool warmedUp() const { return observed_ >= warmup_; }

    u32 observedIterations() const { return observed_; }

  private:
    u32 warmup_;
    u32 observed_ = 0;
    std::vector<Real> lastMagnitude_;
    std::vector<Real> trendEma_;
};

} // namespace rtgs::core

#endif // RTGS_CORE_BASELINES_HH
