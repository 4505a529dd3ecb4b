/**
 * @file
 * Adaptive Gaussian pruning (Sec. 4.1).
 *
 * Protocol: over a masking interval of K iterations, Gaussians with low
 * Eq. 7 importance are masked (excluded from rendering but kept in
 * memory); at the (K+1)-th iteration the masked set is permanently
 * removed. K adapts using the tile-Gaussian intersection change ratio:
 * above 5% the next interval is K0/2, otherwise 2*K0. The overall
 * pruning ratio is capped (50% by default, the paper's Fig. 14a
 * finding) and masking is conservative: per interval only a slice of
 * the budget is masked, so a Gaussian that becomes important in a later
 * iteration is still present to show it.
 */

#ifndef RTGS_CORE_PRUNING_HH
#define RTGS_CORE_PRUNING_HH

#include <functional>
#include <vector>

#include "core/importance.hh"
#include "gs/tiling.hh"

namespace rtgs::core
{

/** Adaptive pruner configuration (paper defaults from Sec. 6.1; the
 *  Eq. 7 balance and the change-ratio threshold are fixed in
 *  pruning.cc). */
struct PrunerConfig
{
    /** Initial masking interval K0. */
    u32 initialInterval = 5;
    /** Hard cap on the cumulative pruned fraction (Fig. 14a). */
    Real maxPruneRatio = Real(0.5);
    /** Fraction of active Gaussians masked per interval. */
    Real maskFractionPerInterval = Real(0.15);
    /** Never prune below this many Gaussians. */
    size_t minGaussians = 64;
    /**
     * Ablation switch: directly remove instead of mask-then-remove
     * (the unstable variant discussed in Sec. 3).
     */
    bool directPrune = false;
};

/** Pruner statistics for reports and tests. */
struct PrunerStats
{
    size_t masked = 0;          //!< currently masked (not yet removed)
    size_t prunedTotal = 0;     //!< permanently removed so far
    size_t initialCount = 0;    //!< population when tracking started
    u32 currentInterval = 0;    //!< the K in effect
    u32 intervalsCompleted = 0;
    double lastChangeRatio = 0; //!< last tile-intersection change ratio
};

/**
 * The adaptive pruner. Drive it once per tracking iteration with the
 * gradients and tile bins that iteration already produced; it mutates
 * the cloud's `active` mask and, at interval boundaries, removes
 * masked Gaussians via a caller-provided compaction callback (so the
 * map optimiser state can be remapped in the same motion).
 */
class AdaptiveGaussianPruner
{
  public:
    /** Callback type: permanently remove entries where keep[i]==0. */
    using CompactFn = std::function<void(const std::vector<u8> &keep)>;

    explicit AdaptiveGaussianPruner(const PrunerConfig &config = {});

    const PrunerConfig &config() const { return config_; }
    const PrunerStats &stats() const { return stats_; }

    /** Arm the pruner for a new frame's tracking iterations. */
    void beginFrame(const gs::GaussianCloud &cloud);

    /**
     * Observe one tracking iteration. `grads` are the backward pass's
     * outputs (reused, never recomputed); `bins` the iteration's tile
     * intersections.
     *
     * @param compact invoked when the masked set is permanently removed
     */
    void onIteration(gs::GaussianCloud &cloud,
                     const gs::CloudGrads &grads, const gs::TileBins &bins,
                     const CompactFn &compact);

    /** Cumulative pruned fraction relative to the initial population. */
    double prunedRatio() const;

  private:
    void maskLowImportance(gs::GaussianCloud &cloud);
    void removeMasked(gs::GaussianCloud &cloud, const CompactFn &compact);

    PrunerConfig config_;
    PrunerStats stats_;
    std::vector<Real> scoreAccum_;
    u32 itersInInterval_ = 0;
    u64 lastIntersections_ = 0;
    bool haveLastIntersections_ = false;
};

} // namespace rtgs::core

#endif // RTGS_CORE_PRUNING_HH
