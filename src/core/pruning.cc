#include "core/pruning.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace rtgs::core
{

namespace
{

/** Eq. 7 position/covariance balance (Sec. 6.1). */
constexpr Real kLambda = Real(0.8);
/** Tile-intersection change ratio above which the masking interval
 *  halves, and below which it doubles (5%, Sec. 6.1). */
constexpr Real kChangeRatioThreshold = Real(0.05);

} // namespace

AdaptiveGaussianPruner::AdaptiveGaussianPruner(const PrunerConfig &config)
    : config_(config)
{
    rtgs_assert(config.initialInterval > 0);
    rtgs_assert(config.maxPruneRatio >= 0 && config.maxPruneRatio < 1);
    stats_.currentInterval = config.initialInterval;
}

void
AdaptiveGaussianPruner::beginFrame(const gs::GaussianCloud &cloud)
{
    scoreAccum_.assign(cloud.size(), 0);
    itersInInterval_ = 0;
    haveLastIntersections_ = false;
    if (stats_.initialCount == 0)
        stats_.initialCount = cloud.size();
}

double
AdaptiveGaussianPruner::prunedRatio() const
{
    if (stats_.initialCount == 0)
        return 0;
    return static_cast<double>(stats_.prunedTotal) /
           static_cast<double>(stats_.initialCount);
}

void
AdaptiveGaussianPruner::maskLowImportance(gs::GaussianCloud &cloud)
{
    // Budget: how many more Gaussians may still be pruned under the
    // global cap, and how many this interval may mask.
    size_t active = cloud.activeCount();
    if (active <= config_.minGaussians)
        return;
    double cap = config_.maxPruneRatio *
                 static_cast<double>(stats_.initialCount);
    double already = static_cast<double>(stats_.prunedTotal +
                                         stats_.masked);
    size_t remaining_budget = already >= cap
        ? 0
        : static_cast<size_t>(cap - already);
    size_t interval_budget = static_cast<size_t>(
        config_.maskFractionPerInterval * static_cast<double>(active));
    size_t budget = std::min(remaining_budget, interval_budget);
    budget = std::min(budget, active - config_.minGaussians);
    if (budget == 0)
        return;

    // Order active Gaussians by accumulated importance, ascending.
    std::vector<u32> order;
    order.reserve(active);
    const auto &act = cloud.active.view();
    for (size_t k = 0; k < cloud.size(); ++k)
        if (act[k])
            order.push_back(static_cast<u32>(k));
    std::nth_element(order.begin(),
                     order.begin() + static_cast<long>(budget - 1),
                     order.end(), [this](u32 a, u32 b) {
                         return scoreAccum_[a] < scoreAccum_[b];
                     });

    auto &mask = cloud.active.mut();
    for (size_t i = 0; i < budget; ++i) {
        mask[order[i]] = 0;
        ++stats_.masked;
    }
}

void
AdaptiveGaussianPruner::removeMasked(gs::GaussianCloud &cloud,
                                     const CompactFn &compact)
{
    if (stats_.masked == 0)
        return;
    std::vector<u8> keep(cloud.size(), 1);
    size_t removed = 0;
    const auto &act = cloud.active.view();
    for (size_t k = 0; k < cloud.size(); ++k) {
        if (!act[k]) {
            keep[k] = 0;
            ++removed;
        }
    }
    // Callback first: the async path translates the mask through the
    // cloud's pre-compaction stable ids (the sync path's optimiser
    // remap does not touch the cloud, so the order is free there).
    if (compact)
        compact(keep);
    cloud.compact(keep);
    // Keep the score accumulator aligned with the compacted cloud.
    size_t w = 0;
    for (size_t k = 0; k < keep.size(); ++k)
        if (keep[k])
            scoreAccum_[w++] = scoreAccum_[k];
    scoreAccum_.resize(w);

    stats_.prunedTotal += removed;
    stats_.masked = 0;
}

void
AdaptiveGaussianPruner::onIteration(gs::GaussianCloud &cloud,
                                    const gs::CloudGrads &grads,
                                    const gs::TileBins &bins,
                                    const CompactFn &compact)
{
    rtgs_assert(grads.size() == cloud.size());
    if (scoreAccum_.size() != cloud.size())
        scoreAccum_.resize(cloud.size(), 0);

    // Reuse the tracking gradients (no extra backward pass).
    accumulateScores(scoreAccum_, importanceScores(grads, kLambda));
    ++itersInInterval_;

    if (itersInInterval_ < stats_.currentInterval)
        return;

    // Interval boundary: adapt K from the tile-intersection change
    // ratio, then mask (or directly prune) low-importance Gaussians and
    // permanently drop the previous interval's masked set.
    u64 intersections = bins.totalIntersections();
    if (haveLastIntersections_ && lastIntersections_ > 0) {
        double ratio = std::abs(
            static_cast<double>(intersections) -
            static_cast<double>(lastIntersections_)) /
            static_cast<double>(lastIntersections_);
        stats_.lastChangeRatio = ratio;
        stats_.currentInterval = ratio > kChangeRatioThreshold
            ? std::max<u32>(1, config_.initialInterval / 2)
            : 2 * config_.initialInterval;
    }
    lastIntersections_ = intersections;
    haveLastIntersections_ = true;

    removeMasked(cloud, compact); // the (K+1)-th iteration removal
    maskLowImportance(cloud);
    if (config_.directPrune)
        removeMasked(cloud, compact); // ablation: no grace interval

    std::fill(scoreAccum_.begin(), scoreAccum_.end(), Real(0));
    itersInInterval_ = 0;
    ++stats_.intervalsCompleted;
}

} // namespace rtgs::core
