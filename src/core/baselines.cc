#include "core/baselines.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"

namespace rtgs::core
{

std::vector<u8>
keepMaskFromScores(const std::vector<Real> &scores, Real prune_ratio,
                   size_t min_keep)
{
    rtgs_assert(prune_ratio >= 0 && prune_ratio < 1);
    size_t n = scores.size();
    std::vector<u8> keep(n, 1);
    if (n <= min_keep)
        return keep;
    size_t to_prune = static_cast<size_t>(
        prune_ratio * static_cast<double>(n));
    to_prune = std::min(to_prune, n - min_keep);
    if (to_prune == 0)
        return keep;

    std::vector<u32> order(n);
    std::iota(order.begin(), order.end(), 0u);
    std::nth_element(order.begin(),
                     order.begin() + static_cast<long>(to_prune - 1),
                     order.end(), [&scores](u32 a, u32 b) {
                         return scores[a] < scores[b];
                     });
    for (size_t i = 0; i < to_prune; ++i)
        keep[order[i]] = 0;
    return keep;
}

TamingScorer::TamingScorer(u32 warmup_iterations)
    : warmup_(warmup_iterations)
{
}

void
TamingScorer::observe(const gs::CloudGrads &grads)
{
    size_t n = grads.size();
    if (lastMagnitude_.size() < n) {
        lastMagnitude_.resize(n, 0);
        trendEma_.resize(n, 0);
    }
    constexpr Real ema = Real(0.9);
    for (size_t k = 0; k < n; ++k) {
        Real mag = grads.dPositions[k].norm() + grads.covGradNorms[k];
        // Trend: rising gradients predict future importance.
        Real delta = mag - lastMagnitude_[k];
        trendEma_[k] = ema * trendEma_[k] + (1 - ema) * (mag + delta);
        lastMagnitude_[k] = mag;
    }
    ++observed_;
}

void
TamingScorer::remap(const std::vector<u8> &keep)
{
    size_t w = 0;
    for (size_t k = 0; k < keep.size() && k < trendEma_.size(); ++k) {
        if (keep[k]) {
            trendEma_[w] = trendEma_[k];
            lastMagnitude_[w] = lastMagnitude_[k];
            ++w;
        }
    }
    trendEma_.resize(w);
    lastMagnitude_.resize(w);
}

std::vector<Real>
TamingScorer::scores() const
{
    return trendEma_;
}

} // namespace rtgs::core
