#include "common/stats.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace rtgs
{

void
RunningStat::add(double x)
{
    if (count_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

double
RunningStat::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

Histogram::Histogram(double lo, double hi, size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0)
{
    rtgs_assert(hi > lo && bins > 0);
}

void
Histogram::add(double x)
{
    double t = (x - lo_) / (hi_ - lo_);
    auto bin = static_cast<long>(t * static_cast<double>(counts_.size()));
    bin = std::clamp<long>(bin, 0, static_cast<long>(counts_.size()) - 1);
    ++counts_[static_cast<size_t>(bin)];
    ++total_;
}

double
Histogram::binLo(size_t i) const
{
    return lo_ + (hi_ - lo_) * static_cast<double>(i) /
           static_cast<double>(counts_.size());
}

double
Histogram::binHi(size_t i) const
{
    return binLo(i + 1);
}

} // namespace rtgs
