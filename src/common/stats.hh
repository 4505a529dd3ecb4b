/**
 * @file
 * Lightweight statistics primitives for the benchmark harnesses and
 * examples.
 */

#ifndef RTGS_COMMON_STATS_HH
#define RTGS_COMMON_STATS_HH

#include <cstddef>
#include <vector>

namespace rtgs
{

/**
 * Running scalar summary: count / mean / min / max / stddev computed with
 * Welford's online algorithm.
 */
class RunningStat
{
  public:
    /** Add one sample. */
    void add(double x);

    size_t count() const { return count_; }
    double mean() const { return count_ ? mean_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double sum() const { return mean_ * static_cast<double>(count_); }

    /** Sample variance (n-1 denominator); 0 for fewer than two samples. */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

  private:
    size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Fixed-bin histogram over [lo, hi); samples outside the range clamp to the
 * first/last bin so tails remain visible.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, size_t bins);

    void add(double x);

    size_t bins() const { return counts_.size(); }
    size_t binCount(size_t i) const { return counts_.at(i); }
    double binLo(size_t i) const;
    double binHi(size_t i) const;
    size_t total() const { return total_; }

  private:
    double lo_;
    double hi_;
    std::vector<size_t> counts_;
    size_t total_ = 0;
};

} // namespace rtgs

#endif // RTGS_COMMON_STATS_HH
