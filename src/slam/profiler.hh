/**
 * @file
 * Wall-clock timing for the SLAM pipeline: the per-frame
 * FrameReport::trackSeconds and mapSeconds behind the latency
 * breakdowns of Fig. 3.
 *
 * This file is the pipeline's only sanctioned clock site: timing is
 * observability, never an input to the computation, so determinism-
 * contracted TUs (src/gs, src/slam, src/core, src/oracle) must take
 * their measurements through Stopwatch rather than reading std::chrono
 * clocks directly (tools/determinism_lint.py enforces this).
 */

#ifndef RTGS_SLAM_PROFILER_HH
#define RTGS_SLAM_PROFILER_HH

#include <chrono>

namespace rtgs::slam
{

/**
 * Monotonic elapsed-time measurement; starts running on construction.
 */
class Stopwatch
{
  public:
    Stopwatch() : start_(std::chrono::steady_clock::now()) {}

    /** Seconds since construction. */
    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

} // namespace rtgs::slam

#endif // RTGS_SLAM_PROFILER_HH
