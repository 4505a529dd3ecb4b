#include "core/downsampling.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace rtgs::core
{

DynamicDownsampler::DynamicDownsampler(const DownsamplerConfig &config)
    : config_(config)
{
    rtgs_assert(config.growthFactor > 1);
    rtgs_assert(config.minAreaScale > 0 &&
                config.minAreaScale <= config.maxAreaScale &&
                config.maxAreaScale <= 1);
}

Real
DynamicDownsampler::areaScaleFor(u32 frames_since_keyframe) const
{
    // Sec. 4.2: R_n = min((1/16) R0 * m^(n-k-1), (1/4) R0), where
    // frames_since_keyframe = n - k, so the exponent is one less.
    rtgs_assert(frames_since_keyframe >= 1);
    Real scale = config_.minAreaScale *
                 std::pow(config_.growthFactor,
                          static_cast<Real>(frames_since_keyframe - 1));
    return std::min(scale, config_.maxAreaScale);
}

Real
DynamicDownsampler::nextScale(bool is_keyframe, u32 full_width)
{
    if (is_keyframe || !seenKeyframe_) {
        seenKeyframe_ = true;
        framesSinceKeyframe_ = 0;
        return Real(1);
    }
    ++framesSinceKeyframe_;
    Real linear = std::sqrt(areaScaleFor(framesSinceKeyframe_));
    // Enforce the absolute pixel floor.
    if (full_width > 0) {
        Real floor_scale = static_cast<Real>(config_.minWidthPixels) /
                           static_cast<Real>(full_width);
        linear = std::max(linear, std::min(Real(1), floor_scale));
    }
    return std::min(linear, Real(1));
}

} // namespace rtgs::core
