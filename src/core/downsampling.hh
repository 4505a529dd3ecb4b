/**
 * @file
 * Dynamic downsampling (Sec. 4.2).
 *
 * Keyframes are processed at the full resolution R0 (an area, i.e. a
 * pixel count). The first non-keyframe after a keyframe runs at
 * (1/16) R0; each further consecutive non-keyframe multiplies the area
 * by m (default 2) up to a cap of (1/4) R0, and a new keyframe resets
 * the schedule. Downsampling is progressive rather than abrupt so the
 * trajectory stays smooth (Sec. 4.2's robustness argument).
 */

#ifndef RTGS_CORE_DOWNSAMPLING_HH
#define RTGS_CORE_DOWNSAMPLING_HH

#include "common/types.hh"

namespace rtgs::core
{

/** Downsampler configuration (paper defaults). */
struct DownsamplerConfig
{
    /** Area fraction for the first non-keyframe after a keyframe. */
    Real minAreaScale = Real(1) / 16;
    /** Area fraction cap for later non-keyframes. */
    Real maxAreaScale = Real(1) / 4;
    /** Per-frame area growth factor m (> 1). */
    Real growthFactor = Real(2);
    /**
     * Floor on the tracked image width in pixels. The paper's absolute
     * minimum on TUM is 160x120; when this library runs on linearly
     * scaled-down frames, the same floor must scale too or tracking
     * degenerates on handfuls of pixels.
     */
    u32 minWidthPixels = 64;
};

/**
 * Stateful resolution scheduler: feed it each frame's keyframe flag and
 * it returns the *linear* scale (sqrt of the area fraction) to track
 * that frame at.
 */
class DynamicDownsampler
{
  public:
    explicit DynamicDownsampler(const DownsamplerConfig &config = {});

    const DownsamplerConfig &config() const { return config_; }

    /**
     * Linear resolution scale for the next frame.
     *
     * @param is_keyframe   the frame's keyframe status
     * @param full_width    native image width (for the pixel floor)
     */
    Real nextScale(bool is_keyframe, u32 full_width);

    /** Area scale of frame n given the last keyframe index k (Eq. in
     *  Sec. 4.2); exposed for direct unit testing. */
    Real areaScaleFor(u32 frames_since_keyframe) const;

    /** Frames since the last keyframe (0 right after a keyframe). */
    u32 framesSinceKeyframe() const { return framesSinceKeyframe_; }

  private:
    DownsamplerConfig config_;
    u32 framesSinceKeyframe_ = 0;
    bool seenKeyframe_ = false;
};

} // namespace rtgs::core

#endif // RTGS_CORE_DOWNSAMPLING_HH
