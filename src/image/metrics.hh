/**
 * @file
 * Image-quality metrics used throughout the paper's evaluation:
 * RMSE (Fig. 5), PSNR (all quality tables) and SSIM (Fig. 5).
 */

#ifndef RTGS_IMAGE_METRICS_HH
#define RTGS_IMAGE_METRICS_HH

#include "image/image.hh"

namespace rtgs
{

/** Root-mean-square error over RGB channels, range [0, 1]. */
double imageRmse(const ImageRGB &a, const ImageRGB &b);

/** Mean squared error over RGB channels. */
double imageMse(const ImageRGB &a, const ImageRGB &b);

/**
 * Peak signal-to-noise ratio in dB for unit-range images; returns +inf
 * for identical images (callers typically clamp for display).
 */
double psnr(const ImageRGB &a, const ImageRGB &b);

/**
 * Structural similarity (Wang et al. 2004) on the luma channel with the
 * standard 8x8 uniform window and C1/C2 constants for unit range.
 */
double ssim(const ImageRGB &a, const ImageRGB &b);

} // namespace rtgs

#endif // RTGS_IMAGE_METRICS_HH
