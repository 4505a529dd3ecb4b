/**
 * @file
 * Image resampling for dynamic downsampling: area-weighted box reduction
 * to an arbitrary smaller size, and nearest sampling for depth.
 */

#ifndef RTGS_IMAGE_RESIZE_HH
#define RTGS_IMAGE_RESIZE_HH

#include "image/image.hh"

namespace rtgs
{

/** Area-averaged resize (intended for shrinking). */
ImageRGB resizeBox(const ImageRGB &src, u32 out_w, u32 out_h);

/**
 * Nearest-neighbour resize for depth maps. Depth must never be
 * averaged across silhouette boundaries (it invents phantom surfaces
 * between foreground and background), so downsampled tracking uses
 * nearest sampling for the geometric channel.
 */
ImageF resizeNearest(const ImageF &src, u32 out_w, u32 out_h);

} // namespace rtgs

#endif // RTGS_IMAGE_RESIZE_HH
