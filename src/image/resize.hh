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
 * Box-downsample to a thumbnail at most `max_width` pixels wide:
 * aspect-correct, never upsampled, and at least 8x8 so thumbnails of
 * any frame stay comparable. The similarity gate's probes and the
 * relocalizer's keyframe database share this size rule.
 */
ImageRGB resizeThumbnail(const ImageRGB &src, u32 max_width);

/**
 * Nearest-neighbour resize for depth maps. Depth must never be
 * averaged across silhouette boundaries (it invents phantom surfaces
 * between foreground and background), so downsampled tracking uses
 * nearest sampling for the geometric channel.
 */
ImageF resizeNearest(const ImageF &src, u32 out_w, u32 out_h);

} // namespace rtgs

#endif // RTGS_IMAGE_RESIZE_HH
