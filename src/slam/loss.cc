#include "slam/loss.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace rtgs::slam
{

namespace
{

/** Huber transition point for depth residuals (metres). */
constexpr Real kHuberDeltaDepth = Real(0.5);
/** Only pixels whose rendered opacity exceeds this take part in the
 *  photometric term; avoids dragging the map toward the background. */
constexpr Real kAlphaMask = Real(0.05);

/** Huber value and derivative for residual r with transition delta. */
inline void
huber(Real r, Real delta, Real &value, Real &deriv)
{
    Real a = std::abs(r);
    if (a <= delta) {
        value = Real(0.5) * r * r / delta;
        deriv = r / delta;
    } else {
        value = a - Real(0.5) * delta;
        deriv = r > 0 ? Real(1) : Real(-1);
    }
}

} // namespace

LossResult
computeLoss(const gs::RenderResult &render, const ImageRGB &observed_rgb,
            const ImageF *observed_depth, const LossConfig &config)
{
    rtgs_assert(render.image.sameShape(observed_rgb));
    if (observed_depth) {
        rtgs_assert(render.depth.sameShape(*observed_depth));
    }

    LossResult out;
    out.dlDColor = ImageRGB(render.image.width(), render.image.height());
    out.dlDDepth = ImageF(render.image.width(), render.image.height());

    size_t n = render.image.pixelCount();
    // First pass: count valid pixels so gradients are correctly
    // normalised in the same pass that computes them.
    size_t pho_valid = 0, geo_valid = 0;
    std::vector<u8> pho_mask(n), geo_mask(n);
    const bool use_depth = config.useDepth && observed_depth;
    for (size_t i = 0; i < n; ++i) {
        if (render.alpha[i] > kAlphaMask) {
            pho_mask[i] = 1;
            ++pho_valid;
        }
        if (use_depth && render.alpha[i] > Real(0.9) &&
            (*observed_depth)[i] > 0) {
            geo_mask[i] = 1;
            ++geo_valid;
        }
    }

    double e_pho = 0, e_geo = 0;
    Real pho_norm = pho_valid ? Real(1) / (3 * static_cast<Real>(pho_valid))
                              : Real(0);
    Real geo_norm = geo_valid ? Real(1) / static_cast<Real>(geo_valid)
                              : Real(0);
    Real w_pho = use_depth ? config.lambdaPho : Real(1);
    Real w_geo = use_depth ? (1 - config.lambdaPho) : Real(0);

    for (size_t i = 0; i < n; ++i) {
        if (pho_mask[i]) {
            Vec3f r = render.image[i] - observed_rgb[i];
            Vec3f g;
            Real v0, v1, v2;
            huber(r.x, config.huberDeltaColor, v0, g.x);
            huber(r.y, config.huberDeltaColor, v1, g.y);
            huber(r.z, config.huberDeltaColor, v2, g.z);
            e_pho += static_cast<double>((v0 + v1 + v2) * pho_norm);
            out.dlDColor[i] = g * (pho_norm * w_pho);
        }
        if (geo_mask[i]) {
            Real rd = render.depth[i] - (*observed_depth)[i];
            Real v, g;
            huber(rd, kHuberDeltaDepth, v, g);
            e_geo += static_cast<double>(v * geo_norm);
            out.dlDDepth[i] = g * (geo_norm * w_geo);
        }
    }

    out.photometric = e_pho;
    out.geometric = e_geo;
    out.loss = static_cast<double>(w_pho) * e_pho +
               static_cast<double>(w_geo) * e_geo;
    return out;
}

} // namespace rtgs::slam
