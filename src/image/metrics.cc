#include "image/metrics.hh"

#include <cmath>
#include <limits>

namespace rtgs
{

ImageF
toGray(const ImageRGB &img)
{
    ImageF out(img.width(), img.height());
    for (size_t i = 0; i < img.pixelCount(); ++i)
        out[i] = luminance(img[i]);
    return out;
}

double
imageMse(const ImageRGB &a, const ImageRGB &b)
{
    rtgs_assert(a.sameShape(b), "images must share a shape");
    if (a.pixelCount() == 0)
        return 0.0;
    double acc = 0.0;
    for (size_t i = 0; i < a.pixelCount(); ++i) {
        Vec3f d = a[i] - b[i];
        acc += static_cast<double>(d.squaredNorm());
    }
    return acc / (3.0 * static_cast<double>(a.pixelCount()));
}

double
imageRmse(const ImageRGB &a, const ImageRGB &b)
{
    return std::sqrt(imageMse(a, b));
}

double
psnr(const ImageRGB &a, const ImageRGB &b)
{
    double mse = imageMse(a, b);
    if (mse <= 0.0)
        return std::numeric_limits<double>::infinity();
    return 10.0 * std::log10(1.0 / mse);
}

double
ssim(const ImageRGB &a, const ImageRGB &b)
{
    rtgs_assert(a.sameShape(b), "images must share a shape");
    constexpr int window = 8;
    constexpr double c1 = 0.01 * 0.01;
    constexpr double c2 = 0.03 * 0.03;

    ImageF ga = toGray(a);
    ImageF gb = toGray(b);

    u32 w = a.width(), h = a.height();
    if (w < window || h < window) {
        // Degenerate tiny image: single global window.
        double mu_a = 0, mu_b = 0;
        size_t n = ga.pixelCount();
        if (n == 0)
            return 1.0;
        for (size_t i = 0; i < n; ++i) {
            mu_a += ga[i];
            mu_b += gb[i];
        }
        mu_a /= static_cast<double>(n);
        mu_b /= static_cast<double>(n);
        double va = 0, vb = 0, cov = 0;
        for (size_t i = 0; i < n; ++i) {
            double da = ga[i] - mu_a, db = gb[i] - mu_b;
            va += da * da;
            vb += db * db;
            cov += da * db;
        }
        va /= static_cast<double>(n);
        vb /= static_cast<double>(n);
        cov /= static_cast<double>(n);
        return ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) /
               ((mu_a * mu_a + mu_b * mu_b + c1) * (va + vb + c2));
    }

    double total = 0.0;
    size_t windows = 0;
    for (u32 y = 0; y + window <= h; y += window) {
        for (u32 x = 0; x + window <= w; x += window) {
            double mu_a = 0, mu_b = 0;
            for (int dy = 0; dy < window; ++dy) {
                for (int dx = 0; dx < window; ++dx) {
                    mu_a += ga.at(x + dx, y + dy);
                    mu_b += gb.at(x + dx, y + dy);
                }
            }
            constexpr double n = window * window;
            mu_a /= n;
            mu_b /= n;
            double va = 0, vb = 0, cov = 0;
            for (int dy = 0; dy < window; ++dy) {
                for (int dx = 0; dx < window; ++dx) {
                    double da = ga.at(x + dx, y + dy) - mu_a;
                    double db = gb.at(x + dx, y + dy) - mu_b;
                    va += da * da;
                    vb += db * db;
                    cov += da * db;
                }
            }
            va /= n - 1;
            vb /= n - 1;
            cov /= n - 1;
            total += ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) /
                     ((mu_a * mu_a + mu_b * mu_b + c1) * (va + vb + c2));
            ++windows;
        }
    }
    return windows ? total / static_cast<double>(windows) : 1.0;
}

} // namespace rtgs
