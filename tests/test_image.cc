/**
 * @file
 * Unit tests for the image layer: container semantics, quality metrics
 * (RMSE / PSNR / SSIM / depth MAE) and resampling.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "image/image.hh"
#include "image/metrics.hh"
#include "image/resize.hh"

namespace rtgs
{

namespace
{

ImageRGB
noiseImage(u32 w, u32 h, u64 seed)
{
    Rng rng(seed);
    ImageRGB img(w, h);
    for (size_t i = 0; i < img.pixelCount(); ++i)
        img[i] = {static_cast<Real>(rng.uniform()),
                  static_cast<Real>(rng.uniform()),
                  static_cast<Real>(rng.uniform())};
    return img;
}

} // namespace

TEST(Image, IndexingRowMajor)
{
    ImageRGB img(4, 3);
    img.at(2, 1) = {1, 0, 0};
    EXPECT_EQ(img[1 * 4 + 2].x, 1);
    EXPECT_EQ(img.pixelCount(), 12u);
}

TEST(Image, FillSetsAllPixels)
{
    ImageF img(8, 8);
    img.fill(Real(2.5));
    for (size_t i = 0; i < img.pixelCount(); ++i)
        EXPECT_EQ(img[i], Real(2.5));
}

TEST(Metrics, IdenticalImagesAreInfinitePsnr)
{
    ImageRGB a = noiseImage(16, 16, 1);
    EXPECT_TRUE(std::isinf(psnr(a, a)));
    EXPECT_DOUBLE_EQ(imageRmse(a, a), 0.0);
    EXPECT_NEAR(ssim(a, a), 1.0, 1e-9);
}

TEST(Metrics, PsnrOfKnownError)
{
    // Uniform error of 0.1 -> MSE = 0.01 -> PSNR = 20 dB.
    ImageRGB a(8, 8), b(8, 8);
    a.fill({0.5f, 0.5f, 0.5f});
    b.fill({0.6f, 0.6f, 0.6f});
    EXPECT_NEAR(psnr(a, b), 20.0, 1e-4);
}

TEST(Metrics, RmseMatchesHandComputation)
{
    ImageRGB a(1, 1), b(1, 1);
    a.at(0, 0) = {0, 0, 0};
    b.at(0, 0) = {0.3f, 0, 0.4f};
    // MSE over 3 channels = (0.09 + 0 + 0.16)/3.
    EXPECT_NEAR(imageRmse(a, b), std::sqrt(0.25 / 3.0), 1e-6);
}

TEST(Metrics, SsimDropsWithNoise)
{
    ImageRGB base(32, 32);
    for (u32 y = 0; y < 32; ++y)
        for (u32 x = 0; x < 32; ++x) {
            Real v = static_cast<Real>((x / 8 + y / 8) % 2);
            base.at(x, y) = {v, v, v};
        }
    ImageRGB noisy = base;
    Rng rng(3);
    for (size_t i = 0; i < noisy.pixelCount(); ++i) {
        Real n = static_cast<Real>(rng.normal(0, 0.2));
        noisy[i].x = std::clamp(noisy[i].x + n, 0.0f, 1.0f);
        noisy[i].y = std::clamp(noisy[i].y + n, 0.0f, 1.0f);
        noisy[i].z = std::clamp(noisy[i].z + n, 0.0f, 1.0f);
    }
    double s_noisy = ssim(base, noisy);
    EXPECT_LT(s_noisy, 0.95);
    EXPECT_GT(s_noisy, 0.0);
}

TEST(Metrics, SsimSymmetric)
{
    ImageRGB a = noiseImage(24, 24, 4);
    ImageRGB b = noiseImage(24, 24, 5);
    EXPECT_NEAR(ssim(a, b), ssim(b, a), 1e-9);
}

TEST(Resize, BoxPreservesMeanBrightness)
{
    ImageRGB img = noiseImage(64, 48, 6);
    ImageRGB small = resizeBox(img, 16, 12);
    double mean_full = 0, mean_small = 0;
    for (size_t i = 0; i < img.pixelCount(); ++i)
        mean_full += luminance(img[i]);
    for (size_t i = 0; i < small.pixelCount(); ++i)
        mean_small += luminance(small[i]);
    mean_full /= static_cast<double>(img.pixelCount());
    mean_small /= static_cast<double>(small.pixelCount());
    EXPECT_NEAR(mean_full, mean_small, 0.01);
}

TEST(Resize, BoxOfConstantIsConstant)
{
    ImageRGB img(33, 17);
    img.fill({0.25f, 0.5f, 0.75f});
    ImageRGB out = resizeBox(img, 10, 5);
    for (size_t i = 0; i < out.pixelCount(); ++i) {
        EXPECT_NEAR(out[i].x, 0.25f, 1e-5);
        EXPECT_NEAR(out[i].y, 0.5f, 1e-5);
        EXPECT_NEAR(out[i].z, 0.75f, 1e-5);
    }
}

TEST(Gray, LuminanceWeights)
{
    ImageRGB img(1, 1);
    img.at(0, 0) = {1, 0, 0};
    ImageF g = toGray(img);
    EXPECT_NEAR(g.at(0, 0), 0.299, 1e-5);
}

} // namespace rtgs
