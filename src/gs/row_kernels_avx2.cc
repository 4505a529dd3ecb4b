/**
 * @file
 * The AVX2 instantiation of the splat kernels (gs/row_kernels_body.hh):
 * an 8-lane __m256 lane type, plus a 4-double lane type for the exact
 * exp, which runs as two double halves per step.
 *
 * Lanes that fail a test keep their state through a blend and add +0 to
 * the gradient sums (the products are masked, so NaN or inf in a
 * rejected lane never leaks), which is why this table gives the scalar
 * one's bytes. No FMA: the library pins -ffp-contract=off, and this TU
 * adds -mavx2 alone, so a fused intrinsic fails to compile here unless
 * the global flags enable FMA.
 *
 * This is the only TU compiled with -mavx2 (set per-file in
 * CMakeLists.txt), and splatKernelsAvx2() is its only external symbol
 * (ctest avx2_tu_symbols). When the toolchain can't build it, the whole
 * body compiles away and splatKernelsAvx2() returns nullptr, so the
 * dispatcher falls back to scalar.
 */

#include "gs/row_kernels.hh"

#if defined(__AVX2__)

#include <immintrin.h>

namespace rtgs::gs
{

namespace
{

static_assert(sizeof(Real) == 4, "AVX2 kernels assume float Real");

// det-lint: begin-allow(double-accum) — the exact exp's double lanes:
// each widens one value, runs expCore and narrows back once; nothing
// accumulates in double.
/** Four doubles: half a step of the exp, widened. */
struct Avx2Wide
{
    using T = __m256d;

    /** 2^n: (n + 1023) << 52, read from the shifter sum's low bits. */
    static T
    pow2(T t)
    {
        return _mm256_castsi256_pd(_mm256_slli_epi64(
            _mm256_add_epi64(_mm256_castpd_si256(t),
                             _mm256_set1_epi64x(1023)),
            52));
    }

    template <typename Core>
    static __m256
    throughDouble(__m256 x, Core core)
    {
        const __m128 lo = _mm256_cvtpd_ps(
            core(_mm256_cvtps_pd(_mm256_castps256_ps128(x))));
        const __m128 hi = _mm256_cvtpd_ps(
            core(_mm256_cvtps_pd(_mm256_extractf128_ps(x, 1))));
        return _mm256_set_m128(hi, lo);
    }
};
// det-lint: end-allow(double-accum)

/** Eight pixels per step; masks are all-ones lanes. */
struct Avx2Lanes
{
    using F = __m256;
    using Mask = __m256;
    using Acc = __m256;
    using Wide = Avx2Wide;
    static constexpr u32 kWidth = 8;

    static F splat(Real v) { return _mm256_set1_ps(v); }

    static F
    iota(Real x)
    {
        return _mm256_add_ps(_mm256_set1_ps(x),
                             _mm256_setr_ps(0, 1, 2, 3, 4, 5, 6, 7));
    }

    static F add(F a, F b) { return _mm256_add_ps(a, b); }
    static F sub(F a, F b) { return _mm256_sub_ps(a, b); }
    static F mul(F a, F b) { return _mm256_mul_ps(a, b); }
    static F div(F a, F b) { return _mm256_div_ps(a, b); }
    // min/max return their second operand when either is NaN, which is
    // a < b ? a : b and a > b ? a : b.
    static F min(F a, F b) { return _mm256_min_ps(a, b); }
    static F max(F a, F b) { return _mm256_max_ps(a, b); }
    static Mask gt(F a, F b) { return _mm256_cmp_ps(a, b, _CMP_GT_OQ); }
    static Mask lt(F a, F b) { return _mm256_cmp_ps(a, b, _CMP_LT_OQ); }
    static Mask ngt(F a, F b) { return _mm256_cmp_ps(a, b, _CMP_NGT_UQ); }
    static Mask nlt(F a, F b) { return _mm256_cmp_ps(a, b, _CMP_NLT_UQ); }
    static Mask both(Mask a, Mask b) { return _mm256_and_ps(a, b); }
    static Mask andNot(Mask a, Mask b) { return _mm256_andnot_ps(a, b); }
    static bool none(Mask m) { return _mm256_testz_ps(m, m); }

    static u32
    count(Mask m)
    {
        return static_cast<u32>(
            __builtin_popcount(static_cast<unsigned>(_mm256_movemask_ps(m))));
    }

    static F blend(F a, F b, Mask m) { return _mm256_blendv_ps(a, b, m); }
    static F load(const Real *p) { return _mm256_loadu_ps(p); }
    static void store(Real *p, F v) { _mm256_storeu_ps(p, v); }
    static Mask inRow(F pxf, F end) { return lt(pxf, end); }

    static Mask
    above(const u32 *p, u32 v)
    {
        const __m256i a =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
        return _mm256_castsi256_ps(
            _mm256_cmpgt_epi32(a, _mm256_set1_epi32(static_cast<i32>(v))));
    }

    /** += 1 on m lanes: the mask is -1 there. */
    static void
    bump(u32 *p, Mask m)
    {
        __m256i *q = reinterpret_cast<__m256i *>(p);
        _mm256_storeu_si256(q, _mm256_sub_epi32(_mm256_loadu_si256(q),
                                                _mm256_castps_si256(m)));
    }

    static void
    put(u32 *p, Mask m, u32 v)
    {
        _mm256_maskstore_epi32(reinterpret_cast<i32 *>(p),
                               _mm256_castps_si256(m),
                               _mm256_set1_epi32(static_cast<i32>(v)));
    }

    static void
    accumulate(Acc &a, u32, F v, Mask m)
    {
        a = _mm256_add_ps(a, _mm256_and_ps(v, m));
    }

    /** Lane i of the hadd pairs holds sum i's tree, low half + high. */
    static void
    reduce(Real *out, Acc a, Acc b, Acc c, Acc d)
    {
        const __m256 pairs =
            _mm256_hadd_ps(_mm256_hadd_ps(a, b), _mm256_hadd_ps(c, d));
        _mm_storeu_ps(out, _mm_add_ps(_mm256_castps256_ps128(pairs),
                                      _mm256_extractf128_ps(pairs, 1)));
    }
};

#include "gs/row_kernels_body.hh"

const SplatKernels kAvx2{forwardSplat<Avx2Lanes>, backwardSplat<Avx2Lanes>,
                         expBatch<Avx2Lanes>, "avx2-exact"};

} // namespace

const SplatKernels *
splatKernelsAvx2()
{
    return &kAvx2;
}

} // namespace rtgs::gs

#else // !__AVX2__

namespace rtgs::gs
{

const SplatKernels *
splatKernelsAvx2()
{
    return nullptr; // toolchain built this TU without AVX2 support
}

} // namespace rtgs::gs

#endif
