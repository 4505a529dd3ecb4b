/**
 * @file
 * Software fp16 (IEEE binary16) conversions with round-to-nearest-even,
 * used by the mixed-precision CowColumn storage.
 *
 * Pure integer implementations: bitwise-deterministic on every target,
 * independent of F16C availability, and safe in constant-evaluated
 * contexts. The hot paths that matter (projection widen-on-load,
 * optimiser store-narrow) run once per Gaussian per frame, not per
 * fragment, so the software conversion cost is noise next to the
 * rasterisation loops.
 */

#ifndef RTGS_COMMON_HALFFLOAT_HH
#define RTGS_COMMON_HALFFLOAT_HH

#include <cstring>

#include "common/types.hh"

namespace rtgs
{

namespace detail
{

inline u32
floatBits(float f)
{
    u32 u;
    std::memcpy(&u, &f, sizeof(u));
    return u;
}

inline float
bitsFloat(u32 u)
{
    float f;
    std::memcpy(&f, &u, sizeof(f));
    return f;
}

} // namespace detail

/** fp32 -> IEEE binary16 bits, round-to-nearest-even. */
inline u16
floatToHalfBits(float f)
{
    const u32 x = detail::floatBits(f);
    const u32 sign = (x >> 16) & 0x8000u;
    const u32 absx = x & 0x7FFFFFFFu;

    if (absx >= 0x7F800000u) {
        // Inf stays inf; NaN keeps a payload bit so it stays NaN.
        u32 mant = absx > 0x7F800000u ? 0x0200u : 0u;
        return static_cast<u16>(sign | 0x7C00u | mant |
                                ((absx >> 13) & 0x03FFu));
    }
    if (absx >= 0x477FF000u) {
        // Rounds to >= 2^16: overflow to half inf. (The threshold is
        // 65520.0f, the midpoint that RNE sends to inf.)
        return static_cast<u16>(sign | 0x7C00u);
    }
    if (absx < 0x38800000u) {
        // Subnormal half (or zero): shift the implicit-1 mantissa down
        // by the exponent deficit, RNE on the bits shifted out.
        if (absx < 0x33000001u)
            return static_cast<u16>(sign); // rounds to zero
        const u32 exp = absx >> 23;
        const u32 mant = (absx & 0x007FFFFFu) | 0x00800000u;
        const u32 shift = 126u - exp; // 14..24 given the bounds above
        const u32 kept = mant >> shift;
        const u32 rem = mant & ((1u << shift) - 1u);
        const u32 half = 1u << (shift - 1);
        u32 h = kept;
        if (rem > half || (rem == half && (kept & 1u)))
            ++h;
        return static_cast<u16>(sign | h);
    }
    // Normal range: rebias exponent, RNE on the dropped 13 bits.
    u32 h = ((absx >> 13) & 0x3FFFFFFFu) - (112u << 10);
    const u32 rem = absx & 0x1FFFu;
    if (rem > 0x1000u || (rem == 0x1000u && (h & 1u)))
        ++h; // carry may bump the exponent — that is correct rounding
    return static_cast<u16>(sign | h);
}

/** IEEE binary16 bits -> fp32 (exact). */
inline float
halfBitsToFloat(u16 h)
{
    const u32 sign = static_cast<u32>(h & 0x8000u) << 16;
    u32 exp = (h >> 10) & 0x1Fu;
    u32 mant = h & 0x03FFu;
    if (exp == 0x1Fu)
        return detail::bitsFloat(sign | 0x7F800000u | (mant << 13));
    if (exp == 0) {
        if (mant == 0)
            return detail::bitsFloat(sign);
        // Subnormal: normalise the mantissa into the implicit-1 form.
        while ((mant & 0x0400u) == 0) {
            mant <<= 1;
            --exp;
        }
        mant &= 0x03FFu;
        ++exp;
    }
    return detail::bitsFloat(sign | ((exp + 112u) << 23) | (mant << 13));
}

} // namespace rtgs

#endif // RTGS_COMMON_HALFFLOAT_HH
