#include "gs/row_kernels.hh"

#include <cstring>

namespace rtgs::gs
{

namespace
{

// det-lint: begin-allow(double-accum) — the exact exp's double lanes:
// each widens one value, runs expCore and narrows back once; nothing
// accumulates in double.
/** One double: the widened lane of the scalar exp. */
struct ScalarWide
{
    using T = double;

    /** 2^n: (n + 1023) << 52, read from the shifter sum's low bits. */
    static T
    pow2(T t)
    {
        u64 bits;
        std::memcpy(&bits, &t, sizeof bits);
        bits = (bits + 1023) << 52;
        T scale;
        std::memcpy(&scale, &bits, sizeof scale);
        return scale;
    }

    template <typename Core>
    static Real
    throughDouble(Real x, Core core)
    {
        return static_cast<Real>(core(static_cast<T>(x)));
    }
};
// det-lint: end-allow(double-accum)

/**
 * One pixel per step. Each gradient sum keeps 8 partial sums, lane
 * (px - sx0) mod 8, as the AVX2 lanes do.
 */
struct ScalarLanes
{
    using F = Real;
    using Mask = bool;
    struct Acc
    {
        Real l[8];
    };
    using Wide = ScalarWide;
    static constexpr u32 kWidth = 1;

    static F splat(Real v) { return v; }
    static F iota(Real x) { return x; }
    static F add(F a, F b) { return a + b; }
    static F sub(F a, F b) { return a - b; }
    static F mul(F a, F b) { return a * b; }
    static F div(F a, F b) { return a / b; }
    static F min(F a, F b) { return a < b ? a : b; }
    static F max(F a, F b) { return a > b ? a : b; }
    static Mask gt(F a, F b) { return a > b; }
    static Mask lt(F a, F b) { return a < b; }
    static Mask ngt(F a, F b) { return !(a > b); }
    static Mask nlt(F a, F b) { return !(a < b); }
    static Mask both(Mask a, Mask b) { return a && b; }
    static Mask andNot(Mask a, Mask b) { return !a && b; }
    static bool none(Mask m) { return !m; }
    static u32 count(Mask m) { return m ? 1 : 0; }
    static F blend(F a, F b, Mask m) { return m ? b : a; }
    static F load(const Real *p) { return *p; }
    static void store(Real *p, F v) { *p = v; }
    static Mask inRow(F, F) { return true; }
    static Mask above(const u32 *p, u32 v) { return *p > v; }
    static void bump(u32 *p, Mask m) { *p += m ? 1 : 0; }

    static void
    put(u32 *p, Mask m, u32 v)
    {
        if (m)
            *p = v;
    }

    static void
    accumulate(Acc &a, u32 i, F v, Mask m)
    {
        a.l[i & 7u] += m ? v : Real(0);
    }

    static void
    reduce(Real *out, const Acc &a, const Acc &b, const Acc &c,
           const Acc &d)
    {
        const Acc *sums[] = {&a, &b, &c, &d};
        for (int j = 0; j < 4; ++j) {
            const Real *l = sums[j]->l;
            out[j] = ((l[0] + l[1]) + (l[2] + l[3])) +
                     ((l[4] + l[5]) + (l[6] + l[7]));
        }
    }
};

#include "gs/row_kernels_body.hh"

const SplatKernels kScalar{forwardSplat<ScalarLanes>,
                           backwardSplat<ScalarLanes>,
                           expBatch<ScalarLanes>, "scalar-exact"};

} // namespace

Real
expExact(Real x)
{
    return expLanes<ScalarLanes>(x);
}

const SplatKernels &
selectSplatKernels(SimdLevel level)
{
    if (level >= SimdLevel::Avx2) {
        if (const SplatKernels *k = splatKernelsAvx2())
            return *k;
    }
    return kScalar;
}

} // namespace rtgs::gs
