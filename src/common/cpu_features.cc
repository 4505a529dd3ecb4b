#include "common/cpu_features.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace rtgs
{

namespace
{

/** ScopedSimdLevel's level, or -1 when none is alive. */
std::atomic<int> levelOverride{-1};

CpuFeatures
queryCpuFeatures()
{
    CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx))
        return f;
    const bool osxsave = (ecx & (1u << 27)) != 0;
    if (osxsave) {
        // XGETBV(0): bits 1 (SSE) and 2 (AVX) must both be OS-enabled
        // before any 256-bit register is architecturally usable.
        unsigned xlo = 0, xhi = 0;
        __asm__ volatile("xgetbv" : "=a"(xlo), "=d"(xhi) : "c"(0));
        f.osAvx = (xlo & 0x6u) == 0x6u;
    }
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx))
        f.avx2 = (ebx & (1u << 5)) != 0;
#endif
    return f;
}

SimdLevel
queryActiveLevel()
{
    SimdLevel level = detectedSimdLevel();
    if (const char *env = std::getenv("RTGS_SIMD")) {
        if (std::strcmp(env, "scalar") == 0)
            level = SimdLevel::Scalar;
        // "avx2" (or anything else) never raises the level above what
        // the hardware reports; dispatching an unsupported ISA would
        // fault, so the override can only cap.
    }
    return level;
}

} // namespace

const CpuFeatures &
cpuFeatures()
{
    static const CpuFeatures features = queryCpuFeatures();
    return features;
}

SimdLevel
detectedSimdLevel()
{
    const CpuFeatures &f = cpuFeatures();
    // The OS must also context-switch YMM state to dispatch above
    // scalar.
    if (f.avx2 && f.osAvx)
        return SimdLevel::Avx2;
    return SimdLevel::Scalar;
}

SimdLevel
activeSimdLevel()
{
    static const SimdLevel level = queryActiveLevel();
    const int forced = levelOverride.load(std::memory_order_relaxed);
    return forced < 0 ? level : static_cast<SimdLevel>(forced);
}

ScopedSimdLevel::ScopedSimdLevel(SimdLevel level)
    : previous_(levelOverride.exchange(
          static_cast<int>(std::min(level, detectedSimdLevel()))))
{
}

ScopedSimdLevel::~ScopedSimdLevel()
{
    levelOverride.store(previous_);
}

const char *
simdLevelName(SimdLevel level)
{
    switch (level) {
      case SimdLevel::Avx2:
        return "avx2";
      case SimdLevel::Scalar:
        break;
    }
    return "scalar";
}

} // namespace rtgs
