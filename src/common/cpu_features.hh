/**
 * @file
 * Runtime CPU feature detection and the SIMD dispatch level shared by
 * every explicit-width kernel in the pipeline.
 *
 * Kernel selection is a *runtime* decision: the library always builds
 * the scalar kernels with the baseline flags, the AVX2 kernels live in
 * one translation unit compiled with -mavx2, and the dispatcher picks
 * between them per process from CPUID (never from the compiler flags
 * of the calling TU). The RTGS_SIMD environment variable
 * can force a lower level ("scalar") so both dispatch paths are
 * exercisable on the same binary — the scalar CI shard relies on this.
 */

#ifndef RTGS_COMMON_CPU_FEATURES_HH
#define RTGS_COMMON_CPU_FEATURES_HH

#include "common/types.hh"

namespace rtgs
{

/** Instruction-set capabilities of the running CPU (CPUID-derived). */
struct CpuFeatures
{
    bool avx2 = false;  //!< AVX2 integer/float 256-bit ops
    bool osAvx = false; //!< OS saves/restores YMM state (XGETBV)
};

/** CPUID query, computed once per process. */
const CpuFeatures &cpuFeatures();

/** SIMD dispatch levels, lowest first. */
enum class SimdLevel : u8
{
    Scalar = 0,
    Avx2 = 1,
};

/** Highest level the hardware (and OS) supports. */
SimdLevel detectedSimdLevel();

/**
 * The level kernels actually dispatch to: detectedSimdLevel() capped by
 * the RTGS_SIMD environment variable ("scalar" forces the fallback
 * path; "avx2" is a no-op cap). Read once, cached for the process.
 */
SimdLevel activeSimdLevel();

/** Human-readable level name ("scalar", "avx2") for logs and JSON. */
const char *simdLevelName(SimdLevel level);

/**
 * Test hook: while alive, activeSimdLevel() returns `level` capped at
 * detectedSimdLevel() (not at RTGS_SIMD), so one test process can run
 * the same pipeline under both dispatch levels. Scopes nest; no render
 * may run on another thread while one begins or ends.
 */
class ScopedSimdLevel
{
  public:
    explicit ScopedSimdLevel(SimdLevel level);
    ~ScopedSimdLevel();

    ScopedSimdLevel(const ScopedSimdLevel &) = delete;
    ScopedSimdLevel &operator=(const ScopedSimdLevel &) = delete;

  private:
    int previous_;
};

} // namespace rtgs

#endif // RTGS_COMMON_CPU_FEATURES_HH
