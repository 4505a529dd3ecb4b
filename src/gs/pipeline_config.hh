/**
 * @file
 * The approximate-computing config ladder: named presets that trade
 * numeric fidelity for wall-clock across the whole splat pipeline.
 *
 * Rungs (see docs/APPROXIMATION.md for measured numbers):
 *
 *   preset          exp eval             contract
 *   --------------  -------------------  ---------------------------
 *   precise         exact exp (expExact) byte-identical to the serial
 *                   in the AVX2 or       reference under either
 *                   scalar splat kernel  dispatch
 *   fastest_approx  polynomial exp       <= 16 ulp exp
 *
 * The rungs differ only in the splat kernels' exp. The invariants every
 * rung keeps: the cloud is stored in fp32, blending, gradients and Adam
 * moments accumulate in fp32, and every rung is bitwise deterministic
 * for a fixed preset + worker count (and across 1/2/4 workers, since
 * per-tile writes are disjoint).
 */

#ifndef RTGS_GS_PIPELINE_CONFIG_HH
#define RTGS_GS_PIPELINE_CONFIG_HH

#include "common/types.hh"

namespace rtgs::gs
{

/**
 * Rungs of the precision/SIMD ladder, slowest-and-exact first. Carried
 * inside RenderSettings (kernel selection) and SlamConfig, so one field
 * configures the whole ladder.
 */
enum class PipelinePreset : u8
{
    Precise = 0,       //!< exact exp, bit-exact vs the reference
    FastestApprox = 1, //!< polynomial exp
};

/** Stable name for JSON/CLI: "precise", "fastest_approx". */
const char *pipelinePresetName(PipelinePreset preset);

} // namespace rtgs::gs

#endif // RTGS_GS_PIPELINE_CONFIG_HH
