/**
 * @file
 * The approximate-computing config ladder: named presets that trade
 * numeric fidelity for wall-clock across the whole splat pipeline.
 *
 * Rungs (see docs/APPROXIMATION.md for measured numbers):
 *
 *   preset          exp eval             storage        contract
 *   --------------  -------------------  -------------  ------------------
 *   precise         exact exp (expExact) fp32           byte-identical to
 *                   in the AVX2 or                      the serial
 *                   scalar splat kernel                 reference under
 *                                                       either dispatch
 *   fastest_approx  polynomial exp       fp16 colour/   <= 16 ulp exp; fp32
 *                                        opacity        accumulation
 *
 * The invariants every rung keeps: blending, gradients and Adam moments
 * accumulate in fp32 (narrowing happens only at column storage), and
 * every rung is bitwise deterministic for a fixed preset + worker count
 * (and across 1/2/4 workers, since per-tile writes are disjoint).
 */

#ifndef RTGS_GS_PIPELINE_CONFIG_HH
#define RTGS_GS_PIPELINE_CONFIG_HH

#include "common/types.hh"
#include "gs/gaussian.hh"

namespace rtgs::gs
{

/** Rungs of the precision/SIMD ladder, slowest-and-exact first. */
enum class PipelinePreset : u8
{
    Precise = 0,       //!< exact exp, bit-exact vs the reference
    FastestApprox = 1, //!< polynomial exp, fp16 storage
};

/**
 * Pipeline-wide approximation settings. Carried inside RenderSettings
 * (kernel selection) and SlamConfig (storage precision), so one field
 * configures the whole ladder.
 */
struct PipelineConfig
{
    PipelinePreset preset = PipelinePreset::Precise;
};

/** Stable name for JSON/CLI: "precise", "fastest_approx". */
const char *pipelinePresetName(PipelinePreset preset);

/**
 * Storage precision the preset asks of the low-sensitivity columns
 * (colour SH DC + opacity logit). Position/scale/rotation always stay
 * fp32 — they feed the EWA Jacobian, where fp16 quantisation moves
 * splat footprints by whole pixels.
 */
ColumnPrecision presetStoragePrecision(PipelinePreset preset);

/**
 * Apply the preset's storage precision to the cloud's low-sensitivity
 * columns. Re-encodes in place when the precision changes; the setting
 * then travels with every COW copy/snapshot of the cloud.
 */
void applyStoragePrecision(GaussianCloud &cloud,
                           const PipelineConfig &config);

} // namespace rtgs::gs

#endif // RTGS_GS_PIPELINE_CONFIG_HH
