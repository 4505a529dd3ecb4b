/**
 * @file
 * Frame-level redundancy reduction: the similarity gate (Sec. 3,
 * Fig. 5). Consecutive frames of a 30 FPS capture are highly similar,
 * so most tracking iterations on a near-static frame re-derive what the
 * previous frame already established. The gate computes a cheap
 * inter-frame similarity signal — RMSE (optionally SSIM) between
 * downsampled probes of consecutive frames, combined with the forward
 * pipeline's per-frame workload counters — and scales the per-frame
 * iteration budgets: near-static frames run a small fraction of the
 * configured optimisation loop, fully dynamic frames keep all of it.
 */

#ifndef RTGS_CORE_SIMILARITY_GATE_HH
#define RTGS_CORE_SIMILARITY_GATE_HH

#include "gs/render_pipeline.hh"
#include "image/image.hh"

namespace rtgs::core
{

/** Gate configuration. Defaults follow the Fig. 5 similarity regime. */
struct SimilarityGateConfig
{
    bool enabled = false;

    /** Probe width in pixels. Building the probe box-filters the full
     *  frame once (O(frame area), cheap next to a render pass); the
     *  RMSE/SSIM comparison itself then costs only O(probe area). */
    u32 probeWidth = 64;

    /** Also compute SSIM on the probes (reported, and the complement
     *  1-SSIM participates in the dissimilarity signal). */
    bool useSsim = false;

    /** RMSE at or below which a frame counts as fully static. */
    Real rmseStatic = Real(0.01);

    /** RMSE at or above which a frame gets the full budget. */
    Real rmseDynamic = Real(0.06);

    /** Budget floor: fraction of the configured iterations a fully
     *  static frame still runs (pose noise never goes to zero). */
    Real minBudgetScale = Real(0.3);

    /** Absolute floor on gated iteration counts. */
    u32 minIterations = 3;

    /**
     * Weight of the workload-change signal: the relative change in
     * rasterised fragments between consecutive frames, mapped onto the
     * RMSE scale (a 100% fragment change counts as `weight *
     * rmseDynamic` of dissimilarity). 0 disables the signal.
     */
    Real workloadChangeWeight = Real(0.5);
};

/** One frame's gate outcome. */
struct GateDecision
{
    Real rmse = Real(-1);        //!< probe RMSE vs previous frame (-1: none)
    Real ssimScore = Real(1);    //!< probe SSIM (1 when disabled)
    Real workloadChange = 0;     //!< |fragments delta| / previous fragments
    Real budgetScale = Real(1);  //!< fraction of configured iterations
    bool gated = false;          //!< true when budgetScale < 1

    /** Apply the budget to an iteration count (never raises it). */
    u32 scaleIterations(u32 configured_iterations,
                        u32 min_iterations) const;
};

/**
 * The gate. Stateful: keeps the previous frame's probe and workload
 * summary. Feed every frame in order via evaluate().
 */
class SimilarityGate
{
  public:
    explicit SimilarityGate(const SimilarityGateConfig &config = {});

    const SimilarityGateConfig &config() const { return config_; }

    /**
     * Pure similarity -> budget mapping (unit-tested directly): linear
     * ramp from minBudgetScale at rmseStatic to 1 at rmseDynamic over
     * the combined dissimilarity signal.
     */
    static Real budgetScaleFor(Real rmse, Real ssim_score,
                               Real workload_change,
                               const SimilarityGateConfig &config);

    /**
     * Evaluate the gate for the next frame.
     *
     * @param rgb           the frame's native-resolution colour image
     * @param last_workload previous frame's forward workload summary,
     *                      or null when unavailable
     */
    GateDecision evaluate(const ImageRGB &rgb,
                          const gs::WorkloadSummary *last_workload);

  private:
    SimilarityGateConfig config_;
    ImageRGB prevProbe_;
    gs::WorkloadSummary prevWorkload_;
    bool havePrevWorkload_ = false;
};

} // namespace rtgs::core

#endif // RTGS_CORE_SIMILARITY_GATE_HH
