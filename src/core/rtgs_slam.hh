/**
 * @file
 * RTGS-enhanced SLAM: plugs adaptive Gaussian pruning (Sec. 4.1) and
 * dynamic downsampling (Sec. 4.2) into any of the base 3DGS-SLAM
 * profiles, exactly as the paper's "Ours + X" configurations. Both
 * techniques are plug-and-play: the base system's tracking, mapping
 * and keyframe policies are untouched.
 */

#ifndef RTGS_CORE_RTGS_SLAM_HH
#define RTGS_CORE_RTGS_SLAM_HH

#include <memory>

#include "core/baselines.hh"
#include "core/downsampling.hh"
#include "core/pruning.hh"
#include "core/similarity_gate.hh"
#include "slam/pipeline.hh"

namespace rtgs::core
{

/** Which pruning method runs inside the tracking loop. */
enum class PruneMethod { None, Rtgs, Taming };

/** Configuration for the enhanced system. */
struct RtgsSlamConfig
{
    slam::SlamConfig base;
    bool enablePruning = true;
    bool enableDownsampling = true;
    PruneMethod pruneMethod = PruneMethod::Rtgs;
    PrunerConfig pruner;
    DownsamplerConfig downsampler;

    /**
     * Frame-level similarity gating (Sec. 3 / Fig. 5): scales the
     * per-frame iteration budgets from inter-frame similarity.
     * Disabled by default.
     */
    SimilarityGateConfig gate;
};

/** Extra per-frame reporting on top of the base FrameReport. */
struct RtgsFrameReport
{
    slam::FrameReport base;
    Real trackingScale = Real(1);   //!< linear resolution used
    bool predictedKeyframe = false;
    size_t prunedTotal = 0;         //!< cumulative removals
    size_t maskedNow = 0;           //!< currently masked
    GateDecision gate;              //!< similarity-gate outcome
    /** Iterations the gate skipped vs the configured tracking budget
     *  (0 when the gate is disabled or the frame was ungated). */
    u32 gatedTrackIterations = 0;
};

/**
 * The "Ours + base" system. Owns a SlamSystem and threads the RTGS
 * algorithm techniques through its hooks.
 */
class RtgsSlam
{
  public:
    RtgsSlam(const RtgsSlamConfig &config, const Intrinsics &intrinsics);

    const RtgsSlamConfig &config() const { return config_; }
    slam::SlamSystem &system() { return *system_; }
    const slam::SlamSystem &system() const { return *system_; }
    const AdaptiveGaussianPruner &pruner() const { return pruner_; }
    const DynamicDownsampler &downsampler() const { return downsampler_; }
    const std::vector<RtgsFrameReport> &reports() const
    {
        return reports_;
    }

    /** Additional observer invoked on every tracking iteration. */
    void setExternalTrackHook(slam::TrackIterationHook hook);

    /** Process the next frame through the enhanced pipeline. */
    RtgsFrameReport processFrame(const data::Frame &frame);

    /**
     * Block until asynchronously enqueued mapping work has completed
     * and refresh reports() rows with the completed map results. Call
     * before reading the map / reports when base.mapQueueDepth > 0
     * (no-op otherwise).
     */
    void finish();

    const SimilarityGate &gate() const { return gate_; }

  private:
    void installHooks();

    /**
     * Taming baseline: prune a fixed per-frame slice on the scorer's
     * trend scores, up to the global cap. Handles the scores-shorter-
     * than-cloud case after densification grew the map (new Gaussians
     * carry zero trend score until observed).
     */
    void applyTamingPrune();

    RtgsSlamConfig config_;
    std::unique_ptr<slam::SlamSystem> system_;
    AdaptiveGaussianPruner pruner_;
    DynamicDownsampler downsampler_;
    TamingScorer taming_;
    SimilarityGate gate_;
    slam::TrackIterationHook externalHook_;
    std::vector<RtgsFrameReport> reports_;
    bool pruneThisFrame_ = false;
    size_t tamingPruned_ = 0;
    size_t tamingInitial_ = 0;
    gs::WorkloadSummary lastWorkload_;
    bool haveLastWorkload_ = false;
};

} // namespace rtgs::core

#endif // RTGS_CORE_RTGS_SLAM_HH
