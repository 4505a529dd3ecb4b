/**
 * @file
 * Integrated system model (Sec. 5.5): the GPU keeps Steps 1-2
 * (preprocessing, sorting) and pruning; the plug-in runs Steps 3-5.
 * Produces end-to-end frame times, FPS and energy for:
 *   - the pure-GPU baseline (optionally DISTWAR-enhanced),
 *   - the GPU + RTGS plug-in system (with ablation features),
 *   - a GauSPU comparator built from its published configuration and
 *     techniques (tile streaming + pixel sparse sampling, no Gaussian
 *     pruning, no cross-stage reuse).
 */

#ifndef RTGS_HW_SYSTEM_MODEL_HH
#define RTGS_HW_SYSTEM_MODEL_HH

#include <vector>

#include "hw/energy.hh"
#include "hw/gpu_model.hh"
#include "hw/rtgs_model.hh"

namespace rtgs::hw
{

/** End-to-end numbers for a sequence of frames. */
struct SequenceReport
{
    double totalSeconds = 0;
    double trackingSeconds = 0;
    double mappingSeconds = 0;
    double joules = 0;
    u32 frames = 0;

    double fps() const
    {
        return totalSeconds > 0 ? frames / totalSeconds : 0;
    }
    /** FPS counting tracking work only (paper's "Tracking FPS"). */
    double trackingFps() const
    {
        return trackingSeconds > 0 ? frames / trackingSeconds : 0;
    }
    double energyPerFrame() const
    {
        return frames > 0 ? joules / frames : 0;
    }
};

/** System configurations Fig. 15 compares. */
enum class SystemKind
{
    GpuBaseline,    //!< base algorithm on the GPU
    GpuDistwar,     //!< + DISTWAR warp-level gradient merging
    RtgsNoMapping,  //!< plug-in accelerates tracking only
    RtgsFull,       //!< plug-in accelerates tracking and mapping
    GauSpu,         //!< GauSPU comparator
};

/** The integrated model. */
class SystemModel
{
  public:
    /**
     * @param gpu             host GPU spec
     * @param workload_scale  see EdgeGpuModel (resolutionScale^2)
     */
    SystemModel(const GpuSpec &gpu, double workload_scale,
                const RtgsHwConfig &plugin = RtgsHwConfig::paper());

    const EdgeGpuModel &gpuModel() const { return gpuModel_; }
    const RtgsAccelModel &pluginModel() const { return pluginModel_; }

    /** Frame time of one frame under a system configuration. */
    double frameTime(const FrameTrace &frame, SystemKind kind,
                     const RtgsFeatures &features =
                         RtgsFeatures::all()) const;

    /** Tracking-only portion of the frame time. */
    double frameTrackingTime(const FrameTrace &frame, SystemKind kind,
                             const RtgsFeatures &features =
                                 RtgsFeatures::all()) const;

    /** Energy of one frame under a system configuration. */
    SystemEnergy frameEnergy(const FrameTrace &frame, SystemKind kind,
                             const RtgsFeatures &features =
                                 RtgsFeatures::all()) const;

    /** Aggregate a whole sequence. */
    SequenceReport sequenceReport(const std::vector<FrameTrace> &frames,
                                  SystemKind kind,
                                  const RtgsFeatures &features =
                                      RtgsFeatures::all()) const;

  private:
    /** One iteration's time (GPU part + accelerated part). */
    double iterationTime(const IterationTrace &trace, bool tracking,
                         SystemKind kind,
                         const RtgsFeatures &features,
                         double *gpu_share) const;

    EdgeGpuModel gpuModel_;
    RtgsAccelModel pluginModel_;
    RtgsAccelModel gauSpuModel_; //!< GauSPU's 128-RE configuration
    RtgsHwConfig pluginConfig_;
    /**
     * Both device models must see the same workload scale: the GPU's
     * throughput is multiplied by it, and plug-in cycle counts from
     * the scaled trace are divided by it (fragment counts scale with
     * pixel counts), so both report native-workload times.
     */
    double workloadScale_ = 1.0;
};

} // namespace rtgs::hw

#endif // RTGS_HW_SYSTEM_MODEL_HH
