#include "hw/system_model.hh"

#include <algorithm>

#include "common/logging.hh"

namespace rtgs::hw
{

namespace
{

/** GauSPU's published resources mapped onto the plug-in model. */
RtgsHwConfig
gauSpuConfig()
{
    GauSpuSpec spec = GauSpuSpec::paper();
    RtgsHwConfig cfg = RtgsHwConfig::paper();
    cfg.technologyNm = spec.technologyNm;
    cfg.powerWatts = spec.powerWatts;
    cfg.areaMm2 = spec.areaMm2;
    cfg.reCount = spec.reCount; // 128 REs
    cfg.peCount = spec.beCount; // 32 blending/backend engines
    return cfg;
}

} // namespace

SystemModel::SystemModel(const GpuSpec &gpu, double workload_scale,
                         const RtgsHwConfig &plugin)
    : gpuModel_(gpu, workload_scale), pluginModel_(plugin),
      gauSpuModel_(gauSpuConfig()), pluginConfig_(plugin),
      workloadScale_(workload_scale)
{
}

double
SystemModel::iterationTime(const IterationTrace &trace, bool tracking,
                           SystemKind kind, const RtgsFeatures &features,
                           double *gpu_share) const
{
    // Steps 1-2 always run on the GPU.
    GpuStepTimes gpu = gpuModel_.iterationTime(
        trace, kind == SystemKind::GpuDistwar);
    double pre_sort = gpu.preprocess + gpu.sort;

    bool accelerate = false;
    RtgsFeatures f = features;
    IterationTrace scaled;
    const IterationTrace *use = &trace;

    switch (kind) {
      case SystemKind::GpuBaseline:
      case SystemKind::GpuDistwar:
        if (gpu_share)
            *gpu_share = gpu.total();
        return gpu.total();
      case SystemKind::RtgsNoMapping:
        accelerate = tracking;
        break;
      case SystemKind::RtgsFull:
        accelerate = true;
        break;
      case SystemKind::GauSpu:
        accelerate = true;
        // GauSPU: tile streaming but no pixel pairing, no R&B reuse,
        // no cross-phase pipelining beyond its blend/BE split; it has
        // its own aggregation hardware (keep gmu on).
        f.wsuPairing = false;
        f.rbBuffer = false;
        f.pipelined = false;
        break;
    }

    if (!accelerate) {
        if (gpu_share)
            *gpu_share = gpu.total();
        return gpu.total();
    }

    const RtgsAccelModel &accel =
        kind == SystemKind::GauSpu ? gauSpuModel_ : pluginModel_;
    PluginTimes plugin = accel.iterationTime(*use, tracking, f);
    if (gpu_share)
        *gpu_share = pre_sort;
    // Handshake (Listing 1): SMs finish pre+sort, then the plug-in
    // runs; flag polling overhead is negligible at frame scale. The
    // plug-in's cycle count is normalised to the native workload.
    return pre_sort + plugin.total / workloadScale_;
}

double
SystemModel::frameTime(const FrameTrace &frame, SystemKind kind,
                       const RtgsFeatures &features) const
{
    double t = frameTrackingTime(frame, kind, features);
    if (frame.isKeyframe && frame.mapIterations > 0) {
        double map_iter = iterationTime(frame.mapping, /*tracking=*/false,
                                        kind, features, nullptr);
        t += map_iter * frame.mapIterations;
    }
    // Baseline pruners' extra scoring passes cost one forward render
    // each on the executing device.
    if (frame.extraScoringPasses > 0) {
        GpuStepTimes gpu = gpuModel_.iterationTime(frame.tracking, false);
        t += frame.extraScoringPasses * (gpu.preprocess + gpu.render);
    }
    return t;
}

double
SystemModel::frameTrackingTime(const FrameTrace &frame, SystemKind kind,
                               const RtgsFeatures &features) const
{
    if (frame.trackIterations == 0)
        return 0;
    double iter = iterationTime(frame.tracking, /*tracking=*/true, kind,
                                features, nullptr);
    return iter * frame.trackIterations;
}

SystemEnergy
SystemModel::frameEnergy(const FrameTrace &frame, SystemKind kind,
                         const RtgsFeatures &features) const
{
    SystemEnergy e;
    e.gpu.watts = gpuModel_.spec().powerWatts;
    e.plugin.watts = kind == SystemKind::GauSpu
        ? GauSpuSpec::paper().powerWatts
        : pluginConfig_.powerWatts;

    auto accumulate = [&](const IterationTrace &trace, bool tracking,
                          u32 iters) {
        if (iters == 0)
            return;
        double gpu_share = 0;
        double total = iterationTime(trace, tracking, kind, features,
                                     &gpu_share);
        e.gpu.seconds += gpu_share * iters;
        if (kind != SystemKind::GpuBaseline &&
            kind != SystemKind::GpuDistwar) {
            bool accel = kind != SystemKind::RtgsNoMapping || tracking;
            if (accel)
                e.plugin.seconds += (total - gpu_share) * iters;
            else
                e.gpu.seconds += (total - gpu_share) * iters;
        }
    };

    accumulate(frame.tracking, true, frame.trackIterations);
    if (frame.isKeyframe)
        accumulate(frame.mapping, false, frame.mapIterations);
    return e;
}

SequenceReport
SystemModel::sequenceReport(const std::vector<FrameTrace> &frames,
                            SystemKind kind,
                            const RtgsFeatures &features) const
{
    SequenceReport r;
    for (const auto &frame : frames) {
        double track = frameTrackingTime(frame, kind, features);
        double total = frameTime(frame, kind, features);
        r.trackingSeconds += track;
        r.mappingSeconds += total - track;
        r.totalSeconds += total;
        r.joules += frameEnergy(frame, kind, features).joules();
        ++r.frames;
    }
    return r;
}

} // namespace rtgs::hw
