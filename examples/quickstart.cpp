/**
 * @file
 * Quickstart: run RTGS-enhanced SLAM on a small synthetic RGB-D
 * sequence and print trajectory accuracy, map quality, and how much
 * redundancy the RTGS techniques removed.
 *
 *   ./examples/quickstart
 */

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/rtgs_slam.hh"
#include "image/metrics.hh"
#include "slam/evaluation.hh"

int
main()
{
    using namespace rtgs;

    // 1. A synthetic TUM-like dataset (see data::DatasetSpec presets).
    data::DatasetSpec spec = data::DatasetSpec::tumLike(/*scale=*/0.2f);
    spec.trajectory.frameCount = 24;
    spec.trajectory.revolutions = 0.12f;
    data::SyntheticDataset dataset(spec);

    // 2. RTGS on top of the MonoGS-like base algorithm, with the
    //    frame-level similarity gate scaling iteration budgets and
    //    keyframe mapping running asynchronously: up to two keyframes
    //    queue behind tracking, and each map job publishes one
    //    copy-on-write tracking snapshot. Each map optimiser
    //    step renders up to two window keyframes and applies one
    //    averaged update (multi-view mapping; 0 = sequential recipe).
    core::RtgsSlamConfig config;
    config.base =
        slam::SlamConfig::forAlgorithm(slam::BaseAlgorithm::MonoGs);
    config.base.tracker.iterations = 12;
    config.base.mapper.iterations = 15;
    config.gate.enabled = true;
    config.base.mapQueueDepth = 2;
    config.base.mapper.multiViewWindow = 2;
    // Tracking-health monitor: validates input frames, watches for
    // divergence, and escalates recovery. Free on clean streams (a
    // monitor-on run is byte-identical to monitor-off) — see
    // docs/ROBUSTNESS.md.
    config.base.health.enabled = true;
    // Map-based relocalization: the active LOST exit. On standby it
    // only feeds a keyframe pose/probe database; a clean run stays
    // byte-identical to one with it disabled.
    config.base.reloc.enabled = true;
    core::RtgsSlam rtgs(config, dataset.intrinsics());

    // 3. Feed frames.
    std::printf("processing %u frames at %ux%u...\n",
                dataset.frameCount(), spec.width(), spec.height());
    u64 gated_iterations = 0;
    for (u32 f = 0; f < dataset.frameCount(); ++f) {
        auto report = rtgs.processFrame(dataset.frame(f));
        gated_iterations += report.gatedTrackIterations;
        if (f % 6 == 0) {
            std::printf("  frame %2u  kf=%d  scale=%.2f  budget=%.2f  "
                        "gaussians=%zu  map-gen=%llu  stale=%u  "
                        "health=%s\n",
                        f, report.base.isKeyframe ? 1 : 0,
                        report.trackingScale, report.gate.budgetScale,
                        report.base.gaussianCount,
                        static_cast<unsigned long long>(
                            report.base.snapshotGeneration),
                        report.base.snapshotStaleFrames,
                        slam::healthStateName(report.base.healthState));
        }
    }
    rtgs.finish(); // drain async mapping, if configured

    // Snapshot-publication cost and queue staleness of the async map
    // (copy-on-write: publishing is refcount bumps, not a cloud copy).
    slam::SnapshotStats snap_stats;
    u32 max_map_views = 0;
    size_t keyframes = 0;
    for (const auto &r : rtgs.reports()) {
        snap_stats.add(r.base);
        if (r.base.isKeyframe) {
            ++keyframes;
            max_map_views =
                std::max(max_map_views, r.base.mapMultiViews);
        }
    }

    // 4. Evaluate.
    std::vector<SE3> gt;
    for (u32 f = 0; f < dataset.frameCount(); ++f)
        gt.push_back(dataset.gtPose(f));
    auto ate = slam::computeAte(rtgs.system().trajectory(), gt);

    u32 mid = dataset.frameCount() / 2;
    ImageRGB view = rtgs.system().renderView(dataset.gtPose(mid));
    double quality = psnr(view, dataset.frame(mid).rgb);

    std::printf("\nresults:\n");
    std::printf("  ATE RMSE        : %.2f cm\n", ate.rmse * 100);
    std::printf("  PSNR (frame %u) : %.2f dB\n", mid, quality);
    std::printf("  map size        : %zu Gaussians (%.1f KB)\n",
                rtgs.system().cloud().size(),
                rtgs.system().cloud().parameterBytes() / 1024.0);
    std::printf("  pruned          : %zu Gaussians (%.0f%% of initial)\n",
                rtgs.pruner().stats().prunedTotal,
                rtgs.pruner().prunedRatio() * 100);
    std::printf("  gate skipped    : %llu tracking iterations\n",
                static_cast<unsigned long long>(gated_iterations));
    std::printf("  map snapshots   : %llu published in %.3f ms total "
                "(COW), mean staleness %.2f frames\n",
                static_cast<unsigned long long>(snap_stats.publishes),
                snap_stats.publishSeconds * 1e3,
                snap_stats.meanStaleFrames());
    std::printf("  multi-view map  : up to %u views per optimiser step "
                "across %zu keyframes (window %u)\n",
                max_map_views, keyframes,
                config.base.mapper.multiViewWindow);
    const slam::HealthMonitor *health = rtgs.system().healthMonitor();
    std::printf("  health          : %s (%zu input rejections, "
                "%zu held poses, %zu recoveries, %zu map jobs "
                "dropped)\n",
                slam::healthStateName(health->state()),
                health->rejectedInputs(), health->heldPoses(),
                health->recoveries(), rtgs.system().mapJobsDropped());
    if (const slam::Relocalizer *reloc = rtgs.system().relocalizer()) {
        std::printf("  relocalizer     : %zu attempts, %llu candidates "
                    "scored, %zu accepted, %u frames lost, "
                    "%zu-keyframe probe database\n",
                    reloc->attempts(),
                    static_cast<unsigned long long>(
                        reloc->candidatesScored()),
                    reloc->accepted(), health->framesLost(),
                    reloc->databaseSize());
    }
    // A non-finite trajectory error means the run diverged; fail so
    // scripts and CI notice.
    if (!std::isfinite(ate.rmse)) {
        std::fprintf(stderr, "error: ATE RMSE is not finite\n");
        return 1;
    }
    return 0;
}
