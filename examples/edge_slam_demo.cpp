/**
 * @file
 * Edge deployment demo: run base and RTGS-enhanced SLAM on the same
 * sequence, capture hardware workload traces, and report the modelled
 * edge-GPU frame times with and without the RTGS plug-in — the
 * end-to-end story of the paper in one program.
 *
 *   ./examples/edge_slam_demo
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <vector>

#include "common/table.hh"
#include "core/rtgs_slam.hh"
#include "hw/system_model.hh"
#include "slam/evaluation.hh"

namespace
{

using namespace rtgs;

/** Capture per-frame hardware traces while a system runs. The map
 *  hook fires on a pool worker in async mode, so the map-side fields
 *  are mutex-guarded against the frame loop's finishFrame reads. */
struct TraceCollector
{
    std::vector<hw::FrameTrace> frames;
    hw::IterationTrace lastTrack;
    bool haveTrack = false;
    std::mutex mapMutex;
    hw::IterationTrace lastMap;
    bool haveMap = false;

    void
    recordMap(const hw::IterationTrace &trace)
    {
        std::lock_guard<std::mutex> lock(mapMutex);
        lastMap = trace;
        haveMap = true;
    }

    void
    finishFrame(bool keyframe, u32 track_iters, u32 map_iters)
    {
        hw::FrameTrace ft;
        ft.isKeyframe = keyframe;
        ft.trackIterations = haveTrack ? track_iters : 0;
        if (haveTrack)
            ft.tracking = lastTrack;
        {
            std::lock_guard<std::mutex> lock(mapMutex);
            ft.mapIterations = keyframe && haveMap ? map_iters : 0;
            if (haveMap)
                ft.mapping = lastMap;
            haveMap = false;
        }
        frames.push_back(std::move(ft));
        haveTrack = false;
    }
};

} // namespace

int
main()
{
    data::DatasetSpec spec = data::DatasetSpec::tumLike(0.2f);
    spec.trajectory.frameCount = 20;
    spec.trajectory.revolutions = 0.1f;
    data::SyntheticDataset dataset(spec);
    double workload_scale = spec.resolutionScale * spec.resolutionScale;

    auto run = [&](bool enhanced) {
        core::RtgsSlamConfig cfg;
        cfg.base =
            slam::SlamConfig::forAlgorithm(slam::BaseAlgorithm::MonoGs);
        cfg.base.tracker.iterations = 10;
        cfg.base.mapper.iterations = 12;
        // The enhanced run routes keyframe mapping through the async
        // machinery (MapWorker queue, copy-on-write snapshot
        // publication, id-translated in-tracking prunes). The loop
        // below drains after every frame so each keyframe's hardware
        // trace is exactly its own mapping work — the modelled
        // comparison needs exact attribution, which full overlap
        // trades away.
        // Multi-view mapping: each optimiser step of the enhanced run
        // renders up to two window keyframes and applies one averaged
        // update (cross-keyframe render batching).
        if (enhanced) {
            cfg.base.mapQueueDepth = 2;
            cfg.base.mapper.multiViewWindow = 2;
            // Health monitoring rides along for free on clean input
            // (byte-identical to monitor-off; docs/ROBUSTNESS.md),
            // and the relocalizer stands by as the active LOST exit.
            cfg.base.health.enabled = true;
            cfg.base.reloc.enabled = true;
        }
        cfg.enablePruning = enhanced;
        cfg.enableDownsampling = enhanced;
        core::RtgsSlam rtgs(cfg, dataset.intrinsics());

        TraceCollector collector;
        rtgs.setExternalTrackHook(
            [&](const slam::TrackIterationContext &ctx) {
                // trackingCloud(): the COW clone tracking rendered in
                // async mode (the authoritative cloud may be
                // mid-mutation on a map worker).
                collector.lastTrack = hw::IterationTrace::capture(
                    *ctx.forward,
                    rtgs.system().trackingCloud().activeCount());
                collector.haveTrack = true;
            });
        rtgs.system().setMapIterationHook(
            [&](const slam::MapIterationContext &ctx) {
                // Map hook fires under the state lock; cloud() is safe.
                collector.recordMap(hw::IterationTrace::capture(
                    *ctx.forward, rtgs.system().cloud().activeCount()));
            });

        std::vector<SE3> gt;
        for (u32 f = 0; f < dataset.frameCount(); ++f) {
            auto report = rtgs.processFrame(dataset.frame(f));
            // Drain before sampling the collector so each keyframe row
            // carries ITS OWN mapping trace (fully overlapped mapping
            // would attribute traces to whichever frame happened to be
            // in flight, making the modelled comparison noisy).
            rtgs.system().waitForMapping();
            collector.finishFrame(report.base.isKeyframe,
                                  cfg.base.tracker.iterations,
                                  cfg.base.mapper.iterations);
            gt.push_back(dataset.gtPose(f));
        }
        rtgs.finish(); // refresh report rows with completed map results
        double ate =
            slam::computeAte(rtgs.system().trajectory(), gt).rmse;

        // Per-run snapshot-publication/staleness summary (async only).
        slam::SnapshotStats snap_stats;
        u32 max_map_views = 0;
        for (const auto &r : rtgs.reports()) {
            snap_stats.add(r.base);
            if (r.base.isKeyframe) {
                max_map_views =
                    std::max(max_map_views, r.base.mapMultiViews);
            }
        }
        if (snap_stats.publishes > 0) {
            std::printf("  async map: %llu COW snapshot publications "
                        "(%.3f ms total), mean staleness %.2f frames, "
                        "%zu Gaussians pruned in-tracking, up to %u "
                        "views per map step\n",
                        static_cast<unsigned long long>(
                            snap_stats.publishes),
                        snap_stats.publishSeconds * 1e3,
                        snap_stats.meanStaleFrames(),
                        rtgs.pruner().stats().prunedTotal,
                        max_map_views);
        }
        if (const slam::HealthMonitor *health =
                rtgs.system().healthMonitor()) {
            std::printf("  health: %s (%zu input rejections, %zu held "
                        "poses, %zu recoveries, %zu map jobs dropped)\n",
                        slam::healthStateName(health->state()),
                        health->rejectedInputs(), health->heldPoses(),
                        health->recoveries(),
                        rtgs.system().mapJobsDropped());
            if (const slam::Relocalizer *reloc =
                    rtgs.system().relocalizer()) {
                std::printf("  reloc:  %zu attempts, %llu candidates, "
                            "%zu accepted, %u frames lost\n",
                            reloc->attempts(),
                            static_cast<unsigned long long>(
                                reloc->candidatesScored()),
                            reloc->accepted(), health->framesLost());
            }
        }
        return std::make_pair(collector.frames, ate);
    };

    std::printf("running base MonoGS-like pipeline...\n");
    auto [base_frames, base_ate] = run(false);
    std::printf("running RTGS-enhanced pipeline...\n");
    auto [rtgs_frames, rtgs_ate] = run(true);

    hw::SystemModel model(hw::GpuSpec::onx(), workload_scale);
    auto base_gpu = model.sequenceReport(base_frames,
                                         hw::SystemKind::GpuBaseline);
    auto rtgs_sys = model.sequenceReport(rtgs_frames,
                                         hw::SystemKind::RtgsFull);

    TablePrinter table({"system", "ATE (cm)", "FPS", "energy/frame (mJ)"});
    table.setTitle("\nEdge deployment (modelled on ONX-class GPU):");
    table.addRow({"MonoGS on GPU", TablePrinter::num(base_ate * 100),
                  TablePrinter::num(base_gpu.fps(), 1),
                  TablePrinter::num(base_gpu.energyPerFrame() * 1e3, 1)});
    table.addRow({"MonoGS + RTGS", TablePrinter::num(rtgs_ate * 100),
                  TablePrinter::num(rtgs_sys.fps(), 1),
                  TablePrinter::num(rtgs_sys.energyPerFrame() * 1e3, 1)});
    table.print();

    std::printf("\nspeedup: %.1fx   energy efficiency gain: %.1fx\n",
                rtgs_sys.fps() / base_gpu.fps(),
                base_gpu.energyPerFrame() / rtgs_sys.energyPerFrame());
    // A non-finite trajectory error means a run diverged; fail so
    // scripts and CI notice.
    if (!std::isfinite(base_ate) || !std::isfinite(rtgs_ate)) {
        std::fprintf(stderr, "error: ATE RMSE is not finite\n");
        return 1;
    }
    return 0;
}
