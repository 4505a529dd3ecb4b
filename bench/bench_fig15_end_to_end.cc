/**
 * @file
 * Regenerates Fig. 15: (a) end-to-end FPS of the four system
 * configurations (edge GPU, +DISTWAR, RTGS tracking-only, RTGS full)
 * for three algorithms on three datasets, against the 30 FPS real-time
 * bar; (b) energy-efficiency improvement of the full RTGS system over
 * the GPU baseline across the four datasets; (c) the frame-level
 * similarity gate on a near-static sequence: gated-vs-ungated tracking
 * iterations, wall-clock, and PSNR cost.
 *
 * Expected shape: DISTWAR gives small gains; RTGS tracking-only is
 * large but can miss 30 FPS on heavy datasets; full RTGS crosses
 * 30 FPS everywhere, with order-of-magnitude energy-efficiency gains.
 * The gate must skip >= 40% of tracking iterations on the near-static
 * sequence for < 0.5 dB of PSNR.
 *
 * The bench also runs (d): the asynchronous mapping path on an
 * every-frame-keyframe (SplaTAM-like) workload, recording
 * snapshot-publish wall time (copy-on-write refcount bumps vs the
 * deep-copy a pre-COW publish paid) and queue staleness (frames
 * between the snapshot tracking rendered and the newest map).
 *
 * And (e): a mapper.multiViewWindow {0, 2, 4} ablation of the cross-keyframe mapping
 * step (each optimiser step renders up to B window keyframes and
 * applies one averaged update). B >= 2 changes the numerics, so the
 * quality ablation — wall-clock AND PSNR/ATE — is part of the
 * deliverable, not just the timing.
 *
 * Results are written to BENCH_fig15_end_to_end.json (override with
 * RTGS_BENCH_JSON_FIG15) so the perf trajectory accumulates.
 */

#include "bench_util.hh"

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

int
main()
{
    using namespace rtgs;
    using namespace rtgs::bench;

    printBenchHeader("Fig. 15: end-to-end FPS and energy efficiency");

    hw::SystemModel model = benchSystemModel(hw::GpuSpec::onx());
    const slam::BaseAlgorithm algos[] = {slam::BaseAlgorithm::GsSlam,
                                         slam::BaseAlgorithm::MonoGs,
                                         slam::BaseAlgorithm::PhotoSlam};

    TablePrinter fps_table({"Dataset", "Algorithm", "ONX", "DISTWAR",
                            "RTGS w/o map", "RTGS", ">=30 FPS"});
    fps_table.setTitle("(a) end-to-end FPS per system configuration");

    TablePrinter energy_table({"Dataset", "Algorithm",
                               "energy eff. gain"});
    energy_table.setTitle("\n(b) energy-efficiency improvement "
                          "(RTGS vs ONX baseline)");

    struct FpsRow
    {
        std::string dataset, algorithm;
        double gpu, distwar, noMap, full, energyGain;
    };
    std::vector<FpsRow> fps_rows;

    auto presets = data::DatasetSpec::allPresets(benchScale());
    for (size_t d = 0; d < presets.size(); ++d) {
        data::DatasetSpec spec = benchSpec(presets[d]);
        for (auto algo : algos) {
            // Base workload for the GPU rows.
            data::SyntheticDataset ds_base(spec);
            core::RtgsSlamConfig base_cfg = benchConfig(algo);
            base_cfg.enablePruning = false;
            base_cfg.enableDownsampling = false;
            RunOutcome base = runSequence(ds_base, base_cfg);

            // RTGS-algorithm workload for the plug-in rows.
            data::SyntheticDataset ds_ours(spec);
            RunOutcome ours = runSequence(ds_ours, benchConfig(algo));

            auto gpu = model.sequenceReport(base.traces,
                                            hw::SystemKind::GpuBaseline);
            auto distwar = model.sequenceReport(
                base.traces, hw::SystemKind::GpuDistwar);
            auto no_map = model.sequenceReport(
                ours.traces, hw::SystemKind::RtgsNoMapping);
            auto full = model.sequenceReport(ours.traces,
                                             hw::SystemKind::RtgsFull);

            double energy_gain =
                gpu.energyPerFrame() / full.energyPerFrame();
            if (d < 3) { // Fig. 15a shows three datasets
                fps_table.addRow(
                    {spec.name, slam::algorithmName(algo),
                     TablePrinter::num(gpu.fps(), 1),
                     TablePrinter::num(distwar.fps(), 1),
                     TablePrinter::num(no_map.fps(), 1),
                     TablePrinter::num(full.fps(), 1),
                     full.fps() >= 30 ? "yes" : "NO"});
                fps_rows.push_back({spec.name,
                                    slam::algorithmName(algo),
                                    gpu.fps(), distwar.fps(),
                                    no_map.fps(), full.fps(),
                                    energy_gain});
            }
            energy_table.addRow(
                {spec.name, slam::algorithmName(algo),
                 TablePrinter::num(energy_gain, 1) + "x"});
        }
    }
    fps_table.print();
    energy_table.print();

    // --- (c) frame-level similarity gating on a near-static sequence
    data::DatasetSpec static_spec =
        benchSpec(data::DatasetSpec::tumLike(benchScale()));
    // ~1-2 mm inter-frame motion: the gate's target regime (Fig. 5).
    static_spec.trajectory.revolutions =
        Real(0.0002) * static_cast<Real>(benchFrames());

    auto run_gated = [&](bool gated) {
        data::SyntheticDataset ds(static_spec);
        core::RtgsSlamConfig cfg =
            benchConfig(slam::BaseAlgorithm::MonoGs);
        cfg.enablePruning = false;
        cfg.enableDownsampling = false;
        cfg.gate.enabled = gated;
        return runSequence(ds, cfg);
    };
    RunOutcome ungated = run_gated(false);
    RunOutcome gated = run_gated(true);

    auto track_iters = [](const RunOutcome &o) {
        u64 iters = 0;
        for (const auto &r : o.reports)
            iters += r.base.trackIterations;
        return iters;
    };
    u64 iters_ungated = track_iters(ungated);
    u64 iters_gated = track_iters(gated);
    double skipped =
        iters_ungated
            ? 1.0 - static_cast<double>(iters_gated) /
                        static_cast<double>(iters_ungated)
            : 0.0;
    double psnr_drop = ungated.psnrDb - gated.psnrDb;

    TablePrinter gate_table({"run", "track iters", "wall s", "PSNR dB"});
    gate_table.setTitle("\n(c) similarity gate on a near-static "
                        "sequence (MonoGS)");
    gate_table.addRow({"ungated", std::to_string(iters_ungated),
                       TablePrinter::num(ungated.wallSeconds, 3),
                       TablePrinter::num(ungated.psnrDb, 2)});
    gate_table.addRow({"gated", std::to_string(iters_gated),
                       TablePrinter::num(gated.wallSeconds, 3),
                       TablePrinter::num(gated.psnrDb, 2)});
    gate_table.print();
    std::printf("\ngate skipped %.1f%% of tracking iterations for "
                "%.3f dB of PSNR (target: >=40%%, <0.5 dB)\n",
                100.0 * skipped, psnr_drop);

    // --- (d) async mapping (COW snapshots). SplaTAM-like maps every
    // frame, so the queue carries a keyframe per frame.
    struct AsyncRow
    {
        double wallSeconds, publishMsTotal, staleMean, ateRmse;
        u32 staleMax;
        u64 publishes;
        size_t keyframes;
    };
    AsyncRow async_row{};
    double deepcopy_ms = 0;
    {
        data::DatasetSpec spec =
            benchSpec(data::DatasetSpec::tumLike(benchScale()));
        data::SyntheticDataset ds(spec);
        core::RtgsSlamConfig cfg =
            benchConfig(slam::BaseAlgorithm::SplaTam);
        cfg.enablePruning = false;
        cfg.enableDownsampling = false;
        cfg.base.mapQueueDepth = 4;
        RunOutcome out = runSequence(ds, cfg);

        async_row.wallSeconds = out.wallSeconds;
        async_row.ateRmse = out.ateRmse;
        slam::SnapshotStats stats;
        for (const auto &r : out.reports) {
            const auto &b = r.base;
            if (b.isKeyframe)
                ++async_row.keyframes;
            stats.add(b);
            if (b.snapshotGeneration > 0) {
                async_row.staleMax =
                    std::max(async_row.staleMax, b.snapshotStaleFrames);
            }
        }
        async_row.publishMsTotal = stats.publishSeconds * 1e3;
        async_row.publishes = stats.publishes;
        async_row.staleMean = stats.meanStaleFrames();

        // Reference: what ONE pre-COW publish paid — a full
        // materialisation of every column, timed on a cloud sized like
        // the map this run produced.
        gs::GaussianCloud final_cloud;
        for (size_t i = 0; i < out.finalGaussians; ++i) {
            final_cloud.pushIsotropic(
                {static_cast<Real>(i % 97) * Real(0.01), 0, 2},
                Real(0.05), Real(0.5), {0.5f, 0.5f, 0.5f});
        }
        auto t0 = std::chrono::steady_clock::now();
        gs::GaussianCloud deep = final_cloud;
        deep.positions.mut();
        deep.logScales.mut();
        deep.rotations.mut();
        deep.opacityLogits.mut();
        deep.shCoeffs.mut();
        deep.active.mut();
        deep.ids.mut();
        deepcopy_ms = std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0).count() * 1e3;
    }

    // Publish-cost scaling probe: COW publication is O(columns) — a
    // refcount bump per attribute — while the pre-COW publish deep-
    // copied the cloud, O(N). Time both across map sizes so the
    // asymptote is visible even at the bench's small SLAM maps.
    struct ScaleRow
    {
        size_t gaussians;
        double cowMs, deepMs;
    };
    std::vector<ScaleRow> scale_rows;
    for (size_t n : {size_t(10'000), size_t(100'000), size_t(400'000)}) {
        gs::GaussianCloud big;
        big.reserve(n);
        for (size_t i = 0; i < n; ++i) {
            big.pushIsotropic(
                {static_cast<Real>(i % 97) * Real(0.01), 0, 2},
                Real(0.05), Real(0.5), {0.5f, 0.5f, 0.5f});
        }
        constexpr int reps = 20;
        auto t0 = std::chrono::steady_clock::now();
        for (int r = 0; r < reps; ++r) {
            gs::GaussianCloud snap = big; // COW publish
            (void)snap.size();
        }
        double cow_ms = std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0).count() * 1e3 / reps;
        t0 = std::chrono::steady_clock::now();
        for (int r = 0; r < reps; ++r) {
            gs::GaussianCloud snap = big; // pre-COW: materialise all
            snap.positions.mut();
            snap.logScales.mut();
            snap.rotations.mut();
            snap.opacityLogits.mut();
            snap.shCoeffs.mut();
            snap.active.mut();
            snap.ids.mut();
        }
        double deep_ms = std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0).count() * 1e3 / reps;
        scale_rows.push_back({n, cow_ms, deep_ms});
    }

    TablePrinter async_table({"wall s", "publishes",
                              "publish ms (total)", "stale mean",
                              "stale max", "ATE"});
    async_table.setTitle("\n(d) async mapping "
                         "(SplaTAM-like, queue depth 4)");
    async_table.addRow({TablePrinter::num(async_row.wallSeconds, 3),
                        std::to_string(async_row.publishes),
                        TablePrinter::num(async_row.publishMsTotal, 3),
                        TablePrinter::num(async_row.staleMean, 2),
                        std::to_string(async_row.staleMax),
                        TablePrinter::num(async_row.ateRmse, 4)});
    async_table.print();
    std::printf("\nCOW snapshot publish: %.3f ms total across the run "
                "(deep-copying the final SLAM map once would cost "
                "%.3f ms)\n",
                async_row.publishMsTotal, deepcopy_ms);

    TablePrinter scale_table({"map size", "COW publish ms",
                              "deep-copy publish ms"});
    scale_table.setTitle("\nsnapshot publish cost vs map size "
                         "(COW = O(columns), deep copy = O(N))");
    for (const ScaleRow &r : scale_rows) {
        scale_table.addRow({std::to_string(r.gaussians),
                            TablePrinter::num(r.cowMs, 4),
                            TablePrinter::num(r.deepMs, 3)});
    }
    scale_table.print();

    // --- (e) multi-view mapping ablation (cross-keyframe render
    // batching). Each map optimiser step renders up to B window
    // keyframes and applies one averaged update; B = 0 is the
    // sequential per-keyframe recipe. Sync mode + a deeper keyframe
    // window so B = 4 actually gets four views to render.
    struct MultiViewRow
    {
        u32 window;
        double wallSeconds, psnrDb, ateRmse, meanViews;
        u32 maxViews;
        size_t keyframes;
    };
    std::vector<MultiViewRow> mv_rows;
    for (u32 mv : {0u, 2u, 4u}) {
        data::DatasetSpec spec =
            benchSpec(data::DatasetSpec::tumLike(benchScale()));
        data::SyntheticDataset ds(spec);
        core::RtgsSlamConfig cfg =
            benchConfig(slam::BaseAlgorithm::MonoGs);
        cfg.enablePruning = false;
        cfg.enableDownsampling = false;
        cfg.base.mapper.windowSize = 4;
        cfg.base.mapper.multiViewWindow = mv;
        RunOutcome out = runSequence(ds, cfg);

        MultiViewRow row{};
        row.window = mv;
        row.wallSeconds = out.wallSeconds;
        row.psnrDb = out.psnrDb;
        row.ateRmse = out.ateRmse;
        u64 views_sum = 0;
        for (const auto &r : out.reports) {
            if (!r.base.isKeyframe)
                continue;
            ++row.keyframes;
            views_sum += r.base.mapMultiViews;
            row.maxViews = std::max(row.maxViews,
                                    r.base.mapMultiViews);
        }
        row.meanViews =
            row.keyframes ? static_cast<double>(views_sum) /
                                static_cast<double>(row.keyframes)
                          : 0.0;
        mv_rows.push_back(row);
    }

    TablePrinter mv_table({"multiViewWindow", "wall s", "PSNR dB",
                           "ATE", "views/step mean", "views/step max"});
    mv_table.setTitle("\n(e) multi-view mapping ablation "
                      "(MonoGS, window size 4, sync)");
    for (const MultiViewRow &r : mv_rows) {
        mv_table.addRow({std::to_string(r.window),
                         TablePrinter::num(r.wallSeconds, 3),
                         TablePrinter::num(r.psnrDb, 2),
                         TablePrinter::num(r.ateRmse, 4),
                         TablePrinter::num(r.meanViews, 2),
                         std::to_string(r.maxViews)});
    }
    mv_table.print();

    std::printf("\nShape check vs paper Fig. 15: DISTWAR < RTGS w/o "
                "mapping < RTGS; the full system\nclears 30 FPS on every "
                "algorithm/dataset; paper's energy gains are "
                "32.7x-73.0x.\n");

    std::string path;
    std::FILE *out = openBenchJson("RTGS_BENCH_JSON_FIG15",
                                   "BENCH_fig15_end_to_end.json", path);
    if (!out)
        return 1;
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"fig15_end_to_end\",\n"
                 "  \"scale\": %.3f,\n"
                 "  \"frames\": %u,\n"
                 "  \"modelled_fps\": [\n",
                 static_cast<double>(benchScale()), benchFrames());
    for (size_t i = 0; i < fps_rows.size(); ++i) {
        const FpsRow &r = fps_rows[i];
        std::fprintf(out,
                     "    {\"dataset\": \"%s\", \"algorithm\": \"%s\", "
                     "\"onx\": %.2f, \"distwar\": %.2f, "
                     "\"rtgs_no_map\": %.2f, \"rtgs\": %.2f, "
                     "\"energy_gain\": %.2f}%s\n",
                     r.dataset.c_str(), r.algorithm.c_str(), r.gpu,
                     r.distwar, r.noMap, r.full, r.energyGain,
                     i + 1 == fps_rows.size() ? "" : ",");
    }
    std::fprintf(out,
                 "  ],\n"
                 "  \"async_mapping\": {\n"
                 "    \"algorithm\": \"SplaTAM\",\n"
                 "    \"map_queue_depth\": 4,\n"
                 "    \"snapshot_deepcopy_ms_reference\": %.4f,\n"
                 "    \"publish_scaling\": [\n",
                 deepcopy_ms);
    for (size_t i = 0; i < scale_rows.size(); ++i) {
        const ScaleRow &r = scale_rows[i];
        std::fprintf(out,
                     "      {\"gaussians\": %zu, "
                     "\"cow_publish_ms\": %.5f, "
                     "\"deepcopy_publish_ms\": %.4f}%s\n",
                     r.gaussians, r.cowMs, r.deepMs,
                     i + 1 == scale_rows.size() ? "" : ",");
    }
    std::fprintf(
        out,
        "    ],\n"
        "    \"rows\": [\n"
        "      {\"wall_seconds\": %.4f, "
        "\"keyframes\": %zu, \"snapshot_publishes\": %llu, "
        "\"snapshot_publish_ms\": %.4f, "
        "\"queue_stale_frames_mean\": %.3f, "
        "\"queue_stale_frames_max\": %u, \"ate_rmse\": %.5f}\n",
        async_row.wallSeconds, async_row.keyframes,
        static_cast<unsigned long long>(async_row.publishes),
        async_row.publishMsTotal, async_row.staleMean, async_row.staleMax,
        async_row.ateRmse);
    std::fprintf(out,
                 "    ]\n"
                 "  },\n"
                 "  \"multi_view_mapping\": {\n"
                 "    \"algorithm\": \"MonoGS\",\n"
                 "    \"window_size\": 4,\n"
                 "    \"rows\": [\n");
    for (size_t i = 0; i < mv_rows.size(); ++i) {
        const MultiViewRow &r = mv_rows[i];
        std::fprintf(
            out,
            "      {\"multi_view_window\": %u, "
            "\"wall_seconds\": %.4f, \"psnr_db\": %.3f, "
            "\"ate_rmse\": %.5f, \"keyframes\": %zu, "
            "\"views_per_step_mean\": %.3f, "
            "\"views_per_step_max\": %u}%s\n",
            r.window, r.wallSeconds, r.psnrDb, r.ateRmse, r.keyframes,
            r.meanViews, r.maxViews,
            i + 1 == mv_rows.size() ? "" : ",");
    }
    std::fprintf(out,
                 "    ]\n"
                 "  },\n"
                 "  \"gating_near_static\": {\n"
                 "    \"algorithm\": \"MonoGS\",\n"
                 "    \"track_iters_ungated\": %llu,\n"
                 "    \"track_iters_gated\": %llu,\n"
                 "    \"iterations_skipped_fraction\": %.4f,\n"
                 "    \"wall_seconds_ungated\": %.4f,\n"
                 "    \"wall_seconds_gated\": %.4f,\n"
                 "    \"psnr_db_ungated\": %.3f,\n"
                 "    \"psnr_db_gated\": %.3f,\n"
                 "    \"psnr_db_drop\": %.4f\n"
                 "  }\n"
                 "}\n",
                 static_cast<unsigned long long>(iters_ungated),
                 static_cast<unsigned long long>(iters_gated), skipped,
                 ungated.wallSeconds, gated.wallSeconds, ungated.psnrDb,
                 gated.psnrDb, psnr_drop);
    std::fclose(out);
    std::printf("wrote %s\n", path.c_str());
    return 0;
}
