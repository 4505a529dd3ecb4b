/**
 * @file
 * Regenerates Fig. 13: (a) the accuracy/efficiency trade-off of the
 * RTGS pruning against the more precise LightGaussian/FlashGS scoring
 * (which pay extra scoring passes), and (b) cumulative drift over the
 * sequence for increasing pruning ratios. Both panels come from one
 * SLAM run per pruning ratio; the LightGaussian/FlashGS rows are the
 * 50% run with their scoring passes charged to its modelled FPS.
 *
 * Expected shape: RTGS reaches higher FPS at comparable ATE because
 * its scoring is free; drift stays near-baseline up to ~50% pruning
 * and degrades sharply at 80%.
 */

#include "bench_util.hh"
#include "core/baselines.hh"

int
main()
{
    using namespace rtgs;
    using namespace rtgs::bench;

    printBenchHeader("Fig. 13: quality/efficiency trade-off "
                     "(MonoGS-like, Replica-like)");

    data::DatasetSpec spec =
        benchSpec(data::DatasetSpec::replicaLike(benchScale()));
    hw::SystemModel model = benchSystemModel(hw::GpuSpec::onx());

    // One SLAM run per distinct configuration (runs are deterministic):
    // pruning ratio 0 (pruning off), 25%, 50% and 80%. Both panels read
    // these four runs.
    const double ratios[] = {0.0, 0.25, 0.5, 0.8};
    std::vector<RunOutcome> runs;
    for (double ratio : ratios) {
        data::SyntheticDataset ds(spec);
        core::RtgsSlamConfig cfg = benchConfig(slam::BaseAlgorithm::MonoGs);
        cfg.enableDownsampling = false;
        cfg.enablePruning = ratio > 0;
        cfg.pruner.maxPruneRatio = static_cast<Real>(ratio);
        if (ratio >= 0.8) {
            // The aggressive setting also masks faster (the regime the
            // paper shows collapsing).
            cfg.pruner.maskFractionPerInterval = 0.4f;
        }
        runs.push_back(runSequence(ds, cfg));
    }
    const RunOutcome &no_prune = runs[0];
    const RunOutcome &half = runs[2];

    // ---- (a) method comparison at 50% pruning ------------------------
    TablePrinter method_table({"Method", "final ATE (cm)", "FPS",
                               "extra scoring passes/frame"});
    method_table.setTitle("(a) pruning-method trade-off (50% ratio)");

    // Modelled FPS of a run whose frames each pay `extra` scoring passes.
    auto fps = [&](const RunOutcome &run, u32 extra) {
        std::vector<hw::FrameTrace> traces = run.traces;
        for (auto &ft : traces)
            ft.extraScoringPasses = extra;
        return model.sequenceReport(traces, hw::SystemKind::GpuBaseline)
            .fps();
    };
    // RTGS's gradient-reuse scoring costs no extra pass; LightGaussian
    // and FlashGS prune the same 50% but pay 1 and 2 passes per frame.
    const struct
    {
        const char *name;
        const RunOutcome &run;
        u32 extra;
    } methods[] = {{"Baseline (no prune)", no_prune, 0},
                   {"RTGS Algo.", half, 0},
                   {"LightGaussian", half, 1},
                   {"FlashGS", half, 2}};
    for (const auto &m : methods) {
        method_table.addRow({m.name, TablePrinter::num(m.run.ateRmse * 100),
                             TablePrinter::num(fps(m.run, m.extra), 2),
                             std::to_string(m.extra)});
    }
    method_table.print();
    std::printf("LightGaussian/FlashGS: the 50%% run with their scoring "
                "passes charged; this bench does not run their scorers.\n");

    // ---- (b) drift accumulation vs pruning ratio ---------------------
    TablePrinter drift_table({"prune ratio", "1/4 seq", "2/4 seq",
                              "3/4 seq", "final ATE (cm)"});
    drift_table.setTitle("\n(b) cumulative ATE drift vs pruning ratio");

    for (size_t i = 0; i < runs.size(); ++i) {
        auto cum = slam::cumulativeAte(runs[i].trajectory, runs[i].gt);
        size_t n = cum.size();
        drift_table.addRow(
            {TablePrinter::num(ratios[i] * 100, 0) + "%",
             TablePrinter::num(cum[n / 4] * 100),
             TablePrinter::num(cum[n / 2] * 100),
             TablePrinter::num(cum[3 * n / 4] * 100),
             TablePrinter::num(cum[n - 1] * 100)});
    }
    drift_table.print();

    std::printf("\nShape check vs paper Fig. 13: RTGS matches baseline "
                "ATE at higher FPS than the\nprecise pruners; drift "
                "stays controlled to ~50%% pruning and blows up at "
                "80%%.\n");
    return 0;
}
