/**
 * @file
 * Inspect the RTGS plug-in model on a single frame: per-phase times,
 * ablation of each hardware technique, workload-imbalance metrics, and
 * the Listing-1 handshake trace.
 *
 *   ./examples/accel_inspect
 */

#include <cstdio>

#include "common/table.hh"
#include "data/dataset.hh"
#include "hw/rtgs_api.hh"
#include "hw/system_model.hh"

int
main()
{
    using namespace rtgs;

    // A single mid-sequence observation rendered from the GT scene
    // stands in for one tracking iteration's workload.
    data::DatasetSpec spec = data::DatasetSpec::replicaLike(0.2f);
    spec.trajectory.frameCount = 8;
    data::SyntheticDataset dataset(spec);
    gs::RenderPipeline pipeline;
    Camera cam(dataset.intrinsics(), dataset.gtPose(4));
    gs::ForwardContext ctx =
        pipeline.forward(dataset.groundTruthCloud(), cam);
    hw::IterationTrace trace = hw::IterationTrace::capture(
        ctx, dataset.groundTruthCloud().size());

    std::printf("workload: %ux%u px, %u Gaussians projected, "
                "%.1f fragments/pixel\n",
                trace.width, trace.height, trace.projectedGaussians,
                trace.meanFragmentsPerPixel());

    hw::RtgsAccelModel model;
    auto full = model.iterationTime(trace, true, hw::RtgsFeatures::all());

    TablePrinter phases({"phase", "time (us)"});
    phases.setTitle("\nPlug-in per-phase times (all features on):");
    phases.addRow({"rendering", TablePrinter::num(full.render * 1e6, 1)});
    phases.addRow({"rendering BP",
                   TablePrinter::num(full.renderBp * 1e6, 1)});
    phases.addRow({"gradient merge",
                   TablePrinter::num(full.merge * 1e6, 1)});
    phases.addRow({"preprocessing BP",
                   TablePrinter::num(full.preprocessBp * 1e6, 1)});
    phases.addRow({"pose update",
                   TablePrinter::num(full.poseUpdate * 1e6, 1)});
    phases.addRow({"total (pipelined)",
                   TablePrinter::num(full.total * 1e6, 1)});
    phases.print();

    TablePrinter ablation({"configuration", "time (us)", "slowdown"});
    ablation.setTitle("\nSingle-feature ablations:");
    auto report = [&](const char *name, hw::RtgsFeatures f) {
        auto t = model.iterationTime(trace, true, f);
        ablation.addRow({name, TablePrinter::num(t.total * 1e6, 1),
                         TablePrinter::num(t.total / full.total, 2) +
                             "x"});
    };
    report("all features", hw::RtgsFeatures::all());
    {
        hw::RtgsFeatures f; f.wsuPairing = false;
        report("- WSU pairing", f);
    }
    {
        hw::RtgsFeatures f; f.streaming = false;
        report("- subtile streaming", f);
    }
    {
        hw::RtgsFeatures f; f.rbBuffer = false;
        report("- R&B buffer", f);
    }
    {
        hw::RtgsFeatures f; f.gmu = false;
        report("- GMU (atomic adds)", f);
    }
    {
        hw::RtgsFeatures f; f.pipelined = false;
        report("- phase pipelining", f);
    }
    ablation.print();

    std::printf("\nworkload imbalance (idle fraction): "
                "none=%.1f%%  streaming=%.1f%%  +pairing=%.1f%%\n",
                model.imbalance(trace, hw::RtgsFeatures::none()) * 100,
                [&] {
                    hw::RtgsFeatures f = hw::RtgsFeatures::none();
                    f.streaming = true;
                    return model.imbalance(trace, f) * 100;
                }(),
                model.imbalance(trace, hw::RtgsFeatures::all()) * 100);

    // The Listing-1 handshake, traced.
    hw::RtgsRuntime runtime([](int, bool) {}, [](int) {}, [](int) {},
                            [](int) {});
    const auto &events = runtime.rtgsExecute(0, /*is_keyframe=*/false);
    std::printf("\nRTGS_execute(frame 0, non-keyframe) flag trace:\n  ");
    for (auto e : events)
        std::printf("%s ", hw::rtgsEventName(e));
    std::printf("\n");
    return 0;
}
