#include "gs/pipeline_config.hh"

namespace rtgs::gs
{

const char *
pipelinePresetName(PipelinePreset preset)
{
    switch (preset) {
      case PipelinePreset::FastestApprox:
        return "fastest_approx";
      case PipelinePreset::Precise:
        break;
    }
    return "precise";
}

ColumnPrecision
presetStoragePrecision(PipelinePreset preset)
{
    return preset == PipelinePreset::FastestApprox ? ColumnPrecision::Half
                                                   : ColumnPrecision::Full;
}

void
applyStoragePrecision(GaussianCloud &cloud, const PipelineConfig &config)
{
    const ColumnPrecision p = presetStoragePrecision(config.preset);
    cloud.shCoeffs.setPrecision(p);
    cloud.opacityLogits.setPrecision(p);
}

} // namespace rtgs::gs
