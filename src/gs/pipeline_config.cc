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

} // namespace rtgs::gs
