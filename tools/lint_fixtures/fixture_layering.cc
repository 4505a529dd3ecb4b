// det-lint-path: src/slam/layering_bad_example.cc
// det-lint-expect: layering
//
// A SLAM-path file reaching into the hardware model and the serial
// oracle: rtgs would then need rtgs_model / rtgs_oracle to link, and
// a modelled number or the seed's splat math could leak into SLAM.
#include "gs/render_pipeline.hh"
#include "hw/system_model.hh"
#include "oracle/reference.hh"

namespace rtgs::slam
{

double
modelledFps()
{
    return 0.0;
}

} // namespace rtgs::slam
