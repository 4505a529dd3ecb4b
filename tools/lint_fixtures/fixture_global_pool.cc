// det-lint-path: src/slam/fleet_bad_example.cc
// det-lint-expect: global-pool
//
// Fleet code reaching for the process-global thread pool: sessions
// hosted by the fleet must run every task on the fleet's own pool, or
// scheduling escapes the fairness/backpressure contract and couples
// sessions behind the scheduler's back.
#include "common/thread_pool.hh"

namespace rtgs::slam
{

void
drainSomething()
{
    globalPool().post([] {});
}

} // namespace rtgs::slam
