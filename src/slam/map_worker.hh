/**
 * @file
 * The enqueue-map stage: a bounded keyframe work queue whose jobs run
 * asynchronously on the shared ThreadPool, overlapping mapping with the
 * tracking of subsequent frames (the loop-level restructuring CaRtGS /
 * RTG-SLAM use to reach real time).
 *
 * Threading model:
 *  - The frame loop (producer) pushes one MapJob per keyframe; when
 *    `queue_depth` jobs are already pending the overflow policy
 *    decides: Block (bounded-staleness backpressure, the default,
 *    optionally watchdog-bounded) or DropOldest (shed the stalest
 *    queued keyframe, with accounting).
 *  - At most ONE drain task exists at a time: it loops, popping up to
 *    `batch_size` queued jobs per iteration and running them as one
 *    batch, until the queue is empty, then retires. A push that finds
 *    no active drainer spawns one on the ThreadPool. Jobs run strictly
 *    FIFO (within and across batches), and no pool worker ever parks
 *    waiting for another job to finish (tracking's parallelFor keeps
 *    its workers).
 *  - Batching amortises per-drain setup (state-lock acquisition,
 *    snapshot publication, scratch-arena checkout) across keyframe
 *    bursts: when several keyframes are queued — rotation onset, a new
 *    room — they drain as one batch instead of FIFO-serially.
 *  - A batch's multi-view mapping steps (multiViewWindow >= 2) fan
 *    per-view forward passes back onto the pool from the drain task;
 *    RenderPipeline::forwardAsync runs them inline instead whenever no
 *    worker besides the drain task itself could pick them up, so the
 *    drain never parks behind work only it could execute.
 *  - drain() blocks until every enqueued job has finished; the
 *    destructor drains implicitly.
 */

#ifndef RTGS_SLAM_MAP_WORKER_HH
#define RTGS_SLAM_MAP_WORKER_HH

#include <condition_variable>
#include <functional>
#include <memory>
#include <vector>

#include "common/annotations.hh"
#include "common/bounded_queue.hh"
#include "common/mutex.hh"
#include "slam/keyframe.hh"
#include "slam/mapper.hh"

namespace rtgs
{
class ThreadPool;
}

namespace rtgs::slam
{

/** One unit of asynchronous mapping work. */
struct MapJob
{
    KeyframeRecord record;
    u32 mapIterationBudget = 0; //!< 0 = mapper config default
    size_t reportIndex = 0;     //!< row in SlamSystem::reports_ to fill
};

/**
 * What enqueue() does when the bounded queue is full.
 *
 *  - Block: wait for the drainer (bounded-staleness backpressure; the
 *    historical behaviour and the default).
 *  - DropOldest: evict the oldest queued job to make room. The evicted
 *    job never runs; it is accounted (droppedJobs()) and reported to
 *    the owner through the on-drop callback, so a flooded queue sheds
 *    stale keyframes instead of stalling the frame loop.
 */
enum class OverflowPolicy
{
    Block,
    DropOldest
};

/** Bounded asynchronous batch executor for keyframe mapping jobs. */
class MapWorker
{
  public:
    /** Executes one FIFO batch of jobs (called on a pool worker). */
    using RunFn = std::function<void(std::vector<MapJob> &batch)>;
    /** Observes a job evicted under the DropOldest policy (called on
     *  the producer thread, before enqueue() returns). */
    using DropFn = std::function<void(MapJob &dropped)>;

    /**
     * @param queue_depth max pending jobs before the overflow policy
     *                    engages (>= 1)
     * @param batch_size  max jobs popped per drain iteration (>= 1)
     * @param run         executes one batch (called on a pool worker)
     * @param policy      what a full queue does to enqueue()
     * @param watchdog_seconds with the Block policy, how long a push
     *                    may stall before the watchdog trips and the
     *                    push falls back to evicting the oldest job
     *                    (degrade instead of wedge); <= 0 disables
     * @param on_drop     invoked for every evicted job
     * @param executor    pool the drain tasks run on; null selects
     *                    the process-global pool. A fleet runtime
     *                    injects its own pool so one thread set drives
     *                    tracking and mapping for every session. Must
     *                    outlive this worker.
     */
    MapWorker(size_t queue_depth, size_t batch_size, RunFn run,
              OverflowPolicy policy = OverflowPolicy::Block,
              double watchdog_seconds = 0, DropFn on_drop = nullptr,
              ThreadPool *executor = nullptr);
    ~MapWorker();

    MapWorker(const MapWorker &) = delete;
    MapWorker &operator=(const MapWorker &) = delete;

    /**
     * Submit a job. With the Block policy this blocks while the queue
     * is at capacity (up to the watchdog timeout when one is set);
     * with DropOldest it never blocks.
     */
    void enqueue(MapJob job);

    /** Wait until all jobs submitted so far have completed (dropped
     *  jobs count as completed — they will never run). */
    void drain() RTGS_EXCLUDES(statusMutex_);

    size_t batchSize() const { return batchSize_; }

    /** Jobs evicted without running (DropOldest / watchdog fallback). */
    size_t droppedJobs() const;

    /** Times the Block-policy watchdog expired on a stalled push. */
    size_t watchdogTrips() const;

  private:
    void drainLoop();

    BoundedQueue<MapJob> queue_;
    size_t batchSize_;
    RunFn run_;
    OverflowPolicy policy_;
    double watchdogSeconds_;
    DropFn onDrop_;
    /** Immutable after construction; internally synchronized. */
    ThreadPool *executor_;

    /** Guards the completion ledger below. queue_'s internal mutex may
     *  be taken while statusMutex_ is held (drainLoop's atomic
     *  pop-or-retire) — never the reverse: BoundedQueue calls nothing
     *  back. */
    mutable Mutex statusMutex_;
    std::condition_variable statusCv_;
    size_t submitted_ RTGS_GUARDED_BY(statusMutex_) = 0;
    size_t completed_ RTGS_GUARDED_BY(statusMutex_) = 0;
    size_t droppedJobs_ RTGS_GUARDED_BY(statusMutex_) = 0;
    size_t watchdogTrips_ RTGS_GUARDED_BY(statusMutex_) = 0;
    /** True while a drain task is live on the pool (at most one). */
    bool drainerActive_ RTGS_GUARDED_BY(statusMutex_) = false;
};

} // namespace rtgs::slam

#endif // RTGS_SLAM_MAP_WORKER_HH
