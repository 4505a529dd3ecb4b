/**
 * @file
 * The enqueue-map stage: a bounded FIFO of keyframe mapping jobs that
 * run asynchronously on a ThreadPool, overlapping mapping with the
 * tracking of subsequent frames (the loop-level restructuring CaRtGS /
 * RTG-SLAM use to reach real time).
 *
 * Threading model:
 *  - The frame loop (producer) pushes one MapJob per keyframe; when
 *    `queue_depth` jobs are already pending the overflow policy
 *    decides: Block (bounded-staleness backpressure, the default) or
 *    DropOldest (shed the stalest queued keyframe, with accounting).
 *  - Jobs run one at a time, in FIFO order, on whichever thread gets
 *    to the oldest one first. A push posts one drain task to the
 *    executor when none is posted, so jobs overlap tracking whenever
 *    a pool worker is free.
 *  - Any thread that has to wait for mapping — a Block push on a full
 *    queue, or drain() — runs the oldest queued job itself whenever no
 *    job is running, and blocks only while another thread is running
 *    one. A waiter therefore never waits for a drain task queued
 *    behind it on the same pool, which is what lets a fleet host
 *    async sessions on a single worker.
 *  - A drain task that finds another thread running a job retires
 *    instead of parking its worker; the running waiter, or the next
 *    push, carries on with the queue.
 *  - A job's multi-view steps render on its own thread; nested
 *    parallelForChunks calls from a pool worker run inline.
 *  - drain() returns once every job submitted so far has finished (or
 *    been dropped); the destructor also waits for the posted drain
 *    task to let go of the worker.
 */

#ifndef RTGS_SLAM_MAP_WORKER_HH
#define RTGS_SLAM_MAP_WORKER_HH

#include <condition_variable>
#include <deque>
#include <functional>

#include "common/annotations.hh"
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
 *  - Block: wait for the map stage, running the oldest job on the
 *    producer thread when no job is running (bounded-staleness
 *    backpressure; the default).
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

/** Bounded FIFO runner for keyframe mapping jobs. */
class MapWorker
{
  public:
    /** Executes one job (on a pool worker or on a waiting thread). */
    using RunFn = std::function<void(MapJob &job)>;
    /** Observes a job evicted under the DropOldest policy (called on
     *  the producer thread, before enqueue() returns). */
    using DropFn = std::function<void(MapJob &dropped)>;

    /**
     * @param queue_depth max pending jobs before the overflow policy
     *                    engages (>= 1)
     * @param run         executes one job
     * @param policy      what a full queue does to enqueue()
     * @param on_drop     invoked for every evicted job
     * @param executor    pool the drain tasks run on; null selects
     *                    the process-global pool. A fleet runtime
     *                    injects its own pool so one thread set drives
     *                    tracking and mapping for every session. Must
     *                    outlive this worker.
     */
    MapWorker(size_t queue_depth, RunFn run,
              OverflowPolicy policy = OverflowPolicy::Block,
              DropFn on_drop = nullptr, ThreadPool *executor = nullptr);
    ~MapWorker();

    MapWorker(const MapWorker &) = delete;
    MapWorker &operator=(const MapWorker &) = delete;

    /**
     * Submit a job. With the Block policy a full queue makes the
     * caller wait, running queued jobs itself while none is running;
     * with DropOldest it never waits.
     */
    void enqueue(MapJob job) RTGS_EXCLUDES(mutex_);

    /** Wait until all jobs submitted so far have completed (dropped
     *  jobs count as completed — they will never run), running queued
     *  jobs on the calling thread while none is running. */
    void drain() RTGS_EXCLUDES(mutex_);

    /** Jobs evicted without running (DropOldest). */
    size_t droppedJobs() const RTGS_EXCLUDES(mutex_);

  private:
    /** Pop the oldest job and run it on this thread, releasing mutex_
     *  for the run. Requires a queued job and none running. */
    void runOldestLocked() RTGS_REQUIRES(mutex_);

    /** Body of the posted drain task. */
    void drainTask() RTGS_EXCLUDES(mutex_);

    const size_t depth_;
    const RunFn run_;
    const OverflowPolicy policy_;
    const DropFn onDrop_;
    /** Immutable after construction; internally synchronized. */
    ThreadPool *const executor_;

    mutable Mutex mutex_;
    /** Signals a finished job and a retired drain task. */
    std::condition_variable cv_;
    std::deque<MapJob> queue_ RTGS_GUARDED_BY(mutex_);
    /** True while some thread is running a job (at most one). */
    bool running_ RTGS_GUARDED_BY(mutex_) = false;
    /** True from posting a drain task until that task retires. */
    bool drainPosted_ RTGS_GUARDED_BY(mutex_) = false;
    size_t droppedJobs_ RTGS_GUARDED_BY(mutex_) = 0;
};

} // namespace rtgs::slam

#endif // RTGS_SLAM_MAP_WORKER_HH
