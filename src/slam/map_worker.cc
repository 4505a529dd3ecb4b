#include "slam/map_worker.hh"

#include <optional>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace rtgs::slam
{

MapWorker::MapWorker(size_t queue_depth, RunFn run, OverflowPolicy policy,
                     DropFn on_drop, ThreadPool *executor)
    : depth_(queue_depth == 0 ? 1 : queue_depth), run_(std::move(run)),
      policy_(policy), onDrop_(std::move(on_drop)),
      executor_(executor ? executor : &globalPool())
{
}

MapWorker::~MapWorker()
{
    drain();
    // The posted drain task holds `this` until it retires; with the
    // queue empty it retires as soon as it runs.
    CvLock lock(mutex_);
    while (drainPosted_)
        lock.wait(cv_);
}

void
MapWorker::enqueue(MapJob job)
{
    std::optional<MapJob> evicted;
    bool post = false;
    {
        CvLock lock(mutex_);
        // `queue_depth` pending jobs engage the overflow policy: the
        // frame loop runs at most that many keyframes ahead of the map.
        while (queue_.size() >= depth_) {
            if (policy_ == OverflowPolicy::DropOldest) {
                evicted.emplace(std::move(queue_.front()));
                queue_.pop_front();
                ++droppedJobs_;
            } else if (running_) {
                lock.wait(cv_);
            } else {
                runOldestLocked();
            }
        }
        queue_.push_back(std::move(job));
        post = !drainPosted_;
        drainPosted_ = true;
    }
    if (evicted && onDrop_)
        onDrop_(*evicted);
    if (post)
        executor_->post([this] { drainTask(); });
}

void
MapWorker::runOldestLocked()
{
    MapJob job = std::move(queue_.front());
    queue_.pop_front();
    running_ = true;
    mutex_.unlock();
    try {
        run_(job);
    } catch (const std::exception &e) {
        // A lost exception must not wedge drain() forever.
        warn("map job for frame %u failed: %s", job.record.frameIndex,
             e.what());
    } catch (...) {
        warn("map job for frame %u failed", job.record.frameIndex);
    }
    mutex_.lock();
    running_ = false;
    cv_.notify_all();
}

void
MapWorker::drainTask()
{
    CvLock lock(mutex_);
    // Never park a pool worker: when a waiter is running a job, that
    // waiter (drain()) or its push (enqueue()) carries on instead.
    while (!queue_.empty() && !running_)
        runOldestLocked();
    drainPosted_ = false;
    // Notify under the lock: the destructor may free this worker as
    // soon as it sees drainPosted_ cleared.
    cv_.notify_all();
}

void
MapWorker::drain()
{
    CvLock lock(mutex_);
    while (!queue_.empty() || running_) {
        if (running_)
            lock.wait(cv_);
        else
            runOldestLocked();
    }
}

size_t
MapWorker::droppedJobs() const
{
    MutexLock lock(mutex_);
    return droppedJobs_;
}

} // namespace rtgs::slam
