#include "slam/map_worker.hh"

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace rtgs::slam
{

MapWorker::MapWorker(size_t queue_depth, size_t batch_size, RunFn run,
                     OverflowPolicy policy, double watchdog_seconds,
                     DropFn on_drop, ThreadPool *executor)
    : queue_(queue_depth), batchSize_(batch_size == 0 ? 1 : batch_size),
      run_(std::move(run)), policy_(policy),
      watchdogSeconds_(watchdog_seconds), onDrop_(std::move(on_drop)),
      executor_(executor ? executor : &globalPool())
{
}

MapWorker::~MapWorker()
{
    drain(); // after this, no drainer is live and the queue is empty
    queue_.close();
}

void
MapWorker::enqueue(MapJob job)
{
    // Count before pushing so completed_ can never transiently exceed
    // submitted_ (the drainer may pop-and-finish the job before this
    // thread reacquires statusMutex_).
    {
        MutexLock lock(statusMutex_);
        ++submitted_;
    }
    bool pushed = false;
    if (policy_ == OverflowPolicy::Block) {
        if (watchdogSeconds_ > 0) {
            // Watchdog-bounded backpressure: a drainer wedged longer
            // than the timeout degrades this push to drop-oldest
            // instead of wedging the frame loop with it.
            pushed = queue_.tryPushFor(
                job, std::chrono::duration<double>(watchdogSeconds_));
            if (!pushed) {
                {
                    MutexLock lock(statusMutex_);
                    ++watchdogTrips_;
                }
                warn("map queue watchdog tripped after %.1fs; evicting "
                     "the oldest queued job",
                     watchdogSeconds_);
            }
        } else {
            // Blocks while `queue_depth` jobs are pending: the frame
            // loop can run at most that many keyframes ahead of the
            // map.
            queue_.push(std::move(job));
            pushed = true;
        }
    }
    if (!pushed) {
        std::optional<MapJob> evicted;
        queue_.pushEvictingOldest(std::move(job), evicted);
        if (evicted) {
            if (onDrop_)
                onDrop_(*evicted);
            MutexLock lock(statusMutex_);
            ++droppedJobs_;
            // The evicted job is counted in submitted_ but will never
            // reach the drainer; balance the ledger here so drain()
            // still terminates.
            ++completed_;
            statusCv_.notify_all();
        }
    }
    bool spawn = false;
    {
        MutexLock lock(statusMutex_);
        if (!drainerActive_) {
            drainerActive_ = true;
            spawn = true;
        }
    }
    if (spawn)
        executor_->post([this] { drainLoop(); });
}

void
MapWorker::drainLoop()
{
    std::vector<MapJob> batch;
    for (;;) {
        batch.clear();
        {
            // Pop-or-retire atomically with the drainer flag, so a
            // producer that pushes just after the queue looks empty
            // observes drainerActive_ == false and spawns a new drainer
            // (no lost jobs). Retiring is the drainer's LAST touch of
            // member state, and the notify happens under the lock:
            // drain() waits for !drainerActive_, so this MapWorker can
            // only be destroyed after the drainer has fully let go.
            MutexLock lock(statusMutex_);
            MapJob job;
            if (!queue_.tryPop(job)) {
                drainerActive_ = false;
                statusCv_.notify_all();
                return;
            }
            batch.push_back(std::move(job));
        }
        // Opportunistically absorb whatever else is already queued, up
        // to the batch cap. Only this drainer pops, so FIFO order is
        // preserved; a miss here is caught by the next loop iteration.
        while (batch.size() < batchSize_) {
            MapJob job;
            if (!queue_.tryPop(job))
                break;
            batch.push_back(std::move(job));
        }
        try {
            run_(batch);
        } catch (const std::exception &e) {
            // A lost exception must not wedge drain() forever.
            warn("map batch of %zu job(s) starting at frame %u failed: "
                 "%s",
                 batch.size(), batch.front().record.frameIndex, e.what());
        } catch (...) {
            warn("map batch of %zu job(s) starting at frame %u failed",
                 batch.size(), batch.front().record.frameIndex);
        }
        {
            MutexLock lock(statusMutex_);
            completed_ += batch.size();
        }
    }
}

size_t
MapWorker::droppedJobs() const
{
    MutexLock lock(statusMutex_);
    return droppedJobs_;
}

size_t
MapWorker::watchdogTrips() const
{
    MutexLock lock(statusMutex_);
    return watchdogTrips_;
}

void
MapWorker::drain()
{
    // Producer-side call (SPSC): every enqueue() this drain should
    // cover has already bumped submitted_, so waiting for the drainer
    // to retire with matching counters covers all pending jobs.
    CvLock lock(statusMutex_);
    while (!(completed_ == submitted_ && !drainerActive_))
        lock.wait(statusCv_);
}

} // namespace rtgs::slam
