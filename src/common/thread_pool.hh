/**
 * @file
 * A small fixed-size thread pool with a blocking chunked parallel-for.
 *
 * The rendering pipeline parallelises over Gaussians (projection, the
 * preprocessing backward) and over image tiles (depth sort,
 * rasterisation, backward); the pool provides the worker threads. A
 * process-wide pool (globalPool()) is shared by all render pipelines so
 * thread creation cost is paid once.
 *
 * parallelForChunks is safe to call from inside a worker thread: nested
 * calls are detected and run inline instead of enqueuing chunks that
 * only the (blocked) workers could drain. The calling thread also
 * participates in chunk execution, so a parallel loop never idles the
 * caller.
 */

#ifndef RTGS_COMMON_THREAD_POOL_HH
#define RTGS_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/annotations.hh"
#include "common/mutex.hh"

namespace rtgs
{

/**
 * Fixed-size worker pool over one FIFO task queue. Tasks are
 * std::function<void()>; parallelForChunks blocks the caller until all
 * chunks complete (helping to run them).
 *
 * Contract for posted tasks (pinned by ThreadPoolPostProperty and
 * ThreadPool.PostIsFifoSoARepostRunsBehindWaitingTasks):
 *  - every posted task runs exactly once;
 *  - workers dequeue tasks in post order, so a task that re-posts
 *    itself lands behind every task already waiting (the fleet's
 *    round-robin);
 *  - the destructor runs every task still queued, including tasks that
 *    running tasks post during teardown, before joining the workers.
 */
class ThreadPool
{
  public:
    /**
     * Create a pool.
     *
     * @param num_threads Worker count; 0 selects
     *        max(1, hardware_concurrency - 1), so that the workers plus
     *        a parallelForChunks caller (which runs chunks too) fill the
     *        cores.
     */
    explicit ThreadPool(size_t num_threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    size_t size() const { return workers_.size(); }

    /** True when the calling thread is one of this pool's workers. */
    bool onWorkerThread() const;

    /**
     * Split [begin, end) into contiguous chunks and invoke fn(lo, hi)
     * once per chunk across the workers and the calling thread; blocks
     * until every chunk finishes. Nested calls from worker threads run
     * the whole range inline.
     */
    void parallelForChunks(size_t begin, size_t end,
                           const std::function<void(size_t, size_t)> &fn);

    /**
     * Enqueue a standalone task (fire-and-forget: no future). Unlike
     * parallelForChunks the caller does not block or participate. The task
     * must not throw. Used by the asynchronous mapping stage and the
     * fleet scheduler, which track completion themselves.
     */
    void post(std::function<void()> task);

  private:
    void workerLoop();
    void enqueue(std::function<void()> task);

    /** Immutable after construction (joined in the destructor). */
    std::vector<std::thread> workers_;

    Mutex mutex_;
    std::condition_variable cv_;
    std::queue<std::function<void()>> tasks_ RTGS_GUARDED_BY(mutex_);
    bool stopping_ RTGS_GUARDED_BY(mutex_) = false;
};

/** Process-wide shared pool with the default worker count, lazily created. */
ThreadPool &globalPool();

} // namespace rtgs

#endif // RTGS_COMMON_THREAD_POOL_HH
