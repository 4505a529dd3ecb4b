#include "common/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <memory>

namespace rtgs
{

namespace
{

/** Pool whose workerLoop the current thread is running, if any. */
thread_local ThreadPool *tl_current_pool = nullptr;

} // namespace

ThreadPool::ThreadPool(size_t num_threads)
{
    // A parallelForChunks caller runs chunks alongside the workers, so
    // the default leaves one core to it.
    if (num_threads == 0)
        num_threads = std::max(2u, std::thread::hardware_concurrency()) - 1;
    workers_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

bool
ThreadPool::onWorkerThread() const
{
    return tl_current_pool == this;
}

void
ThreadPool::workerLoop()
{
    tl_current_pool = this;
    for (;;) {
        std::function<void()> task;
        {
            CvLock lock(mutex_);
            while (!stopping_ && tasks_.empty())
                lock.wait(cv_);
            if (stopping_ && tasks_.empty())
                return;
            task = std::move(tasks_.front());
            tasks_.pop();
        }
        task();
    }
}

void
ThreadPool::enqueue(std::function<void()> task)
{
    {
        MutexLock lock(mutex_);
        tasks_.push(std::move(task));
    }
    cv_.notify_one();
}

void
ThreadPool::post(std::function<void()> task)
{
    if (workers_.empty()) {
        task();
        return;
    }
    enqueue(std::move(task));
}

void
ThreadPool::parallelForChunks(size_t begin, size_t end,
                              const std::function<void(size_t, size_t)> &fn)
{
    if (begin >= end)
        return;

    size_t total = end - begin;
    // A worker calling parallelForChunks must not block on chunks that
    // only workers can drain (it *is* the drain); run the range inline.
    if (total == 1 || workers_.empty() || onWorkerThread()) {
        fn(begin, end);
        return;
    }

    // Caller + workers all pull chunks from a shared counter; 4 chunks
    // per thread keeps the tail balanced without much dispatch traffic.
    size_t chunks = std::min(total, (workers_.size() + 1) * 4);
    size_t chunk_size = (total + chunks - 1) / chunks;

    struct State
    {
        std::atomic<size_t> next{0};
        std::atomic<size_t> done{0};
        std::mutex mutex;
        std::condition_variable cv;
        size_t begin = 0, end = 0, chunks = 0, chunk_size = 0;
        const std::function<void(size_t, size_t)> *fn = nullptr;
    };
    // Shared ownership: helper tasks may be popped from the queue after
    // the caller has already returned (all chunks claimed); they must
    // still be able to read `next` safely.
    auto state = std::make_shared<State>();
    state->begin = begin;
    state->end = end;
    state->chunks = chunks;
    state->chunk_size = chunk_size;
    state->fn = &fn;

    auto drain = [](State &s) {
        for (;;) {
            size_t c = s.next.fetch_add(1, std::memory_order_relaxed);
            if (c >= s.chunks)
                return;
            size_t lo = s.begin + c * s.chunk_size;
            size_t hi = std::min(s.end, lo + s.chunk_size);
            (*s.fn)(lo, hi);
            if (s.done.fetch_add(1) + 1 == s.chunks) {
                std::lock_guard<std::mutex> lock(s.mutex);
                s.cv.notify_all();
            }
        }
    };

    size_t helpers = std::min(workers_.size(), chunks - 1);
    for (size_t h = 0; h < helpers; ++h)
        enqueue([state, drain] { drain(*state); });

    drain(*state);

    std::unique_lock<std::mutex> lock(state->mutex);
    state->cv.wait(lock, [&] {
        return state->done.load() == state->chunks;
    });
}

ThreadPool &
globalPool()
{
    static ThreadPool pool;
    return pool;
}

} // namespace rtgs
