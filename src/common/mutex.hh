/**
 * @file
 * Capability-annotated synchronization primitives.
 *
 * libstdc++'s std::mutex / std::lock_guard / std::unique_lock carry no
 * thread-safety attributes, so Clang's analysis cannot see through
 * them. These thin wrappers forward to the standard primitives (zero
 * overhead, TSan still instruments the underlying std::mutex) and add
 * the annotations from common/annotations.hh:
 *
 *  - `Mutex`          : annotated std::mutex (a CAPABILITY).
 *  - `MutexLock`      : annotated std::lock_guard.
 *  - `CvLock`         : annotated std::unique_lock over Mutex::native(),
 *                       for condition-variable waits. Waits must be
 *                       written as explicit predicate loops
 *                       (`while (!pred) lock.wait(cv);`) — a lambda
 *                       predicate hides the guarded reads from the
 *                       analysis.
 *  - `ThreadAffinity` : a "thread role" capability for mutex-free
 *                       classes confined to one thread (HealthMonitor);
 *                       assertHeld() runtime-checks the confinement and
 *                       tells the analysis the capability is held.
 */

#ifndef RTGS_COMMON_MUTEX_HH
#define RTGS_COMMON_MUTEX_HH

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/annotations.hh"
#include "common/logging.hh"

namespace rtgs
{

/** std::mutex with thread-safety-analysis attributes. */
class RTGS_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() RTGS_ACQUIRE() { m_.lock(); }
    void unlock() RTGS_RELEASE() { m_.unlock(); }
    bool tryLock() RTGS_TRY_ACQUIRE(true) { return m_.try_lock(); }

    /**
     * The wrapped std::mutex, for std::condition_variable (which only
     * accepts std::unique_lock<std::mutex>). Lock it via CvLock so the
     * analysis still tracks the capability.
     */
    std::mutex &native() { return m_; }

  private:
    std::mutex m_;
};

/** std::lock_guard over Mutex; the default way to hold a Mutex. */
class RTGS_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &m) RTGS_ACQUIRE(m) : mutex_(m)
    {
        mutex_.lock();
    }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

    ~MutexLock() RTGS_RELEASE() { mutex_.unlock(); }

  private:
    Mutex &mutex_;
};

/**
 * std::unique_lock over Mutex::native(), for condition-variable waits
 * and early manual unlock (e.g. unlock before notify). Constructed
 * locked. The capability is considered held across wait():
 * the wait atomically releases and reacquires the native mutex, so the
 * guarded state is protected both at the guarded reads before the wait
 * and at the predicate re-check after it.
 */
class RTGS_SCOPED_CAPABILITY CvLock
{
  public:
    explicit CvLock(Mutex &m) RTGS_ACQUIRE(m) : lock_(m.native()) {}

    CvLock(const CvLock &) = delete;
    CvLock &operator=(const CvLock &) = delete;

    ~CvLock() RTGS_RELEASE()
    {
        // std::unique_lock only unlocks if still owned (manual unlock()
        // before notify is the common pattern here).
    }

    void lock() RTGS_ACQUIRE() { lock_.lock(); }
    void unlock() RTGS_RELEASE() { lock_.unlock(); }

    /** Block on `cv`; the capability is released and reacquired. */
    void wait(std::condition_variable &cv) { cv.wait(lock_); }

  private:
    std::unique_lock<std::mutex> lock_;
};

/**
 * A capability for thread-confined (mutex-free) state. The first
 * assertHeld() binds the object to the calling thread; any later call
 * from a different thread panics. Annotating fields
 * `RTGS_GUARDED_BY(affinity_)` then forces every accessor to call
 * assertHeld() before touching them, turning a "frame-loop only"
 * comment into a compiler-checked (Clang) and runtime-checked
 * (everywhere) contract.
 */
class RTGS_CAPABILITY("thread role") ThreadAffinity
{
  public:
    /** Runtime-check confinement; the analysis assumes the role held. */
    void
    assertHeld() const RTGS_ASSERT_CAPABILITY(this)
    {
        std::thread::id self = std::this_thread::get_id();
        std::thread::id bound = bound_.load(std::memory_order_relaxed);
        if (bound == std::thread::id()) {
            // First use binds. A racing first use from two threads is
            // itself a confinement violation; the CAS lets one win and
            // the loser trips the panic below.
            bound_.compare_exchange_strong(bound, self,
                                           std::memory_order_relaxed);
            bound = bound_.load(std::memory_order_relaxed);
        }
        if (bound != self) {
            panic("thread-affine state touched from a second thread "
                  "(bind the object to one thread, or rebind() at a "
                  "documented hand-off point)");
        }
    }

    /**
     * Forget the bound thread; the next assertHeld() re-binds. Only
     * legal at documented hand-off points where no concurrent access
     * is possible (e.g. HealthMonitor::reset between runs).
     */
    void rebind() { bound_.store(std::thread::id()); }

  private:
    mutable std::atomic<std::thread::id> bound_{};
};

} // namespace rtgs

#endif // RTGS_COMMON_MUTEX_HH
