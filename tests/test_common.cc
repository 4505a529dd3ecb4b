/**
 * @file
 * Unit tests for the common infrastructure: RNG determinism and
 * statistical sanity, running stats, histograms, the stats registry,
 * the table printer, and the thread pool.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"

namespace rtgs
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next()) ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(11);
    double acc = 0;
    constexpr int n = 100000;
    for (int i = 0; i < n; ++i)
        acc += rng.uniform();
    EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, UniformIntRespectsBound)
{
    Rng rng(3);
    std::set<u64> seen;
    for (int i = 0; i < 1000; ++i) {
        u64 v = rng.uniformInt(7);
        EXPECT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all residues hit
}

TEST(Rng, NormalMomentsMatch)
{
    Rng rng(13);
    RunningStat s;
    for (int i = 0; i < 100000; ++i)
        s.add(rng.normal(2.0, 3.0));
    EXPECT_NEAR(s.mean(), 2.0, 0.05);
    EXPECT_NEAR(s.stddev(), 3.0, 0.05);
}

TEST(Rng, ChanceProbability)
{
    Rng rng(17);
    int hits = 0;
    constexpr int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(RunningStat, BasicMoments)
{
    RunningStat s;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        s.add(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Histogram, BinningAndClamping)
{
    Histogram h(0.0, 10.0, 10);
    h.add(0.5);   // bin 0
    h.add(9.5);   // bin 9
    h.add(-3.0);  // clamps to bin 0
    h.add(40.0);  // clamps to bin 9
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(9), 2u);
    EXPECT_EQ(h.total(), 4u);
}

TEST(TablePrinter, AlignsColumns)
{
    TablePrinter t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer-name", "2"});
    std::string s = t.str();
    EXPECT_NE(s.find("longer-name"), std::string::npos);
    EXPECT_NE(s.find("value"), std::string::npos);
    // Header separator line present.
    EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(TablePrinter, NumFormatsPrecision)
{
    EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
    EXPECT_EQ(TablePrinter::num(2.0, 0), "2");
}

TEST(ThreadPool, EmptyRangeIsNoop)
{
    ThreadPool pool(2);
    std::atomic<int> calls{0};
    pool.parallelForChunks(5, 5, [&](size_t, size_t) { calls++; });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock)
{
    // A worker calling parallelForChunks used to block on chunks that
    // only workers could drain (it *is* the drain); nested calls must
    // run inline and still cover the full range exactly once.
    ThreadPool pool(2);
    std::vector<std::atomic<int>> hits(64 * 16);
    pool.parallelForChunks(0, 64, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
            pool.parallelForChunks(0, 16, [&](size_t jlo, size_t jhi) {
                for (size_t j = jlo; j < jhi; ++j)
                    hits[i * 16 + j]++;
            });
        }
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForChunksCoversRangeOnce)
{
    ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(777);
    pool.parallelForChunks(0, hits.size(), [&](size_t lo, size_t hi) {
        EXPECT_LT(lo, hi);
        for (size_t i = lo; i < hi; ++i)
            hits[i]++;
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, OnWorkerThreadDetection)
{
    // Membership is per pool: the main thread is never a worker, and a
    // worker of one pool must not claim membership of another.
    ThreadPool pool(2), other(1);
    EXPECT_FALSE(pool.onWorkerThread());
    std::atomic<int> cross_claims{0};
    pool.parallelForChunks(0, 64, [&](size_t, size_t) {
        if (other.onWorkerThread())
            cross_claims++;
    });
    EXPECT_EQ(cross_claims.load(), 0);
    EXPECT_FALSE(pool.onWorkerThread());
}

TEST(ThreadPool, PostIsFifoSoARepostRunsBehindWaitingTasks)
{
    // The fleet's round-robin rests on this: one worker, tasks 0..7
    // staged behind a gate; task 0 re-posts itself as 100, which must
    // run after every task that was already waiting.
    std::vector<int> order; // only the single worker appends
    std::promise<void> gate;
    std::shared_future<void> opened = gate.get_future().share();
    {
        ThreadPool pool(1);
        pool.post([opened] { opened.wait(); });
        for (int i = 0; i < 8; ++i) {
            pool.post([&pool, &order, i] {
                order.push_back(i);
                if (i == 0)
                    pool.post([&order] { order.push_back(100); });
            });
        }
        gate.set_value();
    } // the destructor drains the queue and joins the worker
    EXPECT_EQ((std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 100}), order);
}

// ---------------------------------------------------------------------
// Annotated synchronization primitives (common/mutex.hh)
// ---------------------------------------------------------------------

TEST(MutexPrimitives, MutexLockAndCvLockProtectSharedState)
{
    Mutex mutex;
    std::condition_variable cv;
    int value = 0;
    bool ready = false;

    std::thread producer([&] {
        MutexLock lock(mutex);
        value = 42;
        ready = true;
        cv.notify_one();
    });
    {
        CvLock lock(mutex);
        while (!ready)
            lock.wait(cv);
        EXPECT_EQ(value, 42);
    }
    producer.join();
}

TEST(MutexPrimitives, TryLockReportsContention)
{
    Mutex mutex;
    mutex.lock();
    std::thread other([&] { EXPECT_FALSE(mutex.tryLock()); });
    other.join();
    mutex.unlock();
    ASSERT_TRUE(mutex.tryLock());
    mutex.unlock();
}

TEST(ThreadAffinity, SameThreadUseIsQuiet)
{
    ThreadAffinity affinity;
    affinity.assertHeld(); // binds to this thread
    affinity.assertHeld(); // re-checks quietly
}

TEST(ThreadAffinity, RebindHandsOffToAnotherThread)
{
    ThreadAffinity affinity;
    affinity.assertHeld();
    affinity.rebind(); // documented hand-off point
    std::thread other([&] { affinity.assertHeld(); });
    other.join();
}

TEST(ThreadAffinityDeathTest, CrossThreadUsePanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ThreadAffinity affinity;
    affinity.assertHeld();
    EXPECT_DEATH(
        {
            std::thread other([&] { affinity.assertHeld(); });
            other.join();
        },
        "thread-affine state");
}

} // namespace rtgs
