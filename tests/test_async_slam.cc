/**
 * @file
 * Tests for the staged asynchronous SLAM loop: sync mode (queue depth
 * 0) must be byte-identical to a drained async run across all four
 * base-algorithm profiles (the async machinery must be numerically
 * transparent), and overlapped async runs must complete with usable
 * results and fully filled reports after draining.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "common/thread_pool.hh"
#include "slam/evaluation.hh"
#include "slam/pipeline.hh"

namespace rtgs::slam
{

namespace
{

data::DatasetSpec
tinySpec()
{
    data::DatasetSpec spec = data::DatasetSpec::tumLike(Real(0.15));
    spec.scene.surfelSpacing = Real(0.28);
    spec.trajectory.frameCount = 10;
    spec.trajectory.revolutions = Real(0.06);
    spec.noise.enabled = false;
    return spec;
}

data::SyntheticDataset &
tinyDataset()
{
    static data::SyntheticDataset ds(tinySpec());
    return ds;
}

SlamConfig
fastConfig(BaseAlgorithm algo)
{
    SlamConfig cfg = SlamConfig::forAlgorithm(algo);
    cfg.tracker.iterations = 10;
    cfg.mapper.iterations = 12;
    cfg.kfInterval = 4;
    return cfg;
}

/** Byte-compare two SE3 sequences. */
bool
trajectoriesIdentical(const std::vector<SE3> &a, const std::vector<SE3> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (std::memcmp(&a[i].rot, &b[i].rot, sizeof(a[i].rot)) != 0 ||
            std::memcmp(&a[i].trans, &b[i].trans, sizeof(a[i].trans)) !=
                0) {
            return false;
        }
    }
    return true;
}

/** Byte-compare the parameter arrays of two clouds. */
bool
cloudsIdentical(const gs::GaussianCloud &a, const gs::GaussianCloud &b)
{
    auto eq = [](const auto &u, const auto &v) {
        using T = typename std::decay_t<decltype(u)>::value_type;
        return u.size() == v.size() &&
               (u.empty() ||
                std::memcmp(u.data(), v.data(), u.size() * sizeof(T)) ==
                    0);
    };
    return eq(a.positions, b.positions) && eq(a.logScales, b.logScales) &&
           eq(a.rotations, b.rotations) &&
           eq(a.opacityLogits, b.opacityLogits) &&
           eq(a.shCoeffs, b.shCoeffs) && eq(a.active, b.active);
}

} // namespace

TEST(AsyncSlam, SyncModeIdenticalToDrainedAsyncOnAllProfiles)
{
    // The determinism guard for the staged refactor: a drained async
    // run (queue depth 2, waitForMapping after every frame) performs
    // exactly the stage sequence of the sync loop, so trajectories and
    // maps must match bit for bit on every base-algorithm profile.
    auto &ds = tinyDataset();
    const BaseAlgorithm algos[] = {BaseAlgorithm::GsSlam,
                                   BaseAlgorithm::MonoGs,
                                   BaseAlgorithm::PhotoSlam,
                                   BaseAlgorithm::SplaTam};
    for (auto algo : algos) {
        SlamConfig sync_cfg = fastConfig(algo);
        sync_cfg.mapQueueDepth = 0;
        SlamSystem sync_sys(sync_cfg, ds.intrinsics());

        SlamConfig async_cfg = fastConfig(algo);
        async_cfg.mapQueueDepth = 2;
        SlamSystem async_sys(async_cfg, ds.intrinsics());

        for (u32 f = 0; f < ds.frameCount(); ++f) {
            sync_sys.processFrame(ds.frame(f));
            async_sys.processFrame(ds.frame(f));
            async_sys.waitForMapping();
        }

        EXPECT_TRUE(trajectoriesIdentical(sync_sys.trajectory(),
                                          async_sys.trajectory()))
            << algorithmName(algo) << ": trajectories diverged";
        EXPECT_TRUE(cloudsIdentical(sync_sys.cloud(), async_sys.cloud()))
            << algorithmName(algo) << ": maps diverged";
    }
}

TEST(AsyncSlam, AsyncBitwiseIndependentOfRenderWorkers)
{
    // Every rendering output is bitwise independent of the pool size;
    // the async map stage + COW snapshot publication must preserve
    // that end to end. Same drained schedule at 1/2/4 render workers
    // -> identical trajectories and maps.
    auto &ds = tinyDataset();
    std::vector<std::vector<SE3>> trajectories;
    std::vector<gs::GaussianCloud> clouds;
    for (size_t workers : {1u, 2u, 4u}) {
        ThreadPool pool(workers);
        SlamConfig cfg = fastConfig(BaseAlgorithm::SplaTam);
        cfg.mapQueueDepth = 4;
        SlamSystem system(cfg, ds.intrinsics());
        system.setRenderPool(&pool);
        for (u32 f = 0; f < ds.frameCount(); ++f) {
            system.processFrame(ds.frame(f));
            system.waitForMapping();
        }
        trajectories.push_back(system.trajectory());
        clouds.push_back(system.cloud());
    }
    for (size_t i = 1; i < trajectories.size(); ++i) {
        EXPECT_TRUE(trajectoriesIdentical(trajectories[0],
                                          trajectories[i]));
        EXPECT_TRUE(cloudsIdentical(clouds[0], clouds[i]));
    }
}

TEST(AsyncSlam, OverlappedEveryFrameMappingPublishesOncePerJob)
{
    // Fully overlapped, every frame a keyframe (SplaTAM): jobs queue
    // up behind tracking and run one at a time, each publishing its
    // own snapshot generation. This is the TSan target for the
    // job-runner + COW-publish path.
    auto &ds = tinyDataset();
    SlamConfig cfg = fastConfig(BaseAlgorithm::SplaTam);
    cfg.mapQueueDepth = 4;
    SlamSystem system(cfg, ds.intrinsics());
    for (u32 f = 0; f < ds.frameCount(); ++f)
        system.processFrame(ds.frame(f));
    system.waitForMapping();

    ASSERT_EQ(system.trajectory().size(), ds.frameCount());
    EXPECT_GT(system.cloud().size(), 100u);
    std::vector<u64> generations;
    for (const auto &r : system.reports()) {
        if (r.isKeyframe)
            generations.push_back(r.publishedGeneration);
    }
    // Jobs run in FIFO order and each publishes once, so keyframe k
    // publishes generation k + 1.
    std::vector<u64> expected(generations.size());
    for (size_t k = 0; k < expected.size(); ++k)
        expected[k] = k + 1;
    EXPECT_EQ(generations, expected);
}

TEST(MapWorkerTest, DrainRunsQueuedJobsInFifoOrder)
{
    std::mutex m;
    std::condition_variable cv;
    bool release = false;
    std::vector<u32> ran;

    MapWorker worker(/*queue_depth=*/4, [&](MapJob &job) {
        std::unique_lock<std::mutex> lock(m);
        ran.push_back(job.record.frameIndex);
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
    });

    auto make_job = [](u32 frame) {
        MapJob job;
        job.record.frameIndex = frame;
        return job;
    };
    // Deterministic schedule: wait until the drain task is running job
    // 0, THEN queue the burst behind it.
    worker.enqueue(make_job(0));
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return ran.size() == 1; });
    }
    for (u32 f = 1; f <= 4; ++f)
        worker.enqueue(make_job(f));
    {
        std::lock_guard<std::mutex> lock(m);
        release = true;
    }
    cv.notify_all();
    worker.drain();

    EXPECT_EQ(ran, (std::vector<u32>{0, 1, 2, 3, 4}));
}

TEST(MapWorkerTest, EnqueueBlocksAtQueueCapacity)
{
    std::mutex m;
    std::condition_variable cv;
    bool release = false;
    std::vector<u32> started;
    std::vector<u32> ran;

    MapWorker worker(/*queue_depth=*/1, [&](MapJob &job) {
        std::unique_lock<std::mutex> lock(m);
        started.push_back(job.record.frameIndex);
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
        ran.push_back(job.record.frameIndex);
    });

    auto make_job = [](u32 frame) {
        MapJob job;
        job.record.frameIndex = frame;
        return job;
    };
    // Wait until the drain task is running job 0: a producer facing a
    // full queue with no job running would run job 0 itself.
    worker.enqueue(make_job(0));
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return started.size() == 1; });
    }
    worker.enqueue(make_job(1)); // fills the queue to capacity

    std::atomic<bool> third_enqueued{false};
    std::thread producer([&] {
        worker.enqueue(make_job(2)); // must block until a slot frees
        third_enqueued = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_FALSE(third_enqueued)
        << "enqueue must backpressure at queue_depth pending jobs";

    {
        std::lock_guard<std::mutex> lock(m);
        release = true;
    }
    cv.notify_all();
    producer.join();
    worker.drain();
    EXPECT_TRUE(third_enqueued);
    EXPECT_EQ(ran, (std::vector<u32>{0, 1, 2}));
}

TEST(AsyncSlam, OverlappedAsyncCompletesWithUsableResults)
{
    // Fully overlapped: no drain between frames, mapping runs behind
    // tracking. Results may differ numerically from sync (tracking sees
    // a slightly stale map) but must stay usable.
    auto &ds = tinyDataset();
    SlamConfig cfg = fastConfig(BaseAlgorithm::MonoGs);
    cfg.mapQueueDepth = 2;
    SlamSystem system(cfg, ds.intrinsics());
    for (u32 f = 0; f < ds.frameCount(); ++f)
        system.processFrame(ds.frame(f));
    system.waitForMapping();

    ASSERT_EQ(system.trajectory().size(), ds.frameCount());
    EXPECT_GT(system.cloud().size(), 100u);

    std::vector<SE3> gt;
    for (u32 f = 0; f < ds.frameCount(); ++f)
        gt.push_back(ds.gtPose(f));
    AteResult ate = computeAte(system.trajectory(), gt);
    EXPECT_LT(ate.rmse, 0.15)
        << "overlapped mapping must not destroy tracking";
}

TEST(AsyncSlam, ReportsFilledAfterDrain)
{
    auto &ds = tinyDataset();
    SlamConfig cfg = fastConfig(BaseAlgorithm::MonoGs);
    cfg.mapQueueDepth = 1;
    SlamSystem system(cfg, ds.intrinsics());
    for (u32 f = 0; f < ds.frameCount(); ++f)
        system.processFrame(ds.frame(f));
    system.waitForMapping();

    size_t keyframes = 0;
    for (const auto &r : system.reports()) {
        if (!r.isKeyframe)
            continue;
        ++keyframes;
        EXPECT_TRUE(r.mappedAsync) << "frame " << r.frameIndex;
        EXPECT_GT(r.mapLoss, 0.0)
            << "frame " << r.frameIndex
            << ": drained keyframe must have its map loss filled in";
        EXPECT_GT(r.gaussianCount, 0u);
    }
    EXPECT_GE(keyframes, ds.frameCount() / 4);
    // Frame 0 seeds the map.
    EXPECT_GT(system.reports().front().densified, 50u);

    // Async mapping must record its stage time from the worker thread.
    EXPECT_GT(system.profiler().seconds("mapping"), 0.0);
    EXPECT_GT(system.profiler().seconds("tracking"), 0.0);
}

TEST(AsyncSlam, FrameBudgetCapsTrackingIterations)
{
    auto &ds = tinyDataset();
    SlamConfig cfg = fastConfig(BaseAlgorithm::MonoGs);
    cfg.tracker.earlyStop = false; // isolate the budget's effect
    SlamSystem system(cfg, ds.intrinsics());
    system.processFrame(ds.frame(0));

    FrameBudget budget;
    budget.trackIterations = 3;
    FrameReport r =
        system.processFrame(ds.frame(1), Real(1), nullptr, &budget);
    EXPECT_EQ(r.trackIterations, 3u);
    EXPECT_EQ(r.trackIterationBudget, 3u);

    // Unbudgeted frame runs the full configured count.
    FrameReport r2 = system.processFrame(ds.frame(2));
    EXPECT_EQ(r2.trackIterations, cfg.tracker.iterations);
    EXPECT_EQ(r2.trackIterationBudget, 0u);
}

TEST(MapWorkerTest, DropOldestEvictsStaleJobsWithAccounting)
{
    std::mutex m;
    std::condition_variable cv;
    bool release = false;
    std::vector<u32> ran;
    std::vector<u32> dropped;

    MapWorker worker(
        /*queue_depth=*/2,
        [&](MapJob &job) {
            std::unique_lock<std::mutex> lock(m);
            ran.push_back(job.record.frameIndex);
            cv.notify_all();
            cv.wait(lock, [&] { return release; });
        },
        OverflowPolicy::DropOldest,
        [&](MapJob &job) { dropped.push_back(job.record.frameIndex); });

    auto make_job = [](u32 frame) {
        MapJob job;
        job.record.frameIndex = frame;
        return job;
    };
    worker.enqueue(make_job(0)); // popped by the (gated) drainer
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return ran.size() == 1; });
    }
    worker.enqueue(make_job(1)); // queue: {1}
    worker.enqueue(make_job(2)); // queue: {1, 2} — at capacity
    worker.enqueue(make_job(3)); // evicts 1 → queue: {2, 3}
    worker.enqueue(make_job(4)); // evicts 2 → queue: {3, 4}
    {
        std::lock_guard<std::mutex> lock(m);
        release = true;
    }
    cv.notify_all();
    worker.drain(); // terminates despite the evicted jobs

    EXPECT_EQ(ran, (std::vector<u32>{0, 3, 4}))
        << "survivors keep FIFO order; stale jobs are gone";
    EXPECT_EQ(dropped, (std::vector<u32>{1, 2}))
        << "the on-drop callback sees exactly the evicted jobs";
    EXPECT_EQ(worker.droppedJobs(), 2u);
}

TEST(MapWorkerTest, BlockProducerOnTheOnlyWorkerRunsJobsItself)
{
    // The producer holds the executor's only worker, so the drain task
    // its first push posts cannot start until the producer returns. A
    // full Block queue must not wait for that task: the producer runs
    // the oldest job itself and keeps going.
    std::mutex m;
    std::vector<u32> ran;
    auto pool = std::make_unique<ThreadPool>(1);
    auto worker = std::make_unique<MapWorker>(
        /*queue_depth=*/1,
        [&](MapJob &job) {
            std::lock_guard<std::mutex> lock(m);
            ran.push_back(job.record.frameIndex);
        },
        OverflowPolicy::Block, nullptr, pool.get());

    std::promise<void> produced;
    std::future<void> done = produced.get_future();
    pool->post([&] {
        for (u32 f = 0; f < 5; ++f) {
            MapJob job;
            job.record.frameIndex = f;
            worker->enqueue(std::move(job));
        }
        produced.set_value();
    });
    if (done.wait_for(std::chrono::seconds(60)) !=
        std::future_status::ready) {
        // The wedged producer would hang both destructors.
        static_cast<void>(worker.release());
        static_cast<void>(pool.release());
        FAIL() << "the producer waited for a drain task queued behind it";
    }
    worker->drain();

    std::lock_guard<std::mutex> lock(m);
    EXPECT_EQ(ran, (std::vector<u32>{0, 1, 2, 3, 4}));
}

TEST(AsyncSlam, DropOldestPolicyCompletesFloodedRunWithAccounting)
{
    // Flood the map queue: every-frame mapping (SplaTAM-like) with a
    // deliberately slow mapper, a depth-1 queue, and no draining
    // between frames. Under DropOldest the run must complete without
    // the frame loop ever wedging, and every dropped job must be
    // visible both in the aggregate counter and on its report row.
    auto &ds = tinyDataset();
    SlamConfig cfg = fastConfig(BaseAlgorithm::SplaTam);
    cfg.tracker.iterations = 1;
    cfg.mapper.iterations = 60;
    cfg.mapQueueDepth = 1;
    cfg.mapOverflowPolicy = OverflowPolicy::DropOldest;
    SlamSystem system(cfg, ds.intrinsics());
    for (u32 f = 0; f < ds.frameCount(); ++f)
        system.processFrame(ds.frame(f));
    system.waitForMapping();

    ASSERT_EQ(system.trajectory().size(), ds.frameCount());
    EXPECT_GT(system.mapJobsDropped(), 0u)
        << "a depth-1 queue against a slow mapper must overflow";

    size_t flagged = 0;
    for (const auto &r : system.reports()) {
        if (!r.mapJobDropped)
            continue;
        ++flagged;
        EXPECT_TRUE(r.mappedAsync) << "frame " << r.frameIndex;
        EXPECT_EQ(r.mapLoss, 0.0)
            << "frame " << r.frameIndex
            << ": a dropped job must never report map results";
    }
    EXPECT_EQ(flagged, system.mapJobsDropped())
        << "per-row drop flags must agree with the aggregate counter";
}

TEST(AsyncSlam, BudgetNeverRaisesConfiguredIterations)
{
    auto &ds = tinyDataset();
    SlamConfig cfg = fastConfig(BaseAlgorithm::MonoGs);
    cfg.tracker.iterations = 4;
    cfg.tracker.earlyStop = false;
    SlamSystem system(cfg, ds.intrinsics());
    system.processFrame(ds.frame(0));
    FrameBudget budget;
    budget.trackIterations = 50;
    FrameReport r =
        system.processFrame(ds.frame(1), Real(1), nullptr, &budget);
    EXPECT_EQ(r.trackIterations, 4u);
}

} // namespace rtgs::slam
