#include "slam/fleet_runtime.hh"

#include <algorithm>

namespace rtgs::slam
{

namespace
{
/**
 * Watchdog forced onto fleet-hosted Block-policy async sessions (see
 * the deadlock guard in the header comment): long enough that it
 * never trips when a worker is free to drain, short enough that a
 * wedged enqueue degrades instead of stalling the fleet.
 */
constexpr double kFleetMapWatchdogSeconds = 0.5;
} // namespace

FleetRuntime::FleetRuntime(const FleetConfig &config)
    : config_(config), pool_(config.workers == 0 ? 1 : config.workers),
      started_(!config.startPaused)
{
}

FleetRuntime::~FleetRuntime()
{
    // A paused fleet still owes its staged frames an execution; the
    // graceful closes below wait on turns, which need scheduling.
    start();
    std::vector<SessionId> open;
    {
        MutexLock lock(mutex_);
        for (const auto &entry : sessions_)
            if (!entry.second->closed)
                open.push_back(entry.first);
    }
    for (SessionId id : open)
        closeSession(id, /*discard_pending=*/false);
    // Members destroy in reverse order: sessions_ (and their
    // MapWorkers, already drained by the closes) first, pool_ last.
}

void
FleetRuntime::start()
{
    MutexLock lock(mutex_);
    if (started_)
        return;
    started_ = true;
    for (auto &entry : sessions_)
        scheduleTurnLocked(*entry.second);
}

AdmitDecision
FleetRuntime::openSession(const FleetSessionConfig &config,
                          SessionId &id_out)
{
    id_out = kInvalidSession;
    FleetSessionConfig cfg = config;
    cfg.weight = std::max<u32>(1, cfg.weight);
    cfg.frameQueueDepth = std::max<size_t>(1, cfg.frameQueueDepth);
    // Mapping drains share the fleet's threads.
    cfg.slam.mapExecutor = &pool_;
    if (cfg.slam.mapQueueDepth > 0 &&
        cfg.slam.mapOverflowPolicy == OverflowPolicy::Block &&
        cfg.slam.mapWatchdogSeconds <= 0) {
        // Deadlock guard (header comment): a Block push with no
        // watchdog could park a worker behind its own drain task.
        cfg.slam.mapWatchdogSeconds = kFleetMapWatchdogSeconds;
    }

    MutexLock lock(mutex_);
    bool admit = active_ < config_.maxActiveSessions;
    if (!admit && waiting_.size() >= config_.admissionQueueLimit)
        return AdmitDecision::Rejected;

    auto session = std::make_unique<Session>();
    session->id = nextId_++;
    session->system =
        std::make_unique<SlamSystem>(cfg.slam, cfg.intrinsics);
    session->config = std::move(cfg);
    session->admitted = admit;
    id_out = session->id;
    if (admit)
        ++active_;
    else
        waiting_.push_back(session->id);
    sessions_.emplace(session->id, std::move(session));
    return admit ? AdmitDecision::Admitted : AdmitDecision::Queued;
}

FleetRuntime::Session *
FleetRuntime::findLocked(SessionId id)
{
    auto it = sessions_.find(id);
    return it == sessions_.end() ? nullptr : it->second.get();
}

const FleetRuntime::Session *
FleetRuntime::findLocked(SessionId id) const
{
    auto it = sessions_.find(id);
    return it == sessions_.end() ? nullptr : it->second.get();
}

void
FleetRuntime::scheduleTurnLocked(Session &session)
{
    if (!started_ || session.turnScheduled || !session.admitted ||
        session.closed || session.frames.empty())
        return;
    session.turnScheduled = true;
    SessionId id = session.id;
    // One FIFO queue: a turn requeueing itself lands behind every
    // other session's waiting turn — that is the round-robin.
    pool_.post([this, id] { runTurn(id); });
}

bool
FleetRuntime::submitImpl(SessionId id, data::Frame frame, bool blocking)
{
    CvLock lock(mutex_);
    for (;;) {
        Session *session = findLocked(id);
        if (!session || !session->acceptingFrames)
            return false;
        if (session->frames.size() < session->config.frameQueueDepth) {
            session->frames.push_back(
                QueuedFrame{std::move(frame), Stopwatch()});
            ++session->stats.submitted;
            scheduleTurnLocked(*session);
            return true;
        }
        if (!blocking)
            return false;
        lock.wait(cv_);
    }
}

bool
FleetRuntime::submitFrame(SessionId id, data::Frame frame)
{
    return submitImpl(id, std::move(frame), /*blocking=*/true);
}

bool
FleetRuntime::trySubmitFrame(SessionId id, data::Frame frame)
{
    return submitImpl(id, std::move(frame), /*blocking=*/false);
}

void
FleetRuntime::runTurn(SessionId id)
{
    SlamSystem *system = nullptr;
    u32 quantum = 1;
    {
        MutexLock lock(mutex_);
        Session *session = findLocked(id);
        if (!session)
            return;
        system = session->system.get();
        quantum = session->config.weight;
        ++session->stats.turns;
    }
    // The session may have last run on a different worker; its
    // thread-affine health/reloc state follows the turn here. The
    // scheduler mutex hand-off above orders this after the previous
    // turn's last touch.
    system->rebindFrameLoopThread();

    for (u32 n = 0; n < quantum; ++n) {
        QueuedFrame item;
        {
            MutexLock lock(mutex_);
            Session *session = findLocked(id);
            if (!session)
                return;
            if (session->closed || session->frames.empty()) {
                session->turnScheduled = false;
                cv_.notify_all();
                return;
            }
            item = std::move(session->frames.front());
            session->frames.pop_front();
            cv_.notify_all(); // free a backpressure slot
        }
        FrameReport report = system->processFrame(item.frame);
        double latency = item.enqueued.seconds();
        {
            MutexLock lock(mutex_);
            Session *session = findLocked(id);
            if (!session)
                return;
            FleetSessionStats &stats = session->stats;
            ++stats.completed;
            stats.latencySumSeconds += latency;
            stats.latencyMaxSeconds =
                std::max(stats.latencyMaxSeconds, latency);
            stats.latenciesSeconds.push_back(latency);
            completionLog_.emplace_back(id, report.frameIndex);
            cv_.notify_all();
        }
    }

    // Quantum exhausted: yield the worker, requeue behind the other
    // sessions' turns if frames remain.
    {
        MutexLock lock(mutex_);
        Session *session = findLocked(id);
        if (!session)
            return;
        session->turnScheduled = false;
        scheduleTurnLocked(*session);
        cv_.notify_all();
    }
}

void
FleetRuntime::drainSession(SessionId id)
{
    SlamSystem *system = nullptr;
    {
        CvLock lock(mutex_);
        for (;;) {
            Session *session = findLocked(id);
            if (!session)
                return;
            if (session->frames.empty() && !session->turnScheduled) {
                system = session->system.get();
                break;
            }
            lock.wait(cv_);
        }
    }
    // The caller becomes the frame-loop thread for the flush (and any
    // direct post-drain reads); the cv wait above orders this after
    // the last turn.
    system->rebindFrameLoopThread();
    system->waitForMapping();
}

FleetSessionStats
FleetRuntime::closeSession(SessionId id, bool discard_pending)
{
    {
        MutexLock lock(mutex_);
        Session *session = findLocked(id);
        if (!session)
            return FleetSessionStats{};
        session->acceptingFrames = false;
        if (discard_pending || !session->admitted) {
            // Teardown — or a never-admitted session, whose staged
            // frames could not drain: drop the queue with accounting.
            session->stats.dropped += session->frames.size();
            session->frames.clear();
            session->closed = true;
        }
    }
    // Wait for the queue to drain (graceful) or the in-flight turn to
    // retire at its next pop (teardown), then close.
    SlamSystem *system = nullptr;
    FleetSessionStats stats;
    {
        CvLock lock(mutex_);
        for (;;) {
            Session *session = findLocked(id);
            if (!session)
                return FleetSessionStats{};
            if (session->frames.empty() && !session->turnScheduled)
                break;
            lock.wait(cv_);
        }
        Session *session = findLocked(id);
        session->closed = true;
        if (session->admitted) {
            session->admitted = false;
            --active_;
            promoteLocked();
        } else {
            // Still in the admission queue: forget it there.
            waiting_.erase(std::remove(waiting_.begin(), waiting_.end(),
                                       id),
                           waiting_.end());
        }
        stats = session->stats;
        system = session->system.get();
        cv_.notify_all();
    }
    // Flush the session's async mapping so its cloud/reports are
    // complete and readable. The cv wait above ordered us after the
    // last turn; become the frame-loop thread for the flush.
    system->rebindFrameLoopThread();
    system->waitForMapping();
    return stats;
}

void
FleetRuntime::promoteLocked()
{
    while (active_ < config_.maxActiveSessions && !waiting_.empty()) {
        SessionId id = waiting_.front();
        waiting_.pop_front();
        Session *session = findLocked(id);
        if (!session || session->closed)
            continue;
        session->admitted = true;
        ++active_;
        scheduleTurnLocked(*session);
    }
}

SlamSystem *
FleetRuntime::system(SessionId id)
{
    MutexLock lock(mutex_);
    Session *session = findLocked(id);
    return session ? session->system.get() : nullptr;
}

FleetSessionStats
FleetRuntime::sessionStats(SessionId id) const
{
    MutexLock lock(mutex_);
    const Session *session = findLocked(id);
    return session ? session->stats : FleetSessionStats{};
}

size_t
FleetRuntime::activeSessions() const
{
    MutexLock lock(mutex_);
    return active_;
}

size_t
FleetRuntime::queuedSessions() const
{
    MutexLock lock(mutex_);
    return waiting_.size();
}

std::vector<std::pair<FleetRuntime::SessionId, u32>>
FleetRuntime::completionLog() const
{
    MutexLock lock(mutex_);
    return completionLog_;
}

} // namespace rtgs::slam
