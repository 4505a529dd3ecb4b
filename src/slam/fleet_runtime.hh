/**
 * @file
 * Multi-session fleet runtime: N independent SlamSystem sessions
 * served by ONE shared ThreadPool, with per-session bounded
 * backpressure, weighted-round-robin fairness, admission control, and
 * clean per-session teardown. The staged frame loop makes a session's
 * frame step an explicit schedulable unit and O(1) COW snapshots make
 * per-session maps cheap, so sessions multiplex over a fixed thread
 * set instead of owning pools. A standalone SlamSystem and a fleet run
 * on the same executor type.
 *
 * Scheduling model — session "turns":
 *  - Each session owns a bounded frame queue (frameQueueDepth).
 *    submitFrame() blocks while it is full (backpressure);
 *    trySubmitFrame() fails instead.
 *  - A turn is one pool task that processes up to `weight` queued
 *    frames of one session in order, then — if frames remain —
 *    posts itself again. The pool has one FIFO queue, so the requeued
 *    turn lands behind every other session's waiting turn: weighted
 *    round-robin. Under a burst from one session everyone else's turns
 *    still drain in arrival order, so per-session latency stays
 *    bounded by the fleet's total weight, not by the burst length.
 *  - At most ONE turn per session is in flight (the turnScheduled
 *    flag), so a session's frames process strictly sequentially —
 *    the fleet never changes a session's frame order, only where it
 *    runs.
 *  - A startPaused fleet stages frames without posting turns until
 *    start(), which then schedules every admitted session with frames
 *    waiting, in session-id order.
 *
 * Determinism contract: a session run inside a fleet of N is
 * byte-identical (trajectory + cloud) to the same profile run
 * standalone, for every N and worker count. This holds structurally:
 * per-session turns serialize through the scheduler mutex (which also
 * carries the happens-before edge for the frame-loop-confined
 * SlamSystem state across worker migrations), thread-affine
 * health/reloc state is re-bound at each turn via
 * SlamSystem::rebindFrameLoopThread(), and all rendering is bitwise
 * worker-count-independent. Sessions share no mutable state: RNG
 * draws are per-call seeded, StageProfiler / SimilarityGate /
 * health / reloc instances are per-session members.
 *
 * Admission control: at most maxActiveSessions sessions are
 * schedulable; up to admissionQueueLimit more wait in arrival order
 * (frames may be staged against a waiting session but no turns run
 * until a close promotes it); beyond that openSession() rejects.
 *
 * Mapping: each session's async MapWorker (when configured) drains on
 * the fleet's pool too (SlamConfig::mapExecutor is overridden at
 * admission), so tracking and mapping share the same threads.
 * Turns are quantum-bounded, so a posted map drain never starves
 * behind an unbounded task. A turn that has to wait for its session's
 * mapping (a full Block queue, or the first snapshot) runs the queued
 * map job itself instead of waiting for a drain task posted behind it,
 * so even a one-worker fleet cannot deadlock on its own map queue.
 */

#ifndef RTGS_SLAM_FLEET_RUNTIME_HH
#define RTGS_SLAM_FLEET_RUNTIME_HH

#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/annotations.hh"
#include "common/mutex.hh"
#include "common/thread_pool.hh"
#include "slam/pipeline.hh"
#include "slam/profiler.hh"

namespace rtgs::slam
{

/** Fleet-wide configuration. */
struct FleetConfig
{
    /** Pool worker threads shared by every session (0 = 1). */
    size_t workers = 2;
    /** Admission capacity: sessions schedulable at once. */
    size_t maxActiveSessions = 4;
    /** Sessions that may wait for capacity (0 = reject immediately). */
    size_t admissionQueueLimit = 0;
    /** Stage frames without scheduling turns until start() — burst
     *  tests and the bench's bursty-arrival setup. */
    bool startPaused = false;
};

/** One session's configuration. */
struct FleetSessionConfig
{
    SlamConfig slam;
    Intrinsics intrinsics;
    /** Weighted-round-robin quantum: frames one turn may process
     *  before yielding the worker (>= 1 enforced). */
    u32 weight = 1;
    /** Bounded frame-queue depth; submitFrame() blocks when full
     *  (>= 1 enforced). */
    size_t frameQueueDepth = 8;
};

/** openSession() outcome. */
enum class AdmitDecision
{
    Admitted, //!< schedulable now
    Queued,   //!< waiting for capacity; promoted on a close
    Rejected  //!< over capacity and the admission queue is full
};

/** Per-session accounting (frames + latency). */
struct FleetSessionStats
{
    u64 submitted = 0; //!< frames accepted by submitFrame
    u64 completed = 0; //!< frames fully processed
    u64 dropped = 0;   //!< frames discarded by teardown
    u64 turns = 0;     //!< scheduling turns executed
    double latencySumSeconds = 0;
    double latencyMaxSeconds = 0;
    /** Submit-to-completion latency per completed frame, in
     *  completion order (the bench's p50/p99 source). */
    std::vector<double> latenciesSeconds;

    double
    meanLatencySeconds() const
    {
        return completed ? latencySumSeconds /
                               static_cast<double>(completed)
                         : 0.0;
    }
};

/**
 * The fleet. Open sessions, submit frames (any thread), drain or
 * close; read results through system() AFTER drainSession() or
 * closeSession() — session objects live until the runtime is
 * destroyed, so closed sessions stay readable. The destructor
 * starts a paused fleet, gracefully closes every remaining session
 * (processing what was already submitted), then joins the pool.
 */
class FleetRuntime
{
  public:
    using SessionId = u64;
    static constexpr SessionId kInvalidSession = 0;

    explicit FleetRuntime(const FleetConfig &config);
    ~FleetRuntime();

    FleetRuntime(const FleetRuntime &) = delete;
    FleetRuntime &operator=(const FleetRuntime &) = delete;

    /** Release a startPaused fleet: schedule a turn for every admitted
     *  session with frames staged. Idempotent. */
    void start();

    /**
     * Admit, queue, or reject a new session. On Admitted/Queued,
     * `id_out` names the session; on Rejected it is kInvalidSession.
     * The session's SlamConfig is copied with mapExecutor pointed at
     * the fleet's pool.
     */
    AdmitDecision openSession(const FleetSessionConfig &config,
                              SessionId &id_out);

    /**
     * Queue a frame for `id`, blocking while the session's frame
     * queue is full (per-session backpressure; a waiting submit never
     * blocks other sessions). False when the session is unknown or
     * closing. Frames staged against a Queued (not yet admitted)
     * session are processed once it is promoted.
     */
    bool submitFrame(SessionId id, data::Frame frame);

    /** Non-blocking submitFrame: false when full/unknown/closing. */
    bool trySubmitFrame(SessionId id, data::Frame frame);

    /**
     * Block until every frame submitted to `id` so far has been
     * processed AND its async mapping (if any) has drained. After
     * this, system(id) is safe to read from the calling thread until
     * the next submitFrame. No-op on unknown sessions; do not call on
     * a Queued session with staged frames unless a promotion is
     * coming (they cannot drain), nor while the fleet is paused.
     */
    void drainSession(SessionId id);

    /**
     * Close a session and return its final stats. discard_pending
     * false (graceful): processes everything already submitted, like
     * drainSession, then closes. true (teardown): queued frames are
     * dropped (counted in stats.dropped), the in-flight frame — if a
     * turn is mid-frame — completes, async mapping drains, and the
     * session stops. Either way new submits are refused from the
     * moment close begins, a waiting session is promoted, and the
     * session object remains readable via system() until the runtime
     * dies. Safe to call once per session; later calls return the
     * same stats.
     */
    FleetSessionStats closeSession(SessionId id,
                                   bool discard_pending = false);

    /**
     * The session's SlamSystem (null for unknown ids). Reading it is
     * only race-free after drainSession()/closeSession() quiesced the
     * session (same contract as SlamSystem::waitForMapping).
     */
    SlamSystem *system(SessionId id);

    /** Snapshot of the session's stats (any time; internally
     *  consistent). Default-constructed for unknown ids. */
    FleetSessionStats sessionStats(SessionId id) const;

    /** Sessions currently admitted (schedulable, not closed). */
    size_t activeSessions() const;

    /** Sessions waiting in the admission queue. */
    size_t queuedSessions() const;

    /**
     * Global frame-completion order: (session, frameIndex) appended
     * as each frame finishes. The fairness tests assert bounded
     * interleaving on this log — a wall-clock-free starvation probe.
     */
    std::vector<std::pair<SessionId, u32>> completionLog() const;

  private:
    /** One frame waiting in a session's queue. The stopwatch starts
     *  at submit; completion reads it for the latency stats. */
    struct QueuedFrame
    {
        data::Frame frame;
        Stopwatch enqueued;
    };

    /**
     * Per-session scheduler state. Every field is guarded by
     * FleetRuntime::mutex_ EXCEPT `system`'s pointee, which is
     * touched outside the lock only by the (unique, serialized) turn
     * in flight and by post-drain readers — the mutex hand-off
     * between turns provides the happens-before edge.
     */
    struct Session
    {
        SessionId id = 0;
        FleetSessionConfig config;
        std::unique_ptr<SlamSystem> system;
        std::deque<QueuedFrame> frames;
        bool admitted = false;       //!< schedulable (vs waiting)
        bool acceptingFrames = true; //!< cleared when close begins
        bool closed = false;         //!< turns stop; frames drop
        bool turnScheduled = false;  //!< at most one turn in flight
        FleetSessionStats stats;
    };

    Session *findLocked(SessionId id) RTGS_REQUIRES(mutex_);
    const Session *findLocked(SessionId id) const RTGS_REQUIRES(mutex_);
    /** Post a turn if the fleet is started, none is in flight and
     *  frames are waiting. */
    void scheduleTurnLocked(Session &session) RTGS_REQUIRES(mutex_);
    /** Admit waiting sessions into freed capacity. */
    void promoteLocked() RTGS_REQUIRES(mutex_);
    bool submitImpl(SessionId id, data::Frame frame, bool blocking);
    /** The turn body: up to `weight` frames of one session. */
    void runTurn(SessionId id);

    FleetConfig config_;
    /** Declared before the session map: destroyed after it, so any
     *  straggler interaction during session teardown still finds a
     *  live pool (the destructor quiesces everything first anyway).
     *  Internally synchronized. */
    ThreadPool pool_;

    /** Guards all scheduler state below and every Session field (see
     *  Session). Held only for queue/flag/stats manipulation — never
     *  across processFrame, waitForMapping, or a pool task body.
     *  Lock order: mutex_ before the pool's internal mutex (posts
     *  happen under mutex_); SlamSystem's internal locks are only
     *  taken WITHOUT mutex_ held. */
    mutable Mutex mutex_;
    /** Signals queue space (backpressure), frame completions, turn
     *  retirement, and close/drain progress. */
    std::condition_variable cv_;
    /** False while a startPaused fleet waits for start(). */
    bool started_ RTGS_GUARDED_BY(mutex_);
    SessionId nextId_ RTGS_GUARDED_BY(mutex_) = 1;
    size_t active_ RTGS_GUARDED_BY(mutex_) = 0;
    std::map<SessionId, std::unique_ptr<Session>> sessions_
        RTGS_GUARDED_BY(mutex_);
    /** Admission queue, arrival order. */
    std::deque<SessionId> waiting_ RTGS_GUARDED_BY(mutex_);
    std::vector<std::pair<SessionId, u32>> completionLog_
        RTGS_GUARDED_BY(mutex_);
};

} // namespace rtgs::slam

#endif // RTGS_SLAM_FLEET_RUNTIME_HH
