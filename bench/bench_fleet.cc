/**
 * @file
 * Fleet-runtime bench: N concurrent SLAM sessions multiplexed over a
 * shared thread pool, swept across sessions x workers under bursty
 * frame arrivals. Per cell it records aggregate throughput (frames/s
 * across all sessions), p50/p99 submit-to-completion frame latency,
 * peak RSS, and the scheduling turns executed.
 *
 * Two determinism contracts are enforced via the exit code (and gated
 * by tools/bench_diff.py against the committed trajectory):
 *   fleet_of_1_byte_identical      a single session hosted in the
 *                                  fleet produces byte-identical
 *                                  trajectory + map to the same
 *                                  profile run standalone;
 *   worker_count_bitwise_identical a 2-session fleet produces
 *                                  per-session byte-identical outputs
 *                                  on every pool width swept.
 * Throughput/latency/RSS fields are informational (machine-
 * dependent); the booleans are the gate.
 *
 * Env knobs: RTGS_BENCH_FLEET_SESSIONS / RTGS_BENCH_FLEET_WORKERS cap
 * the sweep (default 4 / 4) so CI smoke stays cheap, plus the usual
 * RTGS_BENCH_SCALE / RTGS_BENCH_FRAMES.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "slam/fleet_runtime.hh"
#include "slam/pipeline.hh"

namespace rtgs::bench
{

namespace
{

using slam::AdmitDecision;
using slam::FleetConfig;
using slam::FleetRuntime;
using slam::FleetSessionConfig;
using slam::FleetSessionStats;

/** Scheduling-bench SLAM profile: real pipeline, trimmed iteration
 *  counts — the quantity under test is the scheduler, not quality. */
slam::SlamConfig
fleetSlamConfig()
{
    slam::SlamConfig cfg =
        slam::SlamConfig::forAlgorithm(slam::BaseAlgorithm::MonoGs);
    cfg.tracker.iterations = 10;
    cfg.mapper.iterations = 12;
    cfg.kfInterval = 4;
    return cfg;
}

data::DatasetSpec
fleetSpec()
{
    return benchSpec(data::DatasetSpec::tumLike(benchScale()));
}

size_t
envCap(const char *name, size_t fallback)
{
    if (const char *s = std::getenv(name)) {
        int v = std::atoi(s);
        if (v > 0)
            return static_cast<size_t>(v);
    }
    return fallback;
}

/** FNV-1a over a byte range (the repo's standard output probe). */
u64
fnv1a(const void *bytes, size_t n, u64 hash)
{
    const unsigned char *p = static_cast<const unsigned char *>(bytes);
    for (size_t i = 0; i < n; ++i) {
        hash ^= p[i];
        hash *= 1099511628211ull;
    }
    return hash;
}

u64
outputHash(const slam::SlamSystem &sys)
{
    u64 hash = 1469598103934665603ull;
    for (const SE3 &pose : sys.trajectory()) {
        hash = fnv1a(&pose.rot, sizeof(pose.rot), hash);
        hash = fnv1a(&pose.trans, sizeof(pose.trans), hash);
    }
    const gs::GaussianCloud &cloud = sys.cloud();
    auto mix = [&hash](const auto &column) {
        using T = typename std::decay_t<decltype(column)>::value_type;
        if (column.size())
            hash = fnv1a(column.data(), column.size() * sizeof(T), hash);
    };
    mix(cloud.positions);
    mix(cloud.logScales);
    mix(cloud.rotations);
    mix(cloud.opacityLogits);
    mix(cloud.shCoeffs);
    mix(cloud.active);
    return hash;
}

/** Peak resident set (VmHWM) in MB; 0 when /proc is unavailable. */
double
peakRssMb()
{
    std::FILE *status = std::fopen("/proc/self/status", "r");
    if (!status)
        return 0;
    char line[256];
    double mb = 0;
    while (std::fgets(line, sizeof(line), status)) {
        long kb = 0;
        if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) {
            mb = static_cast<double>(kb) / 1024.0;
            break;
        }
    }
    std::fclose(status);
    return mb;
}

struct CellResult
{
    size_t sessions = 0;
    size_t workers = 0;
    double wallSeconds = 0;
    double aggregateFps = 0;
    double p50LatencyMs = 0;
    double p99LatencyMs = 0;
    double peakRssMb = 0;
    u64 turns = 0;
    std::vector<u64> hashes; //!< per-session output probes
};

/**
 * One sweep cell: N sessions on W workers under a bursty arrival
 * pattern — half of each session's sequence is staged while the fleet
 * is paused (the burst), the rest is submitted round-robin against
 * live backpressure.
 */
CellResult
runCell(data::SyntheticDataset &ds, size_t sessions, size_t workers)
{
    CellResult cell;
    cell.sessions = sessions;
    cell.workers = workers;

    FleetConfig fleet_cfg;
    fleet_cfg.workers = workers;
    fleet_cfg.maxActiveSessions = sessions;
    fleet_cfg.startPaused = true;
    FleetRuntime fleet(fleet_cfg);

    std::vector<FleetRuntime::SessionId> ids(sessions, 0);
    for (size_t s = 0; s < sessions; ++s) {
        FleetSessionConfig session;
        session.slam = fleetSlamConfig();
        session.intrinsics = ds.intrinsics();
        session.frameQueueDepth = ds.frameCount();
        if (fleet.openSession(session, ids[s]) !=
            AdmitDecision::Admitted) {
            std::fprintf(stderr, "session %zu not admitted\n", s);
            std::exit(2);
        }
    }

    const u32 burst = ds.frameCount() / 2;
    slam::Stopwatch wall;
    for (u32 f = 0; f < burst; ++f)
        for (size_t s = 0; s < sessions; ++s)
            fleet.submitFrame(ids[s], ds.frame(f));
    fleet.start(); // the staged burst hits the workers all at once
    for (u32 f = burst; f < ds.frameCount(); ++f)
        for (size_t s = 0; s < sessions; ++s)
            fleet.submitFrame(ids[s], ds.frame(f));
    for (size_t s = 0; s < sessions; ++s)
        fleet.drainSession(ids[s]);
    cell.wallSeconds = wall.seconds();

    std::vector<double> latencies;
    u64 completed = 0;
    for (size_t s = 0; s < sessions; ++s) {
        FleetSessionStats stats = fleet.sessionStats(ids[s]);
        completed += stats.completed;
        cell.turns += stats.turns;
        latencies.insert(latencies.end(), stats.latenciesSeconds.begin(),
                         stats.latenciesSeconds.end());
        cell.hashes.push_back(outputHash(*fleet.system(ids[s])));
    }
    std::sort(latencies.begin(), latencies.end());
    if (!latencies.empty()) {
        cell.p50LatencyMs = latencies[latencies.size() / 2] * 1e3;
        cell.p99LatencyMs =
            latencies[std::min(latencies.size() - 1,
                               latencies.size() * 99 / 100)] *
            1e3;
    }
    cell.aggregateFps = cell.wallSeconds > 0
                            ? static_cast<double>(completed) /
                                  cell.wallSeconds
                            : 0;
    cell.peakRssMb = peakRssMb();
    return cell;
}

} // namespace

} // namespace rtgs::bench

int
main()
{
    using namespace rtgs;
    using namespace rtgs::bench;

    printBenchHeader("fleet runtime: sessions x workers sweep");
    data::SyntheticDataset ds(fleetSpec());

    const size_t max_sessions = envCap("RTGS_BENCH_FLEET_SESSIONS", 4);
    const size_t max_workers = envCap("RTGS_BENCH_FLEET_WORKERS", 4);

    // Gate 1: fleet-of-1 must be byte-identical to standalone.
    slam::SlamSystem solo(fleetSlamConfig(), ds.intrinsics());
    for (u32 f = 0; f < ds.frameCount(); ++f)
        solo.processFrame(ds.frame(f));
    solo.waitForMapping();
    const u64 solo_hash = outputHash(solo);

    std::vector<CellResult> cells;
    bool fleet_of_1_identical = true;
    bool worker_count_identical = true;
    std::vector<u64> two_session_hashes; // reference: first width
    for (size_t sessions : {size_t(1), size_t(2), size_t(4)}) {
        if (sessions > max_sessions)
            continue;
        for (size_t workers : {size_t(1), size_t(2), size_t(4)}) {
            if (workers > max_workers)
                continue;
            CellResult cell = runCell(ds, sessions, workers);
            if (sessions == 1 && cell.hashes[0] != solo_hash)
                fleet_of_1_identical = false;
            if (sessions == 2) {
                // Gate 2: per-session outputs identical across widths.
                if (two_session_hashes.empty())
                    two_session_hashes = cell.hashes;
                else if (cell.hashes != two_session_hashes)
                    worker_count_identical = false;
            }
            std::printf("sessions=%zu workers=%zu  %6.2f fps  "
                        "p50 %7.2f ms  p99 %7.2f ms  rss %6.1f MB  "
                        "turns %llu\n",
                        sessions, workers, cell.aggregateFps,
                        cell.p50LatencyMs, cell.p99LatencyMs,
                        cell.peakRssMb,
                        static_cast<unsigned long long>(cell.turns));
            cells.push_back(std::move(cell));
        }
    }

    std::printf("\nfleet_of_1_byte_identical: %s\n",
                fleet_of_1_identical ? "true" : "false");
    std::printf("worker_count_bitwise_identical: %s\n",
                worker_count_identical ? "true" : "false");

    std::string path;
    std::FILE *out =
        openBenchJson("RTGS_BENCH_JSON_FLEET", "BENCH_fleet.json", path);
    if (!out)
        return 1;
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"fleet\",\n"
                 "  \"frames\": %u,\n"
                 "  \"scale\": %.3f,\n"
                 "  \"fleet_of_1_byte_identical\": %s,\n"
                 "  \"worker_count_bitwise_identical\": %s,\n"
                 "  \"cells\": [\n",
                 benchFrames(), static_cast<double>(benchScale()),
                 fleet_of_1_identical ? "true" : "false",
                 worker_count_identical ? "true" : "false");
    for (size_t i = 0; i < cells.size(); ++i) {
        const CellResult &c = cells[i];
        std::fprintf(out,
                     "    {\"sessions\": %zu, \"workers\": %zu, "
                     "\"aggregate_fps\": %.3f, "
                     "\"p50_latency_ms\": %.3f, "
                     "\"p99_latency_ms\": %.3f, "
                     "\"peak_rss_mb\": %.1f, \"turns\": %llu}%s\n",
                     c.sessions, c.workers, c.aggregateFps,
                     c.p50LatencyMs, c.p99LatencyMs, c.peakRssMb,
                     static_cast<unsigned long long>(c.turns),
                     i + 1 == cells.size() ? "" : ",");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", path.c_str());

    // Hard gate: only the determinism contracts fail the bench; the
    // throughput/latency/RSS numbers are machine-dependent and gated
    // informationally by tools/bench_diff.py.
    return fleet_of_1_identical && worker_count_identical ? 0 : 1;
}
