/**
 * @file
 * Live telemetry plane: a minimal HTTP/1.1 admin endpoint that makes
 * a running speckv server observable without stopping it. The rest of
 * the obs layer was artifact-oriented — metrics and traces reached
 * disk only at clean exit — so a live server was a black box; this
 * server exposes the same Registry/Tracer state over four GET routes:
 *
 *   /metrics      Prometheus text exposition of a live snapshot
 *                 (torn-free per sample, same contract as scraping);
 *   /stats.json   the snapshot's JSON form (counters/gauges/
 *                 histograms), pipeable into `specstat dump -`;
 *   /healthz      liveness: per-shard loop heartbeat age and sealed-
 *                 epoch lag from a caller-supplied health source;
 *                 returns 503 when any shard is stalled;
 *   /trace?ms=N   Chrome trace-event JSON of spans from the last N
 *                 milliseconds (default 1000, capped at
 *                 kTraceWindowMaxMs).
 *
 * Single dedicated thread, poll()-based, request/response only
 * (Connection: close) with small bounded buffers — deliberately not a
 * web server. The data plane never blocks on it: every response is
 * built from lock-striped snapshots the hot paths already tolerate.
 * Malformed, oversized, or stalled requests are dropped on a timeout
 * so a misbehaving scraper cannot wedge the responder.
 */

#ifndef SPECPMT_OBS_TELEMETRY_SERVER_HH
#define SPECPMT_OBS_TELEMETRY_SERVER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

namespace specpmt::obs
{

class Registry;
class Tracer;

/**
 * Largest `/trace?ms=N` window honored: one minute. Anything larger
 * is clamped, not rejected — the per-thread rings hold 2^14 spans
 * each, so windows beyond this only replay ring wraparound noise and
 * bloat the response. Documented here so scrapers can plan polling
 * cadence against a stable contract.
 */
constexpr std::uint64_t kTraceWindowMaxMs = 60000;

/** One shard's liveness sample for /healthz. */
struct ShardHealth
{
    /** Shard / event-loop index. */
    unsigned shard = 0;
    /** Microseconds since the loop's last heartbeat. */
    std::uint64_t heartbeatAgeUs = 0;
    /** Relaxed commits issued but not yet covered by a sealed epoch. */
    std::uint64_t sealLag = 0;
    /** False when the heartbeat is older than the stall threshold. */
    bool live = true;
    /** The shard refuses mutations (read-only degraded mode). */
    bool readOnly = false;
    /** Read-only, media-fault aborts, or quarantined segments: the
     * shard is serving but impaired. Degraded is NOT dead — /healthz
     * stays 200 so load balancers keep routing the working reads. */
    bool degraded = false;
    /** Log segments quarantined as media-corrupt by recovery. */
    std::uint64_t quarantined = 0;
    /** Transactions aborted cleanly on media faults. */
    std::uint64_t mediaAborts = 0;
};

/** Callback producing the current per-shard health; may be empty. */
using HealthSource = std::function<std::vector<ShardHealth>()>;

/** Construction parameters for TelemetryServer. */
struct TelemetryConfig
{
    /** Listen address (admin plane: default loopback only). */
    std::string bindAddress = "127.0.0.1";
    /** TCP port; 0 picks an ephemeral port (see port()). */
    std::uint16_t port = 0;
    /** Metrics source; nullptr means Registry::global(). */
    Registry *registry = nullptr;
    /** Trace source; nullptr means Tracer::global(). */
    Tracer *tracer = nullptr;
    /** Health source for /healthz; empty reports no shards, 200. */
    HealthSource health;
    /** Request-head cap; longer requests get 400 and a close. */
    std::size_t maxRequestBytes = 8192;
    /** Idle connections are dropped after this long. */
    int idleTimeoutMs = 5000;
};

/**
 * The admin HTTP endpoint; see file comment. start() binds and
 * launches the serving thread; stop() joins it. Lifetime pattern
 * matches net::NetServer.
 */
class TelemetryServer
{
  public:
    explicit TelemetryServer(TelemetryConfig config);
    ~TelemetryServer();

    TelemetryServer(const TelemetryServer &) = delete;
    TelemetryServer &operator=(const TelemetryServer &) = delete;

    /** Bind + listen + launch the thread; false on bind failure. */
    bool start();

    /** Stop serving and join; idempotent. */
    void stop();

    /** Bound port (resolves ephemeral requests); 0 before start(). */
    std::uint16_t port() const { return boundPort_; }

    /** True between a successful start() and stop(). */
    bool running() const { return running_; }

  private:
    struct Conn;

    void serveLoop();
    /** Build the full response bytes for one parsed request head. */
    std::string respond(const std::string &head) const;

    TelemetryConfig config_;
    int listenFd_ = -1;
    int wakeFd_ = -1;
    std::uint16_t boundPort_ = 0;
    /** Written by start()/stop(), read by the server thread. */
    std::atomic<bool> running_{false};
    std::thread thread_;
};

} // namespace specpmt::obs

#endif // SPECPMT_OBS_TELEMETRY_SERVER_HH
