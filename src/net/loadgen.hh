/**
 * @file
 * Open-loop load generator for the networked KV front end.
 *
 * Closed-loop drivers (kv/driver) wait for each response before
 * issuing the next request, so a slow server *slows the clients
 * down* and the measured tail silently omits exactly the latencies a
 * real arrival stream would have suffered — coordinated omission.
 * This generator is open-loop: request departures are scheduled on a
 * target-QPS arrival timeline (fixed-rate or Poisson) fixed *before*
 * the run, requests are pipelined onto the connections when their
 * departure time arrives whether or not earlier responses came back,
 * and every latency is measured from the request's INTENDED departure
 * time, not from when the socket write happened to occur. A stall in
 * the server therefore shows up in the recorded tail for every
 * request scheduled during the stall, exactly as real clients would
 * experience it.
 *
 * The op mix/key distribution comes from kv/workload_spec — the same
 * generator the closed-loop driver consumes, so both load paths draw
 * identical distributions by construction.
 *
 * Routing is shard-affine: one connection per server shard (shard
 * count discovered via HELLO), each bound to its shard's event loop;
 * requests go to their key's shard connection so the server executes
 * them with no cross-thread handoff.
 */

#ifndef SPECPMT_NET_LOADGEN_HH
#define SPECPMT_NET_LOADGEN_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hh"
#include "kv/workload_spec.hh"

namespace specpmt::net
{

/** Arrival processes for the departure timeline. */
enum class Arrival
{
    Fixed,   ///< deterministic 1/QPS gaps
    Poisson, ///< exponential gaps with mean 1/QPS
};

const char *arrivalName(Arrival arrival);

/** The process arrivalName() calls @p name; nullopt otherwise. */
std::optional<Arrival> parseArrival(std::string_view name);

/** Load generator parameters. */
struct LoadgenConfig
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    /** Target arrival rate, requests/second. */
    double targetQps = 20000;
    /** Length of the arrival timeline, seconds. */
    double seconds = 2.0;
    Arrival arrival = Arrival::Poisson;
    /** Mix / key distribution (shared with the closed-loop driver). */
    kv::WorkloadSpec workload;
    std::uint64_t seed = 1;
    /**
     * PUT keys 1..workload.keys (shard-grouped BATCH frames) before
     * the timed run, so GETs hit a loaded keyspace.
     */
    bool loadFirst = false;
    /** Post-timeline grace period for straggler responses. */
    double drainSeconds = 10.0;
    /**
     * Fraction of mutation requests (PUT and BATCH frames) sent with
     * kFlagStrict, demanding a per-request commit fence even when the
     * server serves with epoch group commit. Drawn per request from
     * the run's seeded RNG, so a given seed marks the same requests
     * strict on every run.
     */
    double strictFraction = 0.0;
    /**
     * Fraction of timed-run requests sent with the wire trace
     * extension (kFlagTraced + sampled bit): each gets a fresh 64-bit
     * trace id, a client_send/client_rtt span pair (when the process
     * tracer is enabled), and seeds server-side span emission and
     * histogram exemplars for that request. Drawn from the run's
     * seeded RNG, so a given seed traces the same requests every run.
     * 0 disables the extension entirely — frames stay byte-identical
     * to the pre-extension protocol.
     */
    double traceSample = 0.0;
    /**
     * Per-request deadline in milliseconds measured from the socket
     * enqueue of each attempt. A request unanswered past it counts a
     * timeout and (attempts permitting) is retried; 0 disables
     * deadlines entirely — the legacy wait-forever behavior.
     */
    std::uint64_t requestTimeoutMs = 0;
    /**
     * Resend budget per request beyond the first attempt, spent on
     * timeouts and Busy (overload-shed) responses. Retries are
     * byte-identical resends under the SAME request id, and a write
     * is only resent while it is still the newest write of every key
     * it touches — an idempotent overwrite, never a rollback of a
     * newer acked PUT. 0 disables retries.
     */
    std::uint32_t maxRetries = 0;
    /**
     * Re-dial a dead connection (capped exponential backoff with
     * seeded jitter) instead of declaring the run over. Requests that
     * were in flight on the dead connection resolve via the deadline
     * path, so pair this with requestTimeoutMs.
     */
    bool reconnect = false;
    /** First retry/reconnect backoff step, milliseconds. */
    std::uint64_t backoffBaseMs = 10;
    /** Backoff ceiling, milliseconds. */
    std::uint64_t backoffMaxMs = 500;
};

/** Aggregated outcome of one open-loop run. */
struct LoadgenResult
{
    /** Departures on the arrival timeline. */
    std::uint64_t scheduled = 0;
    /** Requests actually written to a socket. */
    std::uint64_t sent = 0;
    /** Responses matched to requests. */
    std::uint64_t acked = 0;
    /** Err responses. */
    std::uint64_t errors = 0;
    /** Get misses (a loaded keyspace should have none). */
    std::uint64_t notFound = 0;
    /** Requests still unanswered when the run ended. */
    std::uint64_t lost = 0;
    /** Malformed response frames (fatal for the connection). */
    std::uint64_t protocolErrors = 0;
    /** Mutation requests sent with kFlagStrict. */
    std::uint64_t strictSent = 0;
    /** Requests sent with the trace extension (traceSample draws). */
    std::uint64_t tracedSent = 0;
    /** Attempts whose per-request deadline expired unanswered. */
    std::uint64_t timeouts = 0;
    /** Byte-identical resends (timeout or Busy, same request id). */
    std::uint64_t retries = 0;
    /** Successful re-dials of a dead connection. */
    std::uint64_t reconnects = 0;
    /** Busy (overload-shed) responses received. */
    std::uint64_t busyResponses = 0;
    /** A connection died mid-run (e.g. the server crashed). */
    bool connectionLost = false;
    /** Failed before any traffic (connect/handshake); see error. */
    bool aborted = false;
    std::string error;

    double wallSeconds = 0.0;
    /** acked / wallSeconds. */
    double achievedQps = 0.0;

    /** Response latency measured from INTENDED departure time, ns. */
    LatencyHistogram readLatency;
    LatencyHistogram updateLatency;
    /** Actual enqueue time minus intended departure time, ns. */
    LatencyHistogram sendLag;

    /**
     * For every key whose PUT (or BATCH member) was acked, the
     * payload word of the last acked value — the durability
     * obligation a crash test holds the server to: after recovery,
     * get(key) must return KvValue::tagged(key, payload).
     */
    std::map<kv::KvKey, std::uint64_t> ackedPuts;

    /**
     * Payloads of PUTs that were sent but never acked (lost in a
     * crash or still in flight at run end). After recovery a key may
     * legitimately hold one of these instead of its ackedPuts entry:
     * the server may have committed the mutation even though the ack
     * never made it back.
     */
    std::map<kv::KvKey, std::vector<std::uint64_t>> unackedPuts;

    /**
     * Every payload ever ACKED for a key, in ack order (the last one
     * equals ackedPuts[key]). A verifier that finds an *older* entry
     * here is looking at a rollback — recovery discarded the newest
     * committed value, typically past a quarantined or torn log
     * segment — which accountable-loss scenarios treat differently
     * from a value that matches nothing ever sent (corruption).
     */
    std::map<kv::KvKey, std::vector<std::uint64_t>> ackedPutHistory;

    std::uint64_t
    completed() const
    {
        return acked + errors;
    }
};

/**
 * Run one open-loop load against a speckv server; see file comment.
 * Single-threaded; returns when every scheduled request is resolved
 * (acked, errored, or lost) or a connection dies.
 */
LoadgenResult runOpenLoop(const LoadgenConfig &config);

} // namespace specpmt::net

#endif // SPECPMT_NET_LOADGEN_HH
