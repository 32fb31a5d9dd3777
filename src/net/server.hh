/**
 * @file
 * The networked KV front end: a non-blocking epoll server with one
 * event loop pinned per KV shard.
 *
 * Threading model. Loop i owns shard i: it is the only network
 * thread that begins transactions on that shard (client thread id =
 * loop index), so a request that arrives on a connection bound to
 * its key's shard is parsed, executed, and answered on one thread
 * with no cross-thread handoff. Connections are distributed
 * round-robin at accept time; a HELLO frame carrying a desired shard
 * migrates the connection (decoder buffer and all) to that shard's
 * loop, so shard-affine clients pay the handoff once per connection
 * instead of once per request. Loop 0 additionally owns the listen
 * socket.
 *
 * Group commit. Each epoll wake-up drains every readable connection
 * completely, decoding all pipelined frames, then executes the
 * drained operations in arrival order as maximal same-shard runs via
 * KvService::executeShardBatch — ONE crash-atomic transaction (one
 * commit flush+fence) per run, however many pipelined mutations it
 * carries. Responses are appended per connection and written out in
 * a single batch after the run's commit fence, so a response is
 * never on the wire before its mutation is durable. Misrouted keys
 * (a client that ignored shard affinity) split the run: still
 * correct, just more fences — the specpmt_net_batch_* counters make
 * the difference visible.
 *
 * Epoch group commit (ServerConfig::groupCommit, DESIGN §12) goes one
 * step further: relaxed runs commit with Durability::Relaxed — no
 * per-run fence at all — and their responses are parked in
 * per-connection deferred chunks keyed by (shard, epoch ticket). A
 * loop seals a shard's epoch once epochMaxOps deferred mutations
 * accumulate on it, counted once per shard by KvService whichever
 * loops ran them, or after epochMaxDelayUs via a finite epoll timeout,
 * and a chunk is released to the socket only when its shard's sealed
 * epoch reaches its ticket — acks still never precede durability,
 * they just share one fence per epoch. Chunks drain in FIFO order
 * per connection, so pipelined response order is preserved; a
 * request carrying kFlagStrict splits the run and commits strictly
 * (one fence, acked immediately), which also seals every earlier
 * relaxed commit of that shard's epoch.
 *
 * Protocol errors (FrameDecoder poisoning, malformed payloads) close
 * the connection after a best-effort Err frame; the server never
 * guesses at resynchronization.
 */

#ifndef SPECPMT_NET_SERVER_HH
#define SPECPMT_NET_SERVER_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "kv/kv_service.hh"
#include "net/protocol.hh"
#include "obs/telemetry_server.hh"

namespace specpmt::obs
{
class Counter;
class Gauge;
} // namespace specpmt::obs

namespace specpmt::net
{

/** Server construction parameters. */
struct ServerConfig
{
    /** TCP port; 0 picks an ephemeral port (read it via port()). */
    std::uint16_t port = 0;
    /** Bind address. */
    std::string bindAddress = "127.0.0.1";
    /**
     * Serve with epoch group commit: mutation runs without
     * kFlagStrict commit relaxed and are acked after their epoch's
     * shared fence. Requires a group-commit-capable service runtime
     * (otherwise runs keep committing strictly).
     */
    bool groupCommit = false;
    /** Seal a shard's epoch once this many deferred mutations wait
     * (KvService::sealShardEpochIfDue). */
    std::size_t epochMaxOps = 64;
    /** Upper bound on how long an ack may wait for an epoch seal. */
    std::uint64_t epochMaxDelayUs = 500;
    /**
     * Tail sampling: a request whose decode-to-ack time exceeds this
     * many microseconds bumps specpmt_net_slow_requests_total and
     * (when tracing is enabled) emits a full-span trace event tagged
     * with the request id. 0 disables the check.
     */
    std::uint64_t slowUs = 0;
    /**
     * A loop whose heartbeat is older than this is reported dead by
     * healthReport() (the /healthz contract).
     */
    std::uint64_t stallThresholdMs = 1000;
    /**
     * Admission control: once a wake-up has drained this many
     * operations, further request frames are answered with Busy
     * instead of being queued — a bounded-queue shed that keeps the
     * loop's drain cycle (and thus every ack latency) bounded under
     * overload. Busy is retryable; well-behaved clients back off.
     */
    std::size_t maxPendingOps = 4096;
    /**
     * Data-plane idle timeout in milliseconds: a connection that
     * neither sends a byte nor has bytes in flight for this long is
     * evicted (specpmt_net_evicted_total{reason="idle"}). 0 disables
     * the sweep (default: the benchmark harness keeps long-lived
     * idle-ish connections).
     */
    std::uint64_t idleTimeoutMs = 0;
    /**
     * Per-frame length cap handed to each connection's decoder;
     * frames above it are protocol errors counted as
     * evicted{reason="oversize"}. Clamped to kMaxFrameBytes.
     */
    std::size_t maxFrameBytes = kMaxFrameBytes;
};

/**
 * The server; see file comment. One instance serves one KvService.
 * start()/stop() are not thread-safe against each other; everything
 * in between runs on the internal loop threads.
 */
class NetServer
{
  public:
    /**
     * @p service must outlive the server and have config().threads >=
     * its shard count (loop i uses client thread id i).
     */
    NetServer(kv::KvService &service, const ServerConfig &config);
    ~NetServer();

    NetServer(const NetServer &) = delete;
    NetServer &operator=(const NetServer &) = delete;

    /** Bind, listen, and spawn the per-shard loops. Throws on error. */
    void start();

    /**
     * Close the listener, wake every loop, join the threads, and
     * close all connections. In-flight unacked requests are dropped
     * — exactly what a crash does to them. Idempotent.
     */
    void stop();

    /** The bound TCP port (valid after start()). */
    std::uint16_t port() const { return port_; }

    /** True between start() and stop(). */
    bool running() const { return running_.load(); }

    /**
     * Per-loop liveness for /healthz: heartbeat age of every event
     * loop (a loop beats once per epoll wake-up, and wake-ups are
     * bounded by the heartbeat tick) plus the loop's shard seal lag.
     * Safe to call from any thread, including while stop() runs —
     * returns empty once the loops are gone.
     */
    std::vector<obs::ShardHealth> healthReport() const;

    /**
     * Test hook: make loop @p index sleep @p ms milliseconds inside
     * its event loop on its next wake-up, so its heartbeat goes stale
     * and healthReport()//healthz flips to dead. One-shot.
     */
    void debugWedgeLoop(unsigned index, std::uint64_t ms);

  private:
    /**
     * Responses waiting for an epoch seal, in pipeline order. A chunk
     * may hit the socket once its shard's sealed epoch reaches
     * `ticket` (0 = releasable, merely queued behind earlier chunks).
     */
    struct DeferredChunk
    {
        unsigned shard = 0;
        std::uint64_t ticket = 0;
        std::vector<std::uint8_t> bytes;
        /** When the chunk's run finished executing (seal_wait base). */
        std::uint64_t execEndNs = 0;
        /** Earliest decode stamp of the chunk's requests. */
        std::uint64_t firstDecodedNs = 0;
        /** Representative request id for tail-sampled traces. */
        std::uint64_t repId = 0;
        /** Responses parked behind the ticket (seal_wait samples). */
        std::uint32_t sealOps = 0;
        /** Response frames in the chunk (write-stage samples). */
        std::uint32_t frames = 0;
        /** First traced member's trace id (0 = untraced chunk). */
        std::uint64_t traceId = 0;
        /** That member asked for full span sampling. */
        bool traceSampled = false;
    };

    /**
     * Write-stage bookkeeping: response bytes entered `out` up to
     * endOffset at enqueueNs; when outPos crosses endOffset those
     * frames are on the wire and the write stage closes.
     */
    struct OutMarker
    {
        std::size_t endOffset = 0;
        std::uint64_t enqueueNs = 0;
        std::uint32_t frames = 0;
        /** First traced response's trace id (write-stage exemplar). */
        std::uint64_t traceId = 0;
        /** That response's request asked for span sampling. */
        bool traceSampled = false;
    };

    struct Conn
    {
        int fd = -1;
        FrameDecoder decoder;
        /** Encoded-but-unsent response bytes. */
        std::vector<std::uint8_t> out;
        std::size_t outPos = 0;
        /** FIFO of epoch-deferred response chunks (group commit). */
        std::deque<DeferredChunk> deferred;
        /** Write-stage markers over `out`, ascending endOffset. */
        std::deque<OutMarker> markers;
        /** Currently registered for EPOLLOUT. */
        bool wantWrite = false;
        /** Connection is dead this cycle; drop its pending ops. */
        bool closing = false;
        /** A frame has been decoded (Hello must be the first). */
        bool sawFrame = false;
        /** Loop to migrate to after this cycle (-1 = stay). */
        int migrateTo = -1;
        /** Steady ns of the last byte received (idle-timeout base). */
        std::uint64_t lastActivityNs = 0;
    };

    struct Loop
    {
        unsigned index = 0;
        int epollFd = -1;
        int wakeFd = -1; ///< eventfd: mailbox and stop notifications
        std::thread thread;
        std::mutex mailboxMutex;
        std::vector<std::unique_ptr<Conn>> mailbox;
        std::unordered_map<int, std::unique_ptr<Conn>> conns;
        /** Steady-clock ns of the last event-loop iteration. */
        std::atomic<std::uint64_t> lastBeatNs{0};
        /** One-shot stall injection in ms (debugWedgeLoop). */
        std::atomic<std::uint64_t> wedgeMs{0};
    };

    /** One decoded request waiting for the drain-cycle execution. */
    struct PendingOp
    {
        Conn *conn = nullptr;
        std::uint64_t id = 0;
        /** Shard the op executes on. */
        unsigned shard = 0;
        kv::BatchOp op;
        /** Batch frames ack once: only the last entry responds. */
        bool respond = true;
        /** This op's whole frame was a Batch member. */
        bool fromBatch = false;
        /** Request carried kFlagStrict: commit outside the epoch. */
        bool strict = false;
        /** Epoch ticket the op's run joined (0 = already durable). */
        std::uint64_t ticket = 0;
        /** When the request frame was decoded (stage_queue base). */
        std::uint64_t decodedNs = 0;
        /** When the op's run finished executing (stage_exec end). */
        std::uint64_t execEndNs = 0;
        /** Wire trace extension: correlation id (0 = untraced). */
        std::uint64_t traceId = 0;
        /** The client asked for full span sampling of this request. */
        bool traceSampled = false;
        /** How the op's run ended: 0 ok, 1 media-fault abort (Io),
         * 2 shard read-only (run rejected before execution). */
        std::uint8_t runStatus = 0;
        /** Shed by admission control: never executes, answers Busy. */
        bool shed = false;
    };

    void loopMain(Loop &loop);
    void acceptReady(Loop &loop);
    /** Read+decode; true to keep the connection. */
    bool connReadable(Loop &loop, Conn &conn,
                      std::vector<PendingOp> &pending);
    /** Decode one request frame into pending ops / inline replies. */
    bool handleFrame(Loop &loop, Conn &conn, const Frame &frame,
                     std::vector<PendingOp> &pending);
    /** Execute the wake-up's drained ops as same-shard runs. */
    void executePending(Loop &loop, std::vector<PendingOp> &pending);
    /** Move releasable deferred chunks onto the connection's out. */
    void releaseDeferred(Conn &conn);
    /** Seal every shard this loop's connections are waiting on. */
    void sealOverdueEpochs(Loop &loop);
    void flushConn(Loop &loop, Conn &conn);
    void closeConn(Loop &loop, Conn &conn);
    void adoptConn(Loop &loop, std::unique_ptr<Conn> conn);
    void mailConn(unsigned target, std::unique_ptr<Conn> conn);
    void updateEpoll(Loop &loop, Conn &conn);

    kv::KvService &service_;
    ServerConfig config_;
    /** groupCommit requested AND the service runtime supports it. */
    bool epochMode_ = false;
    /** Cached per-shard instruments (`{shard=}`-labeled). */
    std::vector<obs::Counter *> shardOps_;
    std::vector<obs::Gauge *> queueDepth_;
    /** Guards loops_ against healthReport() racing start()/stop(). */
    mutable std::mutex lifecycleMutex_;
    std::vector<std::unique_ptr<Loop>> loops_;
    int listenFd_ = -1;
    std::uint16_t port_ = 0;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};
    std::atomic<unsigned> nextLoop_{0};
};

} // namespace specpmt::net

#endif // SPECPMT_NET_SERVER_HH
