#include "net/server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "obs/trace_context.hh"

namespace specpmt::net
{

namespace
{

/** listen(2) backlog. */
constexpr int kListenBacklog = 128;

/** Net-layer counters, registered once per process. */
struct NetMetrics
{
    obs::Counter &connections;
    obs::Counter &connsClosed;
    obs::Counter &framesRx;
    obs::Counter &framesTx;
    obs::Counter &bytesRx;
    obs::Counter &bytesTx;
    obs::Counter &protocolErrors;
    obs::Counter &batchCommits;
    obs::Counter &batchOps;
    obs::Counter &migrations;
    obs::Counter &deferredAcks;
    obs::Counter &epochSeals;
    obs::Counter &strictOps;
    obs::Counter &slowRequests;
    /** Requests shed with Busy by admission control. */
    obs::Counter &busyShed;
    /** Connections evicted by the idle-timeout sweep. */
    obs::Counter &evictedIdle;
    /** Connections evicted for breaching the frame-length cap. */
    obs::Counter &evictedOversize;
    obs::Histogram &pipelineDepth;
    /** Per-request stage attribution (ns): decode->execute wait,
     *  transaction execution, epoch-seal parking, socket write. */
    obs::Histogram &stageQueue;
    obs::Histogram &stageExec;
    obs::Histogram &stageSealWait;
    obs::Histogram &stageWrite;

    static NetMetrics &
    get()
    {
        auto &reg = obs::Registry::global();
        static NetMetrics m{
            reg.counter("specpmt_net_connections_total",
                        "accepted client connections"),
            reg.counter("specpmt_net_conns_closed_total",
                        "connections closed (EOF, error, shutdown)"),
            reg.counter("specpmt_net_frames_rx_total",
                        "request frames decoded"),
            reg.counter("specpmt_net_frames_tx_total",
                        "response frames encoded"),
            reg.counter("specpmt_net_bytes_rx_total",
                        "bytes read from client sockets"),
            reg.counter("specpmt_net_bytes_tx_total",
                        "bytes written to client sockets"),
            reg.counter("specpmt_net_protocol_errors_total",
                        "connections killed by protocol errors"),
            reg.counter(
                "specpmt_net_batch_commits_total",
                "shard transactions committed for drained batches"),
            reg.counter("specpmt_net_batch_ops_total",
                        "operations executed through drained batches"),
            reg.counter("specpmt_net_migrations_total",
                        "connections migrated to their HELLO shard"),
            reg.counter("specpmt_net_deferred_acks_total",
                        "responses parked until their epoch fence"),
            reg.counter("specpmt_net_epoch_seals_total",
                        "epoch seals initiated by the net layer "
                        "(size threshold or delay timer)"),
            reg.counter("specpmt_net_strict_ops_total",
                        "mutations that demanded strict durability "
                        "via kFlagStrict"),
            reg.counter("specpmt_net_slow_requests_total",
                        "requests slower than --slow-us end to end "
                        "(tail-sampled into the trace when enabled)"),
            reg.counter("specpmt_net_busy_total",
                        "requests shed with Busy by admission "
                        "control (bounded pending queue)"),
            reg.counter("specpmt_net_evicted_total",
                        "connections evicted by server policy",
                        obs::Labels{{"reason", "idle"}}),
            reg.counter("specpmt_net_evicted_total",
                        "connections evicted by server policy",
                        obs::Labels{{"reason", "oversize"}}),
            reg.histogram("specpmt_net_pipeline_depth",
                          "requests drained per connection per epoll "
                          "wake-up"),
            reg.histogram("specpmt_net_stage_queue",
                          "ns from request decode to the start of its "
                          "shard transaction"),
            reg.histogram("specpmt_net_stage_exec",
                          "ns a request's shard-batch transaction took "
                          "to execute (commit fence included)"),
            reg.histogram("specpmt_net_stage_seal_wait",
                          "ns a relaxed response waited parked for its "
                          "epoch seal"),
            reg.histogram("specpmt_net_stage_write",
                          "ns from response enqueue to the bytes being "
                          "handed to the socket"),
        };
        return m;
    }
};

void
throwErrno(const char *what)
{
    throw std::runtime_error(std::string(what) + ": " +
                             std::strerror(errno));
}

void
setNoDelay(int fd)
{
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

} // namespace

NetServer::NetServer(kv::KvService &service,
                     const ServerConfig &config)
    : service_(service), config_(config),
      epochMode_(config.groupCommit && service.groupCommitEnabled())
{
    // Loop i calls the service with client thread id i.
    SPECPMT_ASSERT(service.numThreads() >= service.numShards());
}

NetServer::~NetServer()
{
    stop();
}

void
NetServer::start()
{
    SPECPMT_ASSERT(!running_.load());
    stopping_.store(false);

    listenFd_ = ::socket(AF_INET,
                         SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                         0);
    if (listenFd_ < 0)
        throwErrno("socket");
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.bindAddress.c_str(),
                    &addr.sin_addr) != 1)
        throw std::runtime_error("bad bind address " +
                                 config_.bindAddress);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        throwErrno("bind");
    if (::listen(listenFd_, kListenBacklog) != 0)
        throwErrno("listen");
    socklen_t addr_len = sizeof(addr);
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                      &addr_len) != 0)
        throwErrno("getsockname");
    port_ = ntohs(addr.sin_port);

    const unsigned loops = service_.numShards();
    std::lock_guard<std::mutex> lifecycle(lifecycleMutex_);
    loops_.clear();
    shardOps_.clear();
    queueDepth_.clear();
    auto &reg = obs::Registry::global();
    for (unsigned i = 0; i < loops; ++i) {
        const obs::Labels labels{{"shard", std::to_string(i)}};
        shardOps_.push_back(&reg.counter(
            "specpmt_net_shard_ops_total",
            "operations executed per shard (load balance view)",
            labels));
        queueDepth_.push_back(&reg.gauge(
            "specpmt_net_queue_depth",
            "requests drained in the loop's most recent wake-up",
            labels));
    }
    for (unsigned i = 0; i < loops; ++i) {
        auto loop = std::make_unique<Loop>();
        loop->index = i;
        loop->lastBeatNs.store(obs::Tracer::now(),
                               std::memory_order_relaxed);
        loop->epollFd = ::epoll_create1(EPOLL_CLOEXEC);
        if (loop->epollFd < 0)
            throwErrno("epoll_create1");
        loop->wakeFd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
        if (loop->wakeFd < 0)
            throwErrno("eventfd");
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = loop->wakeFd;
        if (::epoll_ctl(loop->epollFd, EPOLL_CTL_ADD, loop->wakeFd,
                        &ev) != 0)
            throwErrno("epoll_ctl wakefd");
        loops_.push_back(std::move(loop));
    }
    // Loop 0 owns the listener.
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listenFd_;
    if (::epoll_ctl(loops_[0]->epollFd, EPOLL_CTL_ADD, listenFd_,
                    &ev) != 0)
        throwErrno("epoll_ctl listenfd");

    running_.store(true);
    for (auto &loop : loops_) {
        loop->thread =
            std::thread([this, raw = loop.get()] { loopMain(*raw); });
    }
    SPECPMT_INFORM("net: serving on %s:%u with %u shard loops",
                config_.bindAddress.c_str(), port_, loops);
}

void
NetServer::stop()
{
    if (!running_.load())
        return;
    std::lock_guard<std::mutex> lifecycle(lifecycleMutex_);
    stopping_.store(true);
    for (auto &loop : loops_) {
        const std::uint64_t one = 1;
        [[maybe_unused]] const auto n =
            ::write(loop->wakeFd, &one, sizeof(one));
    }
    for (auto &loop : loops_) {
        if (loop->thread.joinable())
            loop->thread.join();
    }
    // A migration can land in a mailbox after its target loop already
    // tore down; with every sender joined, sweep the leftovers.
    for (auto &loop : loops_) {
        std::lock_guard<std::mutex> guard(loop->mailboxMutex);
        for (auto &conn : loop->mailbox)
            ::close(conn->fd);
        loop->mailbox.clear();
    }
    loops_.clear();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    running_.store(false);
}

void
NetServer::adoptConn(Loop &loop, std::unique_ptr<Conn> conn)
{
    Conn &ref = *conn;
    ref.migrateTo = -1;
    epoll_event ev{};
    ev.events = EPOLLIN | (ref.wantWrite ? EPOLLOUT : 0u);
    ev.data.fd = ref.fd;
    if (::epoll_ctl(loop.epollFd, EPOLL_CTL_ADD, ref.fd, &ev) != 0) {
        ::close(ref.fd);
        NetMetrics::get().connsClosed.add();
        return;
    }
    loop.conns.emplace(ref.fd, std::move(conn));
}

void
NetServer::mailConn(unsigned target, std::unique_ptr<Conn> conn)
{
    Loop &loop = *loops_[target];
    {
        std::lock_guard<std::mutex> guard(loop.mailboxMutex);
        loop.mailbox.push_back(std::move(conn));
    }
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto n =
        ::write(loop.wakeFd, &one, sizeof(one));
}

void
NetServer::updateEpoll(Loop &loop, Conn &conn)
{
    epoll_event ev{};
    ev.events = EPOLLIN | (conn.wantWrite ? EPOLLOUT : 0u);
    ev.data.fd = conn.fd;
    ::epoll_ctl(loop.epollFd, EPOLL_CTL_MOD, conn.fd, &ev);
}

void
NetServer::closeConn(Loop &loop, Conn &conn)
{
    ::epoll_ctl(loop.epollFd, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    NetMetrics::get().connsClosed.add();
    loop.conns.erase(conn.fd); // frees conn
}

void
NetServer::acceptReady(Loop &loop)
{
    for (;;) {
        const int fd = ::accept4(listenFd_, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK ||
                errno == ECONNABORTED)
                return;
            if (errno == EINTR)
                continue;
            return; // listener is going away
        }
        setNoDelay(fd);
        NetMetrics::get().connections.add();
        auto conn = std::make_unique<Conn>();
        conn->fd = fd;
        conn->decoder.setMaxFrameBytes(config_.maxFrameBytes);
        conn->lastActivityNs = obs::Tracer::now();
        const unsigned target =
            nextLoop_.fetch_add(1, std::memory_order_relaxed) %
            loops_.size();
        if (target == loop.index)
            adoptConn(loop, std::move(conn));
        else
            mailConn(target, std::move(conn));
    }
}

bool
NetServer::handleFrame(Loop &loop, Conn &conn, const Frame &frame,
                       std::vector<PendingOp> &pending)
{
    auto &metrics = NetMetrics::get();
    metrics.framesRx.add();
    const std::uint64_t decodedNs = obs::Tracer::now();

    // kFlagStrict is meaningful on mutating requests only; the trace
    // extension may ride any request; every other flag bit is
    // reserved and fails closed.
    const std::uint8_t allowed_flags =
        kFlagTraced |
        ((frame.op == Op::Put || frame.op == Op::Del ||
          frame.op == Op::Batch)
             ? kFlagStrict
             : 0);
    if (!isRequestOp(static_cast<std::uint8_t>(frame.op)) ||
        (frame.flags & ~allowed_flags) != 0) {
        appendErr(conn.out, frame.id, ErrCode::BadFrame,
                  "not a request frame");
        metrics.framesTx.add();
        metrics.protocolErrors.add();
        return false;
    }
    const bool strict = (frame.flags & kFlagStrict) != 0;
    if (strict)
        metrics.strictOps.add();

    // Admission control: once this wake-up's drain has queued
    // maxPendingOps operations, further requests are shed with Busy
    // — nothing executes, the client retries after backoff. A shed
    // request still joins the pending list, never to execute, so its
    // Busy is answered in arrival order. Hello is exempt (no work
    // queued, and shedding it would orphan the connection's shard
    // binding). A Batch admitted here may overshoot the cap by its
    // member count; the next frame is shed, so the overshoot is
    // bounded by kMaxBatchEntries.
    if (frame.op != Op::Hello && config_.maxPendingOps != 0 &&
        pending.size() >= config_.maxPendingOps) {
        conn.sawFrame = true;
        PendingOp op;
        op.conn = &conn;
        op.id = frame.id;
        op.shed = true;
        pending.push_back(op);
        metrics.busyShed.add();
        return true;
    }

    switch (frame.op) {
      case Op::Hello: {
        std::uint32_t desired = kAnyShard;
        if (conn.sawFrame || !parseHello(frame, desired)) {
            appendErr(conn.out, frame.id, ErrCode::BadFrame,
                      "HELLO must be the first frame");
            metrics.framesTx.add();
            metrics.protocolErrors.add();
            return false;
        }
        conn.sawFrame = true;
        const unsigned shards = service_.numShards();
        std::uint32_t bound = loop.index;
        if (desired != kAnyShard && desired < shards &&
            desired != loop.index) {
            bound = desired;
            conn.migrateTo = static_cast<int>(desired);
        }
        appendHelloOk(conn.out, frame.id, shards, bound);
        metrics.framesTx.add();
        return true;
      }
      case Op::Get:
      case Op::Del: {
        kv::KvKey key = 0;
        if (!parseKey(frame, key)) {
            appendErr(conn.out, frame.id, ErrCode::BadFrame,
                      "bad key payload");
            metrics.framesTx.add();
            metrics.protocolErrors.add();
            return false;
        }
        conn.sawFrame = true;
        PendingOp op;
        op.conn = &conn;
        op.id = frame.id;
        op.shard = service_.shardOf(key);
        op.op.kind = frame.op == Op::Get ? kv::BatchOp::Kind::Get
                                         : kv::BatchOp::Kind::Erase;
        op.op.key = key;
        op.strict = strict;
        op.decodedNs = decodedNs;
        op.traceId = frame.ext.traceId;
        op.traceSampled = frame.ext.sampled;
        pending.push_back(op);
        return true;
      }
      case Op::Put: {
        PendingOp op;
        op.conn = &conn;
        op.id = frame.id;
        op.op.kind = kv::BatchOp::Kind::Put;
        if (!parsePut(frame, op.op.key, op.op.value)) {
            appendErr(conn.out, frame.id, ErrCode::BadFrame,
                      "bad put payload");
            metrics.framesTx.add();
            metrics.protocolErrors.add();
            return false;
        }
        conn.sawFrame = true;
        op.shard = service_.shardOf(op.op.key);
        op.strict = strict;
        op.decodedNs = decodedNs;
        op.traceId = frame.ext.traceId;
        op.traceSampled = frame.ext.sampled;
        pending.push_back(op);
        return true;
      }
      case Op::Batch: {
        std::vector<std::pair<kv::KvKey, kv::KvValue>> items;
        if (!parseBatch(frame, items) || items.empty()) {
            appendErr(conn.out, frame.id, ErrCode::BadFrame,
                      "bad batch payload");
            metrics.framesTx.add();
            metrics.protocolErrors.add();
            return false;
        }
        conn.sawFrame = true;
        for (std::size_t i = 0; i < items.size(); ++i) {
            PendingOp op;
            op.conn = &conn;
            op.id = frame.id;
            op.shard = service_.shardOf(items[i].first);
            op.op.kind = kv::BatchOp::Kind::Put;
            op.op.key = items[i].first;
            op.op.value = items[i].second;
            op.fromBatch = true;
            op.respond = i + 1 == items.size();
            op.strict = strict;
            op.decodedNs = decodedNs;
            op.traceId = frame.ext.traceId;
            op.traceSampled = frame.ext.sampled;
            pending.push_back(op);
        }
        return true;
      }
      default:
        break;
    }
    appendErr(conn.out, frame.id, ErrCode::BadFrame,
              "unhandled opcode");
    metrics.framesTx.add();
    metrics.protocolErrors.add();
    return false;
}

bool
NetServer::connReadable(Loop &loop, Conn &conn,
                        std::vector<PendingOp> &pending)
{
    auto &metrics = NetMetrics::get();
    std::uint8_t buf[64 * 1024];
    bool eof = false;
    for (;;) {
        const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (n > 0) {
            metrics.bytesRx.add(static_cast<std::uint64_t>(n));
            conn.lastActivityNs = obs::Tracer::now();
            conn.decoder.feed(buf, static_cast<std::size_t>(n));
            if (static_cast<std::size_t>(n) < sizeof(buf))
                break;
            continue;
        }
        if (n == 0) {
            eof = true;
            break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        eof = true; // hard socket error
        break;
    }

    const std::size_t before = pending.size();
    Frame frame;
    std::string error;
    bool protocol_ok = true;
    for (;;) {
        const auto status = conn.decoder.next(frame, error);
        if (status == FrameDecoder::Status::NeedMore)
            break;
        if (status == FrameDecoder::Status::Error) {
            if (!conn.closing) {
                SPECPMT_INFORM("net: closing fd %d: %s", conn.fd,
                            error.c_str());
                appendErr(conn.out, 0, ErrCode::BadFrame, error);
                metrics.framesTx.add();
                metrics.protocolErrors.add();
                if (conn.decoder.oversized())
                    metrics.evictedOversize.add();
            }
            protocol_ok = false;
            break;
        }
        if (!handleFrame(loop, conn, frame, pending)) {
            protocol_ok = false;
            break;
        }
    }
    const auto admitted = std::count_if(
        pending.begin() + static_cast<std::ptrdiff_t>(before),
        pending.end(), [](const PendingOp &op) { return !op.shed; });
    if (admitted > 0)
        metrics.pipelineDepth.record(static_cast<std::uint64_t>(admitted));
    if (!protocol_ok || eof) {
        conn.closing = true;
        return false;
    }
    return true;
}

void
NetServer::executePending(Loop &loop, std::vector<PendingOp> &pending)
{
    if (pending.empty())
        return;
    SPECPMT_TRACE_SPAN("net_execute_batch", "net");
    auto &metrics = NetMetrics::get();
    if (loop.index < queueDepth_.size())
        queueDepth_[loop.index]->set(std::count_if(
            pending.begin(), pending.end(),
            [](const PendingOp &op) { return !op.shed; }));

    // Execute maximal same-shard, same-durability runs in arrival
    // order; each run with a mutation is one crash-atomic
    // transaction. Strict runs pay their own commit fence; relaxed
    // runs (epoch mode) defer it into the shard's epoch and remember
    // the ticket their responses must wait for.
    //
    // A run is capped at kMaxOpsPerCommit operations so one greedy
    // pipeline cannot grow a transaction without bound; a longer run
    // simply commits in ceil(N/cap) fences.
    constexpr std::size_t kMaxOpsPerCommit = 256;
    std::vector<kv::BatchOp> ops;
    std::vector<kv::BatchOpResult> results;
    std::vector<kv::BatchOpResult> all_results(pending.size());
    /** Shards a relaxed run of this drain added mutations to. */
    std::vector<unsigned> relaxed_shards;
    std::size_t start = 0;
    while (start < pending.size()) {
        // Drop ops whose connection died mid-cycle: nothing was
        // acked, so skipping them is indistinguishable from a crash
        // before the request was executed. Shed ops never execute.
        if (pending[start].conn->closing || pending[start].shed) {
            ++start;
            continue;
        }
        const unsigned shard = pending[start].shard;
        const bool strict = !epochMode_ || pending[start].strict;
        std::size_t end = start;
        // The run's trace identity: the first sampled member wins
        // (so a sampled request's waterfall is complete), else the
        // first traced member (exemplars only).
        std::uint64_t runTraceId = 0;
        bool runSampled = false;
        ops.clear();
        while (end < pending.size() &&
               ops.size() < kMaxOpsPerCommit &&
               !pending[end].conn->closing && !pending[end].shed &&
               pending[end].shard == shard &&
               (!epochMode_ || pending[end].strict ==
                                   pending[start].strict)) {
            if (pending[end].traceId != 0 &&
                (runTraceId == 0 ||
                 (!runSampled && pending[end].traceSampled))) {
                runTraceId = pending[end].traceId;
                runSampled = pending[end].traceSampled;
            }
            ops.push_back(pending[end].op);
            ++end;
        }
        std::uint64_t ticket = 0;
        const std::uint64_t execStartNs = obs::Tracer::now();
        const obs::PmCost costBefore = obs::traceContext().cost;
        kv::BatchStatus status = kv::BatchStatus::Ok;
        {
            // The context rides this thread into KvService and the
            // tx runtime: log appends and device flushes charge
            // their PM costs here, and sampled commits correlate
            // their spans (flush_batch, epoch_seal) by this id.
            obs::ScopedTraceId traceScope(runTraceId, runSampled);
            status = service_.executeShardBatch(
                loop.index, shard, ops, results,
                strict ? kv::Durability::Strict
                       : kv::Durability::Relaxed,
                &ticket);
        }
        const std::uint64_t execEndNs = obs::Tracer::now();
        // BadRoute would mean this loop computed the wrong shard for
        // a key — a server bug, not a client or media condition.
        SPECPMT_ASSERT(status != kv::BatchStatus::BadRoute);
        const std::uint8_t runStatus =
            status == kv::BatchStatus::Io        ? 1
            : status == kv::BatchStatus::ReadOnly ? 2
                                                  : 0;
        metrics.batchCommits.add();
        metrics.batchOps.add(ops.size());
        if (shard < shardOps_.size())
            shardOps_[shard]->add(ops.size());
        if (runSampled && obs::Tracer::global().enabled()) {
            const obs::PmCost cost = obs::PmCost::delta(
                costBefore, obs::traceContext().cost);
            const obs::TraceArg args[] = {
                {"user_bytes", cost.userBytes},
                {"log_bytes", cost.logBytes},
                {"flushes", cost.flushes},
                {"flush_bytes", cost.flushBytes},
                {"fences", cost.fences},
                {"log_peak", cost.logBytesPeak},
                {"reclaim_debt", cost.reclaimDebt},
            };
            obs::Tracer::global().record(
                "srv_exec", "req", execStartNs, execEndNs, runTraceId,
                args, sizeof(args) / sizeof(args[0]));
        }
        // Every request of the run shares the run's execution time —
        // that is what each of them actually waited for. Traced
        // requests also pin their ids onto the stage buckets they
        // land in, so a live scrape links tail buckets to traces.
        const std::uint64_t execNs = execEndNs - execStartNs;
        for (std::size_t i = 0; i < results.size(); ++i) {
            all_results[start + i] = results[i];
            PendingOp &done = pending[start + i];
            done.ticket = ticket;
            done.execEndNs = execEndNs;
            done.runStatus = runStatus;
            const std::uint64_t queueNs =
                execStartNs > done.decodedNs
                    ? execStartNs - done.decodedNs
                    : 0;
            metrics.stageQueue.record(queueNs, done.traceId);
            metrics.stageExec.record(execNs, done.traceId);
            if (done.traceSampled && obs::Tracer::global().enabled())
                obs::Tracer::global().record("srv_queue", "req",
                                             done.decodedNs,
                                             execStartNs,
                                             done.traceId);
        }
        if (ticket != 0 &&
            std::find(relaxed_shards.begin(), relaxed_shards.end(),
                      shard) == relaxed_shards.end())
            relaxed_shards.push_back(shard);
        start = end;
    }

    // Responses, in arrival order. Strict and read-only responses go
    // straight to the connection's out buffer (their fences are
    // done); responses of a relaxed run are parked in a deferred
    // chunk keyed by the run's (shard, ticket) until the epoch seal.
    // Once a connection has deferred chunks, later responses queue
    // behind them so pipelined response order is preserved.
    const std::uint64_t respNs = obs::Tracer::now();
    auto sink = [&](const PendingOp &op) -> std::vector<std::uint8_t> & {
        Conn &conn = *op.conn;
        if (op.ticket == 0 && conn.deferred.empty())
            return conn.out;
        if (!conn.deferred.empty() &&
            (op.ticket == 0 ||
             (conn.deferred.back().shard == op.shard &&
              conn.deferred.back().ticket == op.ticket))) {
            return conn.deferred.back().bytes;
        }
        conn.deferred.push_back({op.shard, op.ticket, {}});
        return conn.deferred.back().bytes;
    };
    // Stage bookkeeping per response frame: immediate responses open
    // a write marker on the connection's out buffer (and are checked
    // against --slow-us now); deferred responses annotate their chunk
    // so releaseDeferred() can attribute seal_wait/write/slow later.
    auto noteResponse = [&](const PendingOp &op,
                            std::vector<std::uint8_t> &out) {
        Conn &conn = *op.conn;
        if (&out == &conn.out) {
            if (!conn.markers.empty() &&
                conn.markers.back().enqueueNs == respNs) {
                conn.markers.back().endOffset = conn.out.size();
                ++conn.markers.back().frames;
                if (conn.markers.back().traceId == 0) {
                    conn.markers.back().traceId = op.traceId;
                    conn.markers.back().traceSampled = op.traceSampled;
                }
            } else {
                conn.markers.push_back({conn.out.size(), respNs, 1,
                                        op.traceId, op.traceSampled});
            }
            if (config_.slowUs != 0 &&
                respNs - op.decodedNs > config_.slowUs * 1000) {
                metrics.slowRequests.add();
                if (obs::Tracer::global().enabled())
                    obs::Tracer::global().record("slow_request", "net",
                                                 op.decodedNs, respNs,
                                                 op.id);
            }
            return;
        }
        DeferredChunk &chunk = conn.deferred.back();
        ++chunk.frames;
        if (op.ticket != 0)
            ++chunk.sealOps;
        if (chunk.firstDecodedNs == 0 ||
            op.decodedNs < chunk.firstDecodedNs)
            chunk.firstDecodedNs = op.decodedNs;
        if (op.execEndNs > chunk.execEndNs)
            chunk.execEndNs = op.execEndNs;
        if (chunk.repId == 0)
            chunk.repId = op.id;
        if (chunk.traceId == 0) {
            chunk.traceId = op.traceId;
            chunk.traceSampled = op.traceSampled;
        }
    };
    bool batch_ok = true;
    ErrCode batch_err = ErrCode::MapFull;
    std::string_view batch_msg = "batch put rejected";
    for (std::size_t i = 0; i < pending.size(); ++i) {
        const PendingOp &op = pending[i];
        if (op.conn->closing)
            continue;
        if (op.shed) {
            // Not executed, so Busy is a definite non-apply; it is no
            // executed op's response, so no stage samples it.
            appendBusy(sink(op), op.id);
            metrics.framesTx.add();
            continue;
        }
        const kv::BatchOpResult &result = all_results[i];
        if (op.ticket != 0 && (op.respond || !op.fromBatch))
            metrics.deferredAcks.add();
        if (op.fromBatch) {
            // First failure wins: the whole batch frame gets one
            // response, and the earliest cause is the honest one.
            if (batch_ok) {
                if (op.runStatus == 1) {
                    batch_ok = false;
                    batch_err = ErrCode::Io;
                    batch_msg = "media fault; batch aborted";
                } else if (op.runStatus == 2 ||
                           result.rejectedReadOnly) {
                    batch_ok = false;
                    batch_err = ErrCode::ReadOnly;
                    batch_msg = "shard is read-only";
                } else if (!result.ok) {
                    batch_ok = false;
                    batch_err = ErrCode::MapFull;
                    batch_msg = "batch put rejected";
                }
            }
            if (op.respond) {
                auto &out = sink(op);
                if (batch_ok)
                    appendOk(out, op.id);
                else
                    appendErr(out, op.id, batch_err, batch_msg);
                metrics.framesTx.add();
                noteResponse(op, out);
                batch_ok = true;
            }
            continue;
        }
        auto &out = sink(op);
        const bool is_get = op.op.kind == kv::BatchOp::Kind::Get;
        if (op.runStatus == 1) {
            // The run's transaction hit a media fault and was aborted
            // cleanly: nothing applied, nothing durable. Every member
            // reports Io — a retry may land on healthy lines.
            appendErr(out, op.id, ErrCode::Io,
                      "media fault; tx aborted");
        } else if (op.runStatus == 2) {
            // The shard flipped read-only mid-run. Mutations are
            // refused outright; a Get merely lost its ride (the run
            // aborted before execution) — Busy tells the client to
            // retry, and the retry is served from the read-only path.
            if (is_get)
                appendBusy(out, op.id);
            else
                appendErr(out, op.id, ErrCode::ReadOnly,
                          "shard is read-only");
        } else if (result.rejectedReadOnly) {
            appendErr(out, op.id, ErrCode::ReadOnly,
                      "shard is read-only");
        } else {
            switch (op.op.kind) {
              case kv::BatchOp::Kind::Get:
                if (result.ok)
                    appendValue(out, op.id, result.value);
                else
                    appendNotFound(out, op.id);
                break;
              case kv::BatchOp::Kind::Put:
                if (result.ok)
                    appendOk(out, op.id);
                else
                    appendErr(out, op.id, ErrCode::MapFull,
                              "shard table full");
                break;
              case kv::BatchOp::Kind::Erase:
                if (result.ok)
                    appendOk(out, op.id);
                else
                    appendNotFound(out, op.id);
                break;
            }
        }
        metrics.framesTx.add();
        noteResponse(op, out);
    }

    // Size trigger, on the service's one count per shard: every
    // loop's relaxed runs on a shard add up to one epochMaxOps.
    for (const unsigned s : relaxed_shards) {
        if (service_.sealShardEpochIfDue(s, config_.epochMaxOps))
            metrics.epochSeals.add();
    }
}

void
NetServer::releaseDeferred(Conn &conn)
{
    auto &metrics = NetMetrics::get();
    while (!conn.deferred.empty()) {
        const DeferredChunk &front = conn.deferred.front();
        if (front.ticket != 0 &&
            service_.shardSealedEpoch(front.shard) < front.ticket)
            return;
        const std::uint64_t nowNs = obs::Tracer::now();
        // seal_wait closes for every response that was parked behind
        // the ticket (responses merely queued for FIFO order carry
        // ticket 0 in their chunk and are not seal-attributed).
        if (front.sealOps != 0 && front.execEndNs != 0) {
            const std::uint64_t waitNs =
                nowNs > front.execEndNs ? nowNs - front.execEndNs : 0;
            for (std::uint32_t i = 0; i < front.sealOps; ++i)
                metrics.stageSealWait.record(waitNs, front.traceId);
            if (front.traceSampled && obs::Tracer::global().enabled())
                obs::Tracer::global().record("seal_wait", "req",
                                             front.execEndNs, nowNs,
                                             front.traceId);
        }
        conn.out.insert(conn.out.end(), front.bytes.begin(),
                        front.bytes.end());
        if (front.frames != 0)
            conn.markers.push_back({conn.out.size(), nowNs,
                                    front.frames, front.traceId,
                                    front.traceSampled});
        if (config_.slowUs != 0 && front.firstDecodedNs != 0 &&
            nowNs - front.firstDecodedNs > config_.slowUs * 1000) {
            metrics.slowRequests.add();
            if (obs::Tracer::global().enabled())
                obs::Tracer::global().record("slow_request", "net",
                                             front.firstDecodedNs,
                                             nowNs, front.repId);
        }
        conn.deferred.pop_front();
    }
}

void
NetServer::sealOverdueEpochs(Loop &loop)
{
    // Delay trigger: the epoll timeout expired with acks still
    // parked. Seal every shard a chunk is waiting on (sealing an
    // empty epoch is fence-free, so over-approximating is cheap).
    bool sealed_any = false;
    std::vector<bool> sealed(service_.numShards(), false);
    for (auto &[fd, conn] : loop.conns) {
        for (const DeferredChunk &chunk : conn->deferred) {
            if (chunk.ticket == 0 || sealed[chunk.shard])
                continue;
            if (service_.shardSealedEpoch(chunk.shard) >= chunk.ticket) {
                sealed[chunk.shard] = true; // another thread sealed it
                continue;
            }
            service_.sealShardEpoch(chunk.shard);
            sealed[chunk.shard] = true;
            sealed_any = true;
        }
    }
    if (sealed_any)
        NetMetrics::get().epochSeals.add();
}

void
NetServer::flushConn(Loop &loop, Conn &conn)
{
    auto &metrics = NetMetrics::get();
    // Close the write stage for every marker the kernel accepted.
    auto popMarkers = [&metrics](Conn &c) {
        if (c.markers.empty() ||
            c.markers.front().endOffset > c.outPos)
            return;
        const std::uint64_t nowNs = obs::Tracer::now();
        while (!c.markers.empty() &&
               c.markers.front().endOffset <= c.outPos) {
            const OutMarker &marker = c.markers.front();
            const std::uint64_t writeNs =
                nowNs > marker.enqueueNs ? nowNs - marker.enqueueNs
                                         : 0;
            for (std::uint32_t i = 0; i < marker.frames; ++i)
                metrics.stageWrite.record(writeNs, marker.traceId);
            if (marker.traceSampled &&
                obs::Tracer::global().enabled())
                obs::Tracer::global().record("ack_write", "req",
                                             marker.enqueueNs, nowNs,
                                             marker.traceId);
            c.markers.pop_front();
        }
    };
    while (conn.outPos < conn.out.size()) {
        const ssize_t n =
            ::send(conn.fd, conn.out.data() + conn.outPos,
                   conn.out.size() - conn.outPos, MSG_NOSIGNAL);
        if (n > 0) {
            metrics.bytesTx.add(static_cast<std::uint64_t>(n));
            conn.outPos += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            popMarkers(conn);
            if (!conn.wantWrite) {
                conn.wantWrite = true;
                updateEpoll(loop, conn);
            }
            return;
        }
        if (n < 0 && errno == EINTR)
            continue;
        conn.closing = true; // peer vanished
        return;
    }
    popMarkers(conn);
    conn.out.clear();
    conn.outPos = 0;
    conn.markers.clear();
    if (conn.wantWrite) {
        conn.wantWrite = false;
        updateEpoll(loop, conn);
    }
}

void
NetServer::loopMain(Loop &loop)
{
    constexpr int kMaxEvents = 128;
    /** Idle wake-up bound so the liveness heartbeat keeps beating. */
    constexpr int kHeartbeatTickMs = 200;
    epoll_event events[kMaxEvents];
    std::vector<PendingOp> pending;

    while (true) {
        loop.lastBeatNs.store(obs::Tracer::now(),
                              std::memory_order_relaxed);
        if (const std::uint64_t wedge =
                loop.wedgeMs.exchange(0, std::memory_order_relaxed))
            std::this_thread::sleep_for(
                std::chrono::milliseconds(wedge));
        // Never block longer than the heartbeat tick; tighter still
        // when acks are parked awaiting an epoch seal, so the delay
        // trigger fires on time.
        int timeout_ms = kHeartbeatTickMs;
        for (auto &[fd, conn] : loop.conns) {
            if (!conn->deferred.empty()) {
                timeout_ms = static_cast<int>(std::min<std::uint64_t>(
                    kHeartbeatTickMs,
                    std::max<std::uint64_t>(
                        1, config_.epochMaxDelayUs / 1000)));
                break;
            }
        }
        const int n = ::epoll_wait(loop.epollFd, events, kMaxEvents,
                                   timeout_ms);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (n == 0)
            sealOverdueEpochs(loop);
        pending.clear();
        bool stop_seen = false;
        for (int i = 0; i < n; ++i) {
            const int fd = events[i].data.fd;
            if (fd == loop.wakeFd) {
                std::uint64_t drain;
                while (::read(loop.wakeFd, &drain, sizeof(drain)) > 0)
                    ;
                if (stopping_.load())
                    stop_seen = true;
                std::vector<std::unique_ptr<Conn>> adopted;
                {
                    std::lock_guard<std::mutex> guard(
                        loop.mailboxMutex);
                    adopted.swap(loop.mailbox);
                }
                for (auto &conn : adopted)
                    adoptConn(loop, std::move(conn));
                continue;
            }
            if (fd == listenFd_ && loop.index == 0) {
                acceptReady(loop);
                continue;
            }
            const auto it = loop.conns.find(fd);
            if (it == loop.conns.end())
                continue;
            Conn &conn = *it->second;
            if (events[i].events & (EPOLLHUP | EPOLLERR)) {
                conn.closing = true;
                continue;
            }
            if (events[i].events & EPOLLIN)
                connReadable(loop, conn, pending);
            if ((events[i].events & EPOLLOUT) && !conn.closing)
                flushConn(loop, conn);
        }

        // The drain cycle: every decoded request of this wake-up is
        // executed now (group commit), then responses flush in one
        // batch per connection.
        executePending(loop, pending);
        std::vector<int> to_close;
        std::vector<int> to_migrate;
        const std::uint64_t sweepNs = obs::Tracer::now();
        for (auto &[fd, conn] : loop.conns) {
            releaseDeferred(*conn);
            if (!conn->out.empty() && !conn->wantWrite)
                flushConn(loop, *conn);
            // Idle-timeout sweep: only truly quiet connections — no
            // unsent response bytes, no acks parked for a seal — are
            // evicted, so a slow reader is a write stall, not "idle".
            if (config_.idleTimeoutMs != 0 && !conn->closing &&
                conn->out.empty() && conn->deferred.empty() &&
                conn->lastActivityNs != 0 &&
                sweepNs > conn->lastActivityNs &&
                sweepNs - conn->lastActivityNs >
                    config_.idleTimeoutMs * 1000000ull) {
                conn->closing = true;
                NetMetrics::get().evictedIdle.add();
            }
            if (conn->closing)
                to_close.push_back(fd);
            else if (conn->migrateTo >= 0)
                to_migrate.push_back(fd);
        }
        for (const int fd : to_close) {
            const auto it = loop.conns.find(fd);
            if (it != loop.conns.end())
                closeConn(loop, *it->second);
        }
        for (const int fd : to_migrate) {
            const auto it = loop.conns.find(fd);
            if (it == loop.conns.end())
                continue;
            std::unique_ptr<Conn> conn = std::move(it->second);
            loop.conns.erase(it);
            ::epoll_ctl(loop.epollFd, EPOLL_CTL_DEL, conn->fd,
                        nullptr);
            const unsigned target =
                static_cast<unsigned>(conn->migrateTo);
            NetMetrics::get().migrations.add();
            mailConn(target, std::move(conn));
        }
        if (stop_seen)
            break;
    }

    // Teardown: close every connection this loop still owns, plus
    // any late mailbox arrivals (stop() already joined the senders).
    std::vector<std::unique_ptr<Conn>> late;
    {
        std::lock_guard<std::mutex> guard(loop.mailboxMutex);
        late.swap(loop.mailbox);
    }
    for (auto &conn : late) {
        ::close(conn->fd);
        NetMetrics::get().connsClosed.add();
    }
    for (auto &[fd, conn] : loop.conns) {
        ::close(fd);
        NetMetrics::get().connsClosed.add();
    }
    loop.conns.clear();
    ::close(loop.epollFd);
    ::close(loop.wakeFd);
}

std::vector<obs::ShardHealth>
NetServer::healthReport() const
{
    std::vector<obs::ShardHealth> report;
    std::lock_guard<std::mutex> lifecycle(lifecycleMutex_);
    if (!running_.load())
        return report;
    const std::uint64_t nowNs = obs::Tracer::now();
    report.reserve(loops_.size());
    for (const auto &loop : loops_) {
        obs::ShardHealth health;
        health.shard = loop->index;
        const std::uint64_t beat =
            loop->lastBeatNs.load(std::memory_order_relaxed);
        health.heartbeatAgeUs =
            nowNs > beat ? (nowNs - beat) / 1000 : 0;
        health.sealLag = service_.shardEpochLag(loop->index);
        health.live =
            health.heartbeatAgeUs < config_.stallThresholdMs * 1000;
        health.readOnly = service_.shardReadOnly(loop->index);
        health.degraded = service_.shardDegraded(loop->index);
        health.quarantined = service_.shardQuarantined(loop->index);
        health.mediaAborts = service_.shardMediaAborts(loop->index);
        report.push_back(health);
    }
    return report;
}

void
NetServer::debugWedgeLoop(unsigned index, std::uint64_t ms)
{
    std::lock_guard<std::mutex> lifecycle(lifecycleMutex_);
    if (!running_.load() || index >= loops_.size())
        return;
    loops_[index]->wedgeMs.store(ms, std::memory_order_relaxed);
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto n =
        ::write(loops_[index]->wakeFd, &one, sizeof(one));
}

} // namespace specpmt::net
