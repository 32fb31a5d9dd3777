#include "net/loadgen.hh"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.hh"
#include "net/client.hh"
#include "net/protocol.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace specpmt::net
{

namespace
{

/** Items per load-phase BATCH frame (well under kMaxBatchEntries). */
constexpr std::size_t kLoadBatch = 64;

std::uint64_t
steadyNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

struct LoadgenMetrics
{
    obs::Counter &scheduled;
    obs::Counter &sent;
    obs::Counter &acked;
    obs::Counter &errors;
    obs::Counter &notFound;
    obs::Counter &lost;
    obs::Counter &protocolErrors;
    obs::Counter &tracedSent;
    obs::Counter &timeouts;
    obs::Counter &retries;
    obs::Counter &reconnects;
    obs::Counter &busyResponses;
    obs::Histogram &readLatency;
    obs::Histogram &updateLatency;
    obs::Histogram &sendLag;

    static LoadgenMetrics &
    instance()
    {
        auto &reg = obs::Registry::global();
        static LoadgenMetrics metrics{
            reg.counter("specpmt_loadgen_scheduled_total",
                        "requests scheduled on the arrival timeline"),
            reg.counter("specpmt_loadgen_sent_total",
                        "requests written to a socket"),
            reg.counter("specpmt_loadgen_acked_total",
                        "responses matched to requests"),
            reg.counter("specpmt_loadgen_errors_total",
                        "Err responses received"),
            reg.counter("specpmt_loadgen_not_found_total",
                        "Get misses"),
            reg.counter("specpmt_loadgen_lost_total",
                        "requests unanswered at run end"),
            reg.counter("specpmt_loadgen_protocol_errors_total",
                        "malformed response frames"),
            reg.counter("specpmt_loadgen_traced_sent_total",
                        "requests sent with the trace extension"),
            reg.counter("specpmt_loadgen_timeouts_total",
                        "attempts whose deadline expired unanswered"),
            reg.counter("specpmt_loadgen_retries_total",
                        "byte-identical resends (timeout or Busy)"),
            reg.counter("specpmt_loadgen_reconnects_total",
                        "successful re-dials of a dead connection"),
            reg.counter("specpmt_loadgen_busy_total",
                        "Busy (overload-shed) responses received"),
            reg.histogram("specpmt_loadgen_read_latency_ns",
                          "read latency from intended departure"),
            reg.histogram("specpmt_loadgen_update_latency_ns",
                          "update latency from intended departure"),
            reg.histogram(
                "specpmt_loadgen_send_lag_ns",
                "actual minus intended departure time"),
        };
        return metrics;
    }
};

/** One shard-bound connection. */
struct Conn
{
    int fd = -1;
    FrameDecoder decoder;
    std::vector<std::uint8_t> out;
    std::size_t outPos = 0;
    bool dead = false;
    /** Next re-dial attempt, absolute steady ns (0 = unscheduled). */
    std::uint64_t reconnectAtNs = 0;
    /** Consecutive failed re-dials (backoff exponent). */
    std::uint32_t reconnectAttempts = 0;
};

/** What we remember about an in-flight request. */
struct Outstanding
{
    /** Intended departure, ns from timeline origin (load phase: 0). */
    std::uint64_t intendedNs = 0;
    enum class Kind : std::uint8_t
    {
        Read,
        Update,
        Load, ///< load-phase batch: no latency sample
    } kind = Kind::Read;
    /** Trace id the request carried (0 = untraced). */
    std::uint64_t traceId = 0;
    /** Absolute steady ns of the socket enqueue (client_rtt base). */
    std::uint64_t sentNs = 0;
    /** Durability obligations this request carries if acked. */
    std::vector<std::pair<kv::KvKey, std::uint64_t>> writes;
    /** Shard (connection index) the request is routed to. */
    std::uint32_t shard = 0;
    /** Attempts so far (1 = the original send). */
    std::uint32_t attempts = 1;
    /** Active deadline, absolute steady ns (0 = none pending). */
    std::uint64_t deadlineAbs = 0;
    /** The encoded frame, kept for byte-identical resends (empty
     * when retries are disabled). */
    std::vector<std::uint8_t> frame;
};

class OpenLoopRun
{
  public:
    explicit OpenLoopRun(const LoadgenConfig &config)
        : cfg_(config)
    {
    }

    LoadgenResult
    run()
    {
        if (!connectAll())
            return std::move(res_);
        if (cfg_.loadFirst && !loadKeyspace()) {
            closeAll();
            return std::move(res_);
        }
        timedRun();
        closeAll();
        publishMetrics();
        return std::move(res_);
    }

  private:
    bool
    abort(std::string why)
    {
        res_.aborted = true;
        res_.error = std::move(why);
        closeAll();
        return false;
    }

    void
    closeAll()
    {
        for (auto &conn : conns_) {
            if (conn.fd >= 0)
                ::close(conn.fd);
            conn.fd = -1;
        }
    }

    /**
     * A connection bound to @p shard, handed over non-blocking; -1 if
     * the dial, the HELLO or the binding failed. The handshake is
     * bounded by the client's timeouts: a server that accepts but
     * never answers (e.g. SIGSTOPped under chaos) must not wedge the
     * run; the re-dial path retries with backoff.
     */
    int
    dial(std::uint32_t shard)
    {
        BlockingClient client;
        std::string error;
        std::uint32_t shards = 0;
        std::uint32_t bound = 0;
        if (!client.connect(cfg_.host, cfg_.port, error) ||
            !client.hello(shard, shards, bound, error) || bound != shard)
            return -1;
        return client.releaseNonBlocking();
    }

    bool
    connectAll()
    {
        // Probe with a wildcard HELLO to learn the shard count, then
        // open one shard-bound connection per shard.
        std::uint32_t shards = 0;
        {
            BlockingClient probe;
            std::string error;
            std::uint32_t bound = 0;
            if (!probe.connect(cfg_.host, cfg_.port, error) ||
                !probe.hello(kAnyShard, shards, bound, error))
                return abort("connect/handshake with " + cfg_.host +
                             ":" + std::to_string(cfg_.port) +
                             " failed: " + error);
        }
        if (shards == 0)
            return abort("server reported zero shards");
        shards_ = shards;
        conns_.resize(shards_);
        for (std::uint32_t s = 0; s < shards_; ++s) {
            conns_[s].fd = dial(s);
            if (conns_[s].fd < 0)
                return abort("binding a connection to shard " +
                             std::to_string(s) + " failed");
        }
        return true;
    }

    /**
     * Flush pending output and drain readable responses once; returns
     * false when every connection is dead.
     */
    bool
    pump(int timeout_ms)
    {
        const std::uint64_t now = steadyNs();
        if (cfg_.reconnect)
            serviceReconnects(now);
        serviceDeadlines(now);
        serviceRetries(now);
        std::vector<pollfd> fds;
        std::vector<unsigned> index;
        fds.reserve(conns_.size());
        for (unsigned i = 0; i < conns_.size(); ++i) {
            auto &conn = conns_[i];
            if (conn.dead)
                continue;
            flush(conn);
            short events = POLLIN;
            if (conn.outPos < conn.out.size())
                events |= POLLOUT;
            fds.push_back(pollfd{conn.fd, events, 0});
            index.push_back(i);
        }
        if (fds.empty()) {
            if (!cfg_.reconnect)
                return false;
            // Everything is down but re-dials are pending: sleep a
            // slice so the backoff clock advances without spinning.
            ::poll(nullptr, 0, std::max(1, std::min(timeout_ms, 50)));
            return true;
        }
        const int ready =
            ::poll(fds.data(), fds.size(), timeout_ms);
        if (ready <= 0)
            return true;
        for (std::size_t i = 0; i < fds.size(); ++i) {
            auto &conn = conns_[index[i]];
            if (fds[i].revents & (POLLERR | POLLHUP))
                conn.dead = true;
            if (conn.dead)
                continue;
            if (fds[i].revents & POLLOUT)
                flush(conn);
            if (fds[i].revents & POLLIN)
                readReady(conn);
        }
        return cfg_.reconnect ||
               std::any_of(conns_.begin(), conns_.end(),
                           [](const Conn &c) { return !c.dead; });
    }

    /** Seeded, capped exponential backoff with 50–100% jitter so
     * concurrent clients decorrelate instead of re-stampeding. */
    std::uint64_t
    backoffNs(std::uint32_t attempts)
    {
        const std::uint64_t baseNs =
            std::max<std::uint64_t>(1, cfg_.backoffBaseMs) * 1000000;
        const std::uint64_t capNs =
            std::max(baseNs, cfg_.backoffMaxMs * 1000000);
        const std::uint64_t d = std::min(
            capNs, baseNs << std::min<std::uint32_t>(attempts, 16));
        return d / 2 +
               static_cast<std::uint64_t>(
                   static_cast<double>(d / 2) * jitterRng_.uniform());
    }

    /**
     * A request may be resent iff attempts remain AND (for writes)
     * it is still the newest write of every key it touches: the
     * byte-identical resend is then an idempotent overwrite, never a
     * rollback of a newer acked PUT.
     */
    bool
    canRetry(const Outstanding &op, std::uint64_t id) const
    {
        if (op.attempts > cfg_.maxRetries || op.frame.empty())
            return false;
        for (const auto &[key, payload] : op.writes) {
            const auto newest = newestWrite_.find(key);
            if (newest == newestWrite_.end() || newest->second != id)
                return false;
        }
        return true;
    }

    /** Give up on an in-flight request whose durability is unknown:
     * its writes become recovery obligations (unackedPuts). */
    void
    abandonUnknown(
        std::unordered_map<std::uint64_t, Outstanding>::iterator it)
    {
        lateIds_.insert(it->first);
        for (const auto &[key, payload] : it->second.writes)
            res_.unackedPuts[key].push_back(payload);
        ++res_.lost;
        outstanding_.erase(it);
    }

    void
    serviceDeadlines(std::uint64_t now)
    {
        while (!deadlines_.empty() && deadlines_.front().first <= now) {
            const auto [deadline, id] = deadlines_.front();
            deadlines_.pop_front();
            const auto it = outstanding_.find(id);
            // Answered already, or the deadline was superseded by a
            // resend / parked behind a scheduled retry.
            if (it == outstanding_.end() ||
                it->second.deadlineAbs != deadline)
                continue;
            ++res_.timeouts;
            if (canRetry(it->second, id)) {
                it->second.deadlineAbs = 0;
                retryQueue_.push_back(
                    {now + backoffNs(it->second.attempts), id});
            } else {
                abandonUnknown(it);
            }
        }
    }

    void
    serviceRetries(std::uint64_t now)
    {
        std::vector<std::uint64_t> due;
        for (std::size_t i = 0; i < retryQueue_.size();) {
            if (retryQueue_[i].first <= now) {
                due.push_back(retryQueue_[i].second);
                retryQueue_[i] = retryQueue_.back();
                retryQueue_.pop_back();
            } else {
                ++i;
            }
        }
        for (const std::uint64_t id : due)
            resendNow(id, now);
    }

    /** Byte-identical resend under the same request id. */
    void
    resendNow(std::uint64_t id, std::uint64_t now)
    {
        const auto it = outstanding_.find(id);
        if (it == outstanding_.end())
            return;
        Outstanding &op = it->second;
        // Checked again at send time: a newer write of one of its
        // keys may have been issued during the backoff, and this copy
        // would land after it on the connection and roll it back.
        if (!canRetry(op, id)) {
            abandonUnknown(it);
            return;
        }
        Conn &conn = conns_[op.shard];
        if (conn.dead) {
            if (cfg_.reconnect) {
                // Park the retry until the re-dial lands.
                retryQueue_.push_back(
                    {now + backoffNs(op.attempts), id});
            } else {
                abandonUnknown(it);
            }
            return;
        }
        conn.out.insert(conn.out.end(), op.frame.begin(),
                        op.frame.end());
        ++op.attempts;
        ++res_.retries;
        op.deadlineAbs =
            cfg_.requestTimeoutMs != 0
                ? now + cfg_.requestTimeoutMs * 1000000
                : 0;
        if (op.deadlineAbs != 0)
            deadlines_.push_back({op.deadlineAbs, id});
    }

    void
    serviceReconnects(std::uint64_t now)
    {
        for (std::uint32_t s = 0; s < conns_.size(); ++s) {
            Conn &conn = conns_[s];
            if (!conn.dead)
                continue;
            res_.connectionLost = true;
            if (conn.fd >= 0) {
                ::close(conn.fd);
                conn.fd = -1;
            }
            if (conn.reconnectAtNs == 0) {
                conn.reconnectAtNs =
                    now + backoffNs(conn.reconnectAttempts);
                continue;
            }
            if (now < conn.reconnectAtNs)
                continue;
            const int fd = dial(s);
            if (fd < 0) {
                ++conn.reconnectAttempts;
                conn.reconnectAtNs =
                    now + backoffNs(conn.reconnectAttempts);
                continue;
            }
            // Unsent output dies with the old socket (a partial frame
            // may already be on the wire — resuming mid-frame would
            // poison the stream); in-flight requests resolve via the
            // deadline/retry path.
            conn.fd = fd;
            conn.decoder = FrameDecoder();
            conn.out.clear();
            conn.outPos = 0;
            conn.dead = false;
            conn.reconnectAtNs = 0;
            conn.reconnectAttempts = 0;
            ++res_.reconnects;
        }
    }

    void
    flush(Conn &conn)
    {
        while (conn.outPos < conn.out.size()) {
            const ssize_t n =
                ::send(conn.fd, conn.out.data() + conn.outPos,
                       conn.out.size() - conn.outPos, MSG_NOSIGNAL);
            if (n > 0) {
                conn.outPos += static_cast<std::size_t>(n);
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                return;
            conn.dead = true;
            return;
        }
        conn.out.clear();
        conn.outPos = 0;
    }

    void
    readReady(Conn &conn)
    {
        std::uint8_t buf[64 * 1024];
        for (;;) {
            const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
            if (n > 0) {
                conn.decoder.feed(buf, static_cast<std::size_t>(n));
                if (static_cast<std::size_t>(n) < sizeof(buf))
                    break;
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                break;
            conn.dead = true;
            break;
        }
        Frame frame;
        std::string error;
        for (;;) {
            const auto status = conn.decoder.next(frame, error);
            if (status == FrameDecoder::Status::NeedMore)
                break;
            if (status == FrameDecoder::Status::Error) {
                ++res_.protocolErrors;
                conn.dead = true;
                break;
            }
            handleResponse(frame);
        }
    }

    void
    handleResponse(const Frame &frame)
    {
        const auto it = outstanding_.find(frame.id);
        if (it == outstanding_.end()) {
            // Late/duplicate answer to a request we retried or gave
            // up on — expected under chaos, not a protocol violation.
            if (lateIds_.count(frame.id))
                return;
            ++res_.protocolErrors;
            return;
        }
        if (frame.op == Op::Busy) {
            // Overload shed: the server executed nothing. Retry after
            // backoff while attempts remain; else the request failed
            // definitively (no durability ambiguity).
            ++res_.busyResponses;
            Outstanding &op = it->second;
            if (canRetry(op, frame.id)) {
                op.deadlineAbs = 0;
                retryQueue_.push_back(
                    {steadyNs() + backoffNs(op.attempts), frame.id});
            } else {
                ++res_.errors;
                lateIds_.insert(frame.id);
                outstanding_.erase(it);
            }
            return;
        }
        const Outstanding op = std::move(it->second);
        outstanding_.erase(it);
        // A retried request may be acked more than once (the retry
        // was spurious); remember the id so duplicates are ignored.
        if (op.attempts > 1)
            lateIds_.insert(frame.id);

        bool ok = false;
        switch (frame.op) {
        case Op::Value:
        case Op::Ok:
            ok = true;
            break;
        case Op::NotFound:
            ok = true;
            ++res_.notFound;
            break;
        case Op::Err:
            ++res_.errors;
            break;
        default:
            ++res_.protocolErrors;
            return;
        }
        if (!ok)
            return;
        for (const auto &[key, payload] : op.writes) {
            res_.ackedPuts[key] = payload;
            res_.ackedPutHistory[key].push_back(payload);
        }
        // Load-phase batches are plumbing, not measured traffic.
        if (op.kind == Outstanding::Kind::Load)
            return;
        ++res_.acked;
        const std::uint64_t now = steadyNs();
        if (op.traceId != 0 && obs::Tracer::global().enabled())
            obs::Tracer::global().record("client_rtt", "client",
                                         op.sentNs, now, op.traceId);
        const std::uint64_t intendedAbs = origin_ + op.intendedNs;
        const std::uint64_t latency =
            now > intendedAbs ? now - intendedAbs : 0;
        if (op.kind == Outstanding::Kind::Read)
            res_.readLatency.record(latency);
        else
            res_.updateLatency.record(latency);
    }

    bool
    loadKeyspace()
    {
        // Shard-grouped BATCH frames so each frame is one same-shard
        // run (one commit fence) on the server.
        std::vector<std::vector<kv::KvKey>> byShard(shards_);
        for (kv::KvKey key = 1; key <= cfg_.workload.keys; ++key)
            byShard[kv::shardOfKey(key, shards_)].push_back(key);
        for (std::uint32_t s = 0; s < shards_; ++s) {
            const auto &keys = byShard[s];
            for (std::size_t off = 0; off < keys.size();
                 off += kLoadBatch) {
                const std::size_t n =
                    std::min(kLoadBatch, keys.size() - off);
                std::vector<std::pair<kv::KvKey, kv::KvValue>> items;
                items.reserve(n);
                Outstanding op;
                op.kind = Outstanding::Kind::Load;
                op.shard = s;
                for (std::size_t i = 0; i < n; ++i) {
                    const kv::KvKey key = keys[off + i];
                    items.emplace_back(key,
                                       kv::KvValue::tagged(key, 0));
                    op.writes.emplace_back(key, 0);
                }
                const std::uint64_t id = ++nextId_;
                scratch_.clear();
                appendBatch(scratch_, id, items);
                conns_[s].out.insert(conns_[s].out.end(),
                                     scratch_.begin(), scratch_.end());
                // Load batches keep their own phase-level deadline
                // (below) but are Busy-retryable like timed traffic.
                if (cfg_.maxRetries > 0) {
                    op.frame = scratch_;
                    for (const auto &[key, payload] : op.writes)
                        newestWrite_[key] = id;
                }
                outstanding_.emplace(id, std::move(op));
            }
        }
        // Pump until every load batch is acked.
        const std::uint64_t deadline =
            steadyNs() + 60ull * 1000 * 1000 * 1000;
        while (!outstanding_.empty()) {
            if (steadyNs() > deadline)
                return abort("keyspace load timed out");
            if (!pump(100))
                return abort("connections died during keyspace load");
        }
        return true;
    }

    void
    timedRun()
    {
        // Fix the entire arrival timeline up front: intended
        // departure offsets in ns from the origin.
        const std::uint64_t total = static_cast<std::uint64_t>(
            std::llround(cfg_.targetQps * cfg_.seconds));
        std::vector<std::uint64_t> intended;
        intended.reserve(total);
        const double meanGapNs = 1e9 / cfg_.targetQps;
        Rng arrivals(cfg_.seed ^ 0xA441A441A441A441ull);
        double t = 0.0;
        for (std::uint64_t i = 0; i < total; ++i) {
            if (cfg_.arrival == Arrival::Fixed) {
                intended.push_back(static_cast<std::uint64_t>(
                    static_cast<double>(i) * meanGapNs));
            } else {
                t += -meanGapNs *
                     std::log1p(-arrivals.uniform());
                intended.push_back(
                    static_cast<std::uint64_t>(t));
            }
        }

        kv::OpGenerator gen(
            cfg_.workload,
            zipf_ ? zipf_.get() : buildZipf(),
            kv::OpGenerator::workerSeed(cfg_.seed, 0));

        origin_ = steadyNs();
        const std::uint64_t timelineEndAbs =
            origin_ +
            (total ? intended.back() : 0) +
            static_cast<std::uint64_t>(cfg_.drainSeconds * 1e9);

        std::uint64_t nextOp = 0;
        bool alive = true;
        while (alive && (nextOp < total || !outstanding_.empty())) {
            const std::uint64_t now = steadyNs();
            if (now > timelineEndAbs)
                break;
            // Departures whose intended time has arrived leave NOW,
            // regardless of outstanding responses (open loop).
            while (nextOp < total &&
                   origin_ + intended[nextOp] <= now) {
                enqueue(gen.next(), intended[nextOp], now);
                ++nextOp;
            }
            int timeout_ms = 100;
            if (nextOp < total) {
                const std::uint64_t at = origin_ + intended[nextOp];
                timeout_ms =
                    at <= now
                        ? 0
                        : static_cast<int>(std::min<std::uint64_t>(
                              (at - now) / 1000000, 100));
            }
            alive = pump(timeout_ms);
        }

        res_.scheduled = total;
        res_.lost += outstanding_.size();
        for (const auto &[id, op] : outstanding_) {
            for (const auto &[key, payload] : op.writes)
                res_.unackedPuts[key].push_back(payload);
        }
        res_.connectionLost =
            res_.connectionLost ||
            std::any_of(conns_.begin(), conns_.end(),
                        [](const Conn &c) { return c.dead; });
        outstanding_.clear();
        res_.wallSeconds =
            static_cast<double>(steadyNs() - origin_) / 1e9;
        res_.achievedQps =
            res_.wallSeconds > 0
                ? static_cast<double>(res_.acked) / res_.wallSeconds
                : 0.0;
    }

    void
    enqueue(kv::WorkloadOp op, std::uint64_t intendedNs,
            std::uint64_t now)
    {
        const std::uint64_t id = ++nextId_;
        Outstanding record;
        record.intendedNs = intendedNs;
        record.sentNs = now;
        TraceExt ext;
        const TraceExt *extp =
            drawTraceExt(ext) ? &ext : nullptr;
        record.traceId = extp ? ext.traceId : 0;
        scratch_.clear();
        switch (op.kind) {
        case kv::WorkloadOp::Kind::Get:
            record.kind = Outstanding::Kind::Read;
            record.shard = kv::shardOfKey(op.key, shards_);
            appendGet(scratch_, id, op.key, extp);
            break;
        case kv::WorkloadOp::Kind::Put:
            record.kind = Outstanding::Kind::Update;
            record.shard = kv::shardOfKey(op.key, shards_);
            record.writes.emplace_back(op.key, op.value.words[1]);
            appendPut(scratch_, id, op.key, op.value,
                      drawStrictFlag(), extp);
            break;
        case kv::WorkloadOp::Kind::MultiPut: {
            record.kind = Outstanding::Kind::Update;
            for (const auto &[key, value] : op.batch)
                record.writes.emplace_back(key, value.words[1]);
            // A batch frame lands on one connection; misrouted
            // members split the server-side run (correct, just more
            // fences), so route by the first key's shard.
            record.shard =
                kv::shardOfKey(op.batch.front().first, shards_);
            appendBatch(scratch_, id, op.batch, drawStrictFlag(),
                        extp);
            break;
        }
        }
        Conn &conn = conns_[record.shard];
        conn.out.insert(conn.out.end(), scratch_.begin(),
                        scratch_.end());
        if (cfg_.maxRetries > 0) {
            record.frame = scratch_;
            for (const auto &[key, payload] : record.writes)
                newestWrite_[key] = id;
        }
        if (cfg_.requestTimeoutMs != 0) {
            record.deadlineAbs =
                now + cfg_.requestTimeoutMs * 1000000;
            deadlines_.push_back({record.deadlineAbs, id});
        }
        const std::uint64_t intendedAbs = origin_ + intendedNs;
        // client_send spans the departure delay: intended departure
        // to the socket enqueue (the open-loop send lag).
        if (record.traceId != 0 && obs::Tracer::global().enabled())
            obs::Tracer::global().record(
                "client_send", "client",
                std::min(intendedAbs, now), now, record.traceId);
        outstanding_.emplace(id, std::move(record));
        ++res_.sent;
        res_.sendLag.record(now > intendedAbs ? now - intendedAbs
                                              : 0);
    }

    /** kFlagStrict for a seeded strictFraction of mutation frames. */
    std::uint8_t
    drawStrictFlag()
    {
        if (cfg_.strictFraction <= 0.0)
            return 0;
        if (cfg_.strictFraction < 1.0 &&
            strictRng_.uniform() >= cfg_.strictFraction)
            return 0;
        ++res_.strictSent;
        return kFlagStrict;
    }

    /**
     * Trace extension for a seeded traceSample of requests; fills
     * @p ext and returns true when this request is traced.
     */
    bool
    drawTraceExt(TraceExt &ext)
    {
        if (cfg_.traceSample <= 0.0)
            return false;
        if (cfg_.traceSample < 1.0 &&
            traceRng_.uniform() >= cfg_.traceSample)
            return false;
        ext.traceId = traceRng_.next() | 1; // 0 means untraced
        ext.sampled = true;
        ++res_.tracedSent;
        return true;
    }

    const kv::ZipfianGenerator *
    buildZipf()
    {
        if (cfg_.workload.dist != kv::KeyDist::Zipfian)
            return nullptr;
        zipf_ = std::make_unique<kv::ZipfianGenerator>(
            cfg_.workload.keys, cfg_.workload.zipfTheta);
        return zipf_.get();
    }

    void
    publishMetrics()
    {
        auto &metrics = LoadgenMetrics::instance();
        metrics.scheduled.add(res_.scheduled);
        metrics.sent.add(res_.sent);
        metrics.acked.add(res_.acked);
        metrics.errors.add(res_.errors);
        metrics.notFound.add(res_.notFound);
        metrics.lost.add(res_.lost);
        metrics.protocolErrors.add(res_.protocolErrors);
        metrics.tracedSent.add(res_.tracedSent);
        metrics.timeouts.add(res_.timeouts);
        metrics.retries.add(res_.retries);
        metrics.reconnects.add(res_.reconnects);
        metrics.busyResponses.add(res_.busyResponses);
        metrics.readLatency.mergeFrom(res_.readLatency);
        metrics.updateLatency.mergeFrom(res_.updateLatency);
        metrics.sendLag.mergeFrom(res_.sendLag);
    }

    LoadgenConfig cfg_;
    LoadgenResult res_;
    std::vector<Conn> conns_;
    std::uint32_t shards_ = 0;
    std::uint64_t nextId_ = 0;
    std::uint64_t origin_ = 0;
    std::unordered_map<std::uint64_t, Outstanding> outstanding_;
    std::unique_ptr<kv::ZipfianGenerator> zipf_;
    /** Frame-encoding scratch (reused per request). */
    std::vector<std::uint8_t> scratch_;
    /** (deadlineAbs, id) in send order — deadlines are monotonic. */
    std::deque<std::pair<std::uint64_t, std::uint64_t>> deadlines_;
    /** (dueAbs, id) of scheduled resends (unordered, scanned). */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> retryQueue_;
    /** Ids whose late/duplicate responses must be ignored. */
    std::unordered_set<std::uint64_t> lateIds_;
    /** Key -> id of the newest write touching it (retry guard). */
    std::unordered_map<kv::KvKey, std::uint64_t> newestWrite_;
    Rng strictRng_{cfg_.seed ^ 0x57121C7F1A6ull};
    Rng traceRng_{cfg_.seed ^ 0x712ACE5A3B1Dull};
    Rng jitterRng_{cfg_.seed ^ 0xBACC0FF5EEDull};
};

} // namespace

const char *
arrivalName(Arrival arrival)
{
    switch (arrival) {
    case Arrival::Fixed:
        return "fixed";
    case Arrival::Poisson:
        return "poisson";
    }
    return "?";
}

std::optional<Arrival>
parseArrival(std::string_view name)
{
    for (const Arrival arrival : {Arrival::Fixed, Arrival::Poisson}) {
        if (name == arrivalName(arrival))
            return arrival;
    }
    return std::nullopt;
}

LoadgenResult
runOpenLoop(const LoadgenConfig &config)
{
    SPECPMT_ASSERT(config.targetQps > 0);
    OpenLoopRun run(config);
    return run.run();
}

} // namespace specpmt::net
