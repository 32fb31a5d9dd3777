/**
 * @file
 * End-to-end tests of the networked front end over loopback: wire
 * correctness, pipelined read-your-writes, group-commit fence
 * amortization (a pipelined batch of N mutations commits in far
 * fewer than N fences), and the durability contract under a crash
 * mid-load — every PUT the open-loop client saw acked must survive
 * power failure, recovery, and an independent forensic audit of the
 * post-crash images — plus net::BlockingClient's bounded handshake.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "forensic/inspector.hh"
#include "obs/metrics.hh"
#include "forensic/recovery_audit.hh"
#include "kv/kv_service.hh"
#include "net/client.hh"
#include "net/loadgen.hh"
#include "net/protocol.hh"
#include "net/server.hh"
#include "obs/trace.hh"
#include "pmem/crash_policy.hh"
#include "pmem/image_io.hh"

namespace specpmt::net
{
namespace
{

kv::KvServiceConfig
serviceConfig(unsigned shards)
{
    kv::KvServiceConfig config;
    config.shards = shards;
    config.threads = shards; // loop i transacts as thread id i
    config.runtime = "spec";
    config.bucketsPerShard = 4096;
    return config;
}

/**
 * Connect @p client to the loopback server on @p port and HELLO
 * @p shard; returns the bound shard (a failure fails the test).
 */
std::uint32_t
dial(BlockingClient &client, std::uint16_t port, std::uint32_t shard,
     int timeoutMs = BlockingClient::kDefaultTimeoutMs)
{
    std::string error;
    std::uint32_t shards = 0;
    std::uint32_t bound = 0;
    EXPECT_TRUE(client.connect("127.0.0.1", port, error, timeoutMs) &&
                client.hello(shard, shards, bound, error))
        << error;
    return bound;
}

void
sendBytes(BlockingClient &client, const std::vector<std::uint8_t> &bytes)
{
    std::string error;
    ASSERT_TRUE(client.sendAll(bytes, error)) << error;
}

/** Read until @p count frames decoded (or the peer closes). */
std::vector<Frame>
readFrames(BlockingClient &client, std::size_t count)
{
    std::vector<Frame> frames;
    Frame frame;
    std::string error;
    while (frames.size() < count && client.recvFrame(frame, error))
        frames.push_back(frame);
    EXPECT_FALSE(client.protocolError()) << error;
    return frames;
}

TEST(NetLoopback, WireOpsAndPipelinedReadYourWrites)
{
    kv::KvService service(serviceConfig(2));
    NetServer server(service, ServerConfig{});
    server.start();

    BlockingClient client;
    dial(client, server.port(), kAnyShard);

    // One pipelined burst: PUT k, GET k (must see the PUT), DEL k,
    // GET k (must miss), DEL k (must miss) — answered in order.
    const kv::KvKey key = 1234;
    const auto value = kv::KvValue::tagged(key, 99);
    std::vector<std::uint8_t> out;
    appendPut(out, 10, key, value);
    appendGet(out, 11, key);
    appendDel(out, 12, key);
    appendGet(out, 13, key);
    appendDel(out, 14, key);
    sendBytes(client, out);

    const auto frames = readFrames(client, 5);
    ASSERT_EQ(frames.size(), 5u);
    EXPECT_EQ(frames[0].op, Op::Ok);
    EXPECT_EQ(frames[0].id, 10u);
    ASSERT_EQ(frames[1].op, Op::Value);
    kv::KvValue got;
    ASSERT_TRUE(parseValue(frames[1], got));
    EXPECT_EQ(got, value);
    EXPECT_EQ(frames[2].op, Op::Ok);
    EXPECT_EQ(frames[3].op, Op::NotFound);
    EXPECT_EQ(frames[4].op, Op::NotFound);

    server.stop();
    service.shutdown();
}

TEST(NetLoopback, MalformedBytesCloseTheConnection)
{
    kv::KvService service(serviceConfig(1));
    NetServer server(service, ServerConfig{});
    server.start();

    BlockingClient client;
    dial(client, server.port(), 0);

    // A corrupted frame (CRC broken) must produce a best-effort Err
    // and then EOF — never a crash, never silent resync.
    std::vector<std::uint8_t> out;
    appendGet(out, 5, 1);
    out.back() ^= 0xFF;
    sendBytes(client, out);
    const auto frames = readFrames(client, 2);
    ASSERT_GE(frames.size(), 1u);
    EXPECT_EQ(frames[0].op, Op::Err);
    // The stream ends after the Err (readFrames returned short).
    EXPECT_LE(frames.size(), 1u);

    server.stop();
    service.shutdown();
}

TEST(NetLoopback, GroupCommitAmortizesFences)
{
    kv::KvService service(serviceConfig(1));
    NetServer server(service, ServerConfig{});
    server.start();

    BlockingClient client;
    ASSERT_EQ(dial(client, server.port(), 0), 0u);

    const std::uint64_t before =
        service.shardSnapshot(0).device.fences;

    // 64 pipelined PUTs written as one burst: the server drains them
    // in one (or a few) epoll wake-ups and commits each drained run
    // as ONE crash-atomic transaction — far fewer than 64 fences.
    constexpr int kPuts = 64;
    std::vector<std::uint8_t> out;
    for (int i = 0; i < kPuts; ++i) {
        const kv::KvKey key = 1 + static_cast<kv::KvKey>(i);
        appendPut(out, 100 + static_cast<std::uint64_t>(i), key,
                  kv::KvValue::tagged(key, 7));
    }
    sendBytes(client, out);
    const auto frames =
        readFrames(client, static_cast<std::size_t>(kPuts));
    ASSERT_EQ(frames.size(), static_cast<std::size_t>(kPuts));
    for (const auto &frame : frames)
        EXPECT_EQ(frame.op, Op::Ok);

    const std::uint64_t delta =
        service.shardSnapshot(0).device.fences - before;
    EXPECT_GE(delta, 1u);
    EXPECT_LT(delta, static_cast<std::uint64_t>(kPuts))
        << "group commit provided no fence amortization";

    server.stop();
    service.shutdown();
}

TEST(NetLoopback, OpenLoopEndToEnd)
{
    kv::KvService service(serviceConfig(2));
    NetServer server(service, ServerConfig{});
    server.start();

    LoadgenConfig config;
    config.port = server.port();
    config.targetQps = 4000;
    config.seconds = 1.0;
    config.workload.keys = 512;
    config.workload.mix = kv::Mix::A;
    // multiPut off: every write to a key then flows through that
    // key's one shard connection, so the client's last-acked payload
    // is exactly the server's final value and strict equality holds.
    // (A multiPut batch routes by its *first* key; a secondary key
    // written from another connection has no cross-connection ack
    // order, which OpenLoopMultiPut covers with a weaker check.)
    config.workload.multiPutFraction = 0.0;
    config.seed = 5;
    config.loadFirst = true;
    const auto result = runOpenLoop(config);

    ASSERT_FALSE(result.aborted) << result.error;
    EXPECT_FALSE(result.connectionLost);
    EXPECT_EQ(result.protocolErrors, 0u);
    EXPECT_EQ(result.errors, 0u);
    EXPECT_EQ(result.lost, 0u);
    EXPECT_EQ(result.notFound, 0u); // keyspace was preloaded
    EXPECT_EQ(result.acked, result.scheduled);
    EXPECT_EQ(result.readLatency.count() +
                  result.updateLatency.count(),
              result.acked);
    // Load phase + traffic: every key carries an obligation.
    EXPECT_EQ(result.ackedPuts.size(), config.workload.keys);

    server.stop();

    // Every acked PUT is readable at its last acked payload.
    for (const auto &[key, payload] : result.ackedPuts) {
        const auto value = service.get(0, key);
        ASSERT_TRUE(value.has_value()) << "key " << key;
        EXPECT_EQ(*value, kv::KvValue::tagged(key, payload));
    }
    service.shutdown();
}

TEST(NetLoopback, OpenLoopMultiPut)
{
    kv::KvService service(serviceConfig(2));
    NetServer server(service, ServerConfig{});
    server.start();

    LoadgenConfig config;
    config.port = server.port();
    config.targetQps = 3000;
    config.seconds = 1.0;
    config.workload.keys = 256;
    config.workload.mix = kv::Mix::A;
    config.workload.multiPutFraction = 0.3;
    config.seed = 6;
    config.loadFirst = true;
    const auto result = runOpenLoop(config);

    ASSERT_FALSE(result.aborted) << result.error;
    EXPECT_EQ(result.protocolErrors, 0u);
    EXPECT_EQ(result.errors, 0u);
    EXPECT_EQ(result.lost, 0u);
    EXPECT_EQ(result.acked, result.scheduled);

    server.stop();

    // Batch members can hit a key from either connection, so the
    // final payload is whichever write the server ordered last — but
    // every acked key must exist with an untorn value for that key.
    for (const auto &[key, payload] : result.ackedPuts) {
        const auto value = service.get(0, key);
        ASSERT_TRUE(value.has_value()) << "key " << key;
        EXPECT_TRUE(value->checkTag(key)) << "key " << key;
    }
    service.shutdown();
}

TEST(NetLoopback, MixedVersionClientsInteroperate)
{
    // An old-style client (no trace extension — byte-identical to the
    // pre-extension protocol) and a new traced client share one
    // server: both must be answered correctly, and responses must
    // never carry the extension regardless of what the request did.
    kv::KvService service(serviceConfig(1));
    NetServer server(service, ServerConfig{});
    server.start();

    BlockingClient old_client;
    BlockingClient new_client;
    ASSERT_EQ(dial(old_client, server.port(), 0), 0u);
    ASSERT_EQ(dial(new_client, server.port(), 0), 0u);

    const TraceExt ext{0xABCDEFull, true};
    std::vector<std::uint8_t> out;
    appendPut(out, 1, 7, kv::KvValue::tagged(7, 1), 0, &ext);
    appendGet(out, 2, 7, &ext);
    sendBytes(new_client, out);
    const auto traced = readFrames(new_client, 2);
    ASSERT_EQ(traced.size(), 2u);
    EXPECT_EQ(traced[0].op, Op::Ok);
    EXPECT_EQ(traced[1].op, Op::Value);
    for (const auto &frame : traced) {
        EXPECT_EQ(frame.flags & kFlagTraced, 0)
            << "responses must not carry the trace extension";
        EXPECT_EQ(frame.ext.traceId, 0u);
    }

    // The old client reads the traced client's write: tracing is
    // per-request metadata, not a fork of the data path.
    out.clear();
    appendPut(out, 3, 8, kv::KvValue::tagged(8, 2));
    appendGet(out, 4, 7);
    sendBytes(old_client, out);
    const auto plain = readFrames(old_client, 2);
    ASSERT_EQ(plain.size(), 2u);
    EXPECT_EQ(plain[0].op, Op::Ok);
    ASSERT_EQ(plain[1].op, Op::Value);
    kv::KvValue got;
    ASSERT_TRUE(parseValue(plain[1], got));
    EXPECT_TRUE(got.checkTag(7));

    server.stop();
    service.shutdown();
}

TEST(NetLoopback, SampledRequestEmitsCorrelatedServerSpans)
{
    obs::Tracer::global().clear();
    obs::Tracer::global().enable();

    kv::KvService service(serviceConfig(1));
    NetServer server(service, ServerConfig{});
    server.start();

    BlockingClient client;
    ASSERT_EQ(dial(client, server.port(), 0), 0u);

    // One sampled traced strict PUT: the server must emit request
    // spans correlated by the wire trace id, and the srv_exec span
    // must carry the PM cost vector charged by the commit.
    constexpr std::uint64_t kTraceId = 424242;
    const TraceExt ext{kTraceId, true};
    std::vector<std::uint8_t> out;
    appendPut(out, 1, 99, kv::KvValue::tagged(99, 5), kFlagStrict,
              &ext);
    sendBytes(client, out);
    const auto frames = readFrames(client, 1);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].op, Op::Ok);

    // The ack_write span is recorded just after the response bytes
    // leave the server; give it a beat before serializing.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    server.stop();
    obs::Tracer::global().disable();

    const std::string json = obs::Tracer::global().toChromeJson();
    EXPECT_NE(json.find("\"id\": 424242"), std::string::npos)
        << "no span carries the wire trace id";
    EXPECT_NE(json.find("srv_exec"), std::string::npos);
    EXPECT_NE(json.find("user_bytes"), std::string::npos)
        << "srv_exec span lacks the PM cost vector";
    EXPECT_NE(json.find("flush_batch"), std::string::npos);

    obs::Tracer::global().clear();
    service.shutdown();
}

TEST(NetLoopback, CrashUnderLoadRecoversEveryAckedPut)
{
    constexpr unsigned kShards = 2;
    kv::KvService service(serviceConfig(kShards));
    NetServer server(service, ServerConfig{});
    server.start();

    // Open-loop load on a second thread; the schedule is longer than
    // the server will live.
    LoadgenConfig config;
    config.port = server.port();
    config.targetQps = 3000;
    config.seconds = 30.0;
    config.workload.keys = 512;
    config.workload.mix = kv::Mix::A;
    config.seed = 9;
    config.loadFirst = true;
    LoadgenResult result;
    std::thread load(
        [&] { result = runOpenLoop(config); });

    // Yank the server mid-load: connections die with requests in
    // flight, exactly like a machine losing power under traffic.
    std::this_thread::sleep_for(std::chrono::milliseconds(700));
    server.stop();
    load.join();

    ASSERT_FALSE(result.aborted) << result.error;
    EXPECT_TRUE(result.connectionLost);
    ASSERT_GT(result.ackedPuts.size(), 0u);

    // Power-fail the service under a hostile eviction policy and
    // capture the post-crash images.
    service.crash(pmem::CrashPolicy::random(9, 0.5));
    std::vector<std::vector<std::uint8_t>> images;
    for (unsigned s = 0; s < kShards; ++s) {
        const auto &dev = service.shardDevice(s);
        images.emplace_back(dev.persistentRaw(),
                            dev.persistentRaw() + dev.size());
    }

    service.recover();

    // Durability contract: every key with an acked PUT must survive
    // recovery with an untorn value, and that value must be either
    // the last acked payload or the payload of a later sent-but-
    // unacked PUT (the server may have committed a mutation whose
    // ack the crash swallowed — allowed; LOSING an acked put is not).
    for (const auto &[key, payload] : result.ackedPuts) {
        const auto value = service.get(0, key);
        ASSERT_TRUE(value.has_value()) << "acked key " << key
                                       << " lost in the crash";
        bool allowed = *value == kv::KvValue::tagged(key, payload);
        if (const auto it = result.unackedPuts.find(key);
            it != result.unackedPuts.end()) {
            for (const auto unacked : it->second)
                allowed = allowed ||
                          *value == kv::KvValue::tagged(key, unacked);
        }
        EXPECT_TRUE(allowed)
            << "key " << key
            << " recovered to a value never sent (or torn)";
    }

    // Independent check: the offline inspector's classification of
    // each post-crash image agrees with what real recovery did.
    for (unsigned s = 0; s < kShards; ++s) {
        const auto dev = pmem::deviceFromImage(images[s]);
        const auto report = forensic::inspectImage(
            *dev, service.numThreads(),
            "shard" + std::to_string(s));
        const auto audit = forensic::auditRecovery(
            images[s], "spec", service.numThreads(), report);
        ASSERT_TRUE(audit.supported);
        std::string detail;
        for (const auto &d : audit.disagreements)
            detail += "\n  " + d;
        EXPECT_TRUE(audit.agrees) << "shard " << s << detail;
    }
    service.shutdown();
}

TEST(NetLoopback, StrictPutAckImpliesDurabilityMidEpoch)
{
    // Epoch group commit with triggers far beyond the test's
    // lifetime: only a strict request can seal an epoch, so any ack
    // the client sees was released by the strict commit's fence.
    auto service_config = serviceConfig(1);
    service_config.runtimeOptions.groupCommit = true;
    service_config.epochMaxOps = 0; // the server owns the seal policy
    kv::KvService service(service_config);
    ServerConfig server_config;
    server_config.groupCommit = true;
    server_config.epochMaxOps = 1u << 20;
    server_config.epochMaxDelayUs = 60'000'000;
    NetServer server(service, server_config);
    server.start();

    BlockingClient client;
    ASSERT_EQ(dial(client, server.port(), 0), 0u);

    const kv::KvKey relaxed_key = 10;
    const kv::KvKey strict_key = 20;
    const kv::KvKey open_key = 30;
    std::vector<std::uint8_t> out;
    appendPut(out, 1, relaxed_key,
              kv::KvValue::tagged(relaxed_key, 1));
    appendPut(out, 2, strict_key, kv::KvValue::tagged(strict_key, 2),
              kFlagStrict);
    appendPut(out, 3, open_key, kv::KvValue::tagged(open_key, 3));
    sendBytes(client, out);

    // The strict PUT commits with its own fence and seals the shard
    // epoch, releasing the earlier relaxed PUT's deferred ack with
    // it (pipeline order preserved). The trailing relaxed PUT joined
    // a fresh epoch that never seals, so its ack never arrives.
    const auto frames = readFrames(client, 2);
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0].op, Op::Ok);
    EXPECT_EQ(frames[0].id, 1u);
    EXPECT_EQ(frames[1].op, Op::Ok);
    EXPECT_EQ(frames[1].id, 2u);
    EXPECT_GE(service.shardSealedEpoch(0), 1u);

    server.stop();

    // Power-fail dropping every unflushed line: both acked PUTs were
    // behind the strict commit's fence and must survive; the unacked
    // one was never sealed and must be cleanly absent.
    service.crash(pmem::CrashPolicy::nothing());
    service.recover();
    auto value = service.get(0, relaxed_key);
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(*value, kv::KvValue::tagged(relaxed_key, 1));
    value = service.get(0, strict_key);
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(*value, kv::KvValue::tagged(strict_key, 2));
    EXPECT_FALSE(service.get(0, open_key).has_value())
        << "an unacked relaxed PUT must not partially survive";
    service.shutdown();
}

TEST(NetLoopback, CrashUnderLoadGroupCommitKeepsEveryAckedPut)
{
    // The crash-under-load durability contract, now with epoch group
    // commit serving and a strict minority in the traffic: acks are
    // released only after their epoch's shared fence (or their own,
    // if strict), so every acked PUT must still survive power
    // failure — relaxed durability weakens nothing the client was
    // told.
    constexpr unsigned kShards = 2;
    auto service_config = serviceConfig(kShards);
    service_config.runtimeOptions.groupCommit = true;
    service_config.epochMaxOps = 0; // the server owns the seal policy
    kv::KvService service(service_config);
    ServerConfig server_config;
    server_config.groupCommit = true;
    server_config.epochMaxOps = 16;
    server_config.epochMaxDelayUs = 300;
    NetServer server(service, server_config);
    server.start();

    LoadgenConfig config;
    config.port = server.port();
    config.targetQps = 3000;
    config.seconds = 30.0;
    config.workload.keys = 512;
    config.workload.mix = kv::Mix::A;
    config.strictFraction = 0.15;
    config.seed = 11;
    config.loadFirst = true;
    LoadgenResult result;
    std::thread load([&] { result = runOpenLoop(config); });

    std::this_thread::sleep_for(std::chrono::milliseconds(700));
    server.stop();
    load.join();

    ASSERT_FALSE(result.aborted) << result.error;
    EXPECT_TRUE(result.connectionLost);
    ASSERT_GT(result.ackedPuts.size(), 0u);
    EXPECT_GT(result.strictSent, 0u);

    service.crash(pmem::CrashPolicy::random(11, 0.5));
    std::vector<std::vector<std::uint8_t>> images;
    for (unsigned s = 0; s < kShards; ++s) {
        const auto &dev = service.shardDevice(s);
        images.emplace_back(dev.persistentRaw(),
                            dev.persistentRaw() + dev.size());
    }

    service.recover();

    for (const auto &[key, payload] : result.ackedPuts) {
        const auto value = service.get(0, key);
        ASSERT_TRUE(value.has_value()) << "acked key " << key
                                       << " lost in the crash";
        bool allowed = *value == kv::KvValue::tagged(key, payload);
        if (const auto it = result.unackedPuts.find(key);
            it != result.unackedPuts.end()) {
            for (const auto unacked : it->second)
                allowed = allowed ||
                          *value == kv::KvValue::tagged(key, unacked);
        }
        EXPECT_TRUE(allowed)
            << "key " << key
            << " recovered to a value never sent (or torn)";
    }

    // The images carry an epoch frontier; the inspector must apply
    // the frontier replay rule and still agree with what recovery
    // actually did, shard by shard.
    for (unsigned s = 0; s < kShards; ++s) {
        const auto dev = pmem::deviceFromImage(images[s]);
        const auto report = forensic::inspectImage(
            *dev, service.numThreads(),
            "shard" + std::to_string(s));
        EXPECT_TRUE(report.epochMedia) << "shard " << s;
        const auto audit = forensic::auditRecovery(
            images[s], "spec", service.numThreads(), report);
        ASSERT_TRUE(audit.supported);
        std::string detail;
        for (const auto &d : audit.disagreements)
            detail += "\n  " + d;
        EXPECT_TRUE(audit.agrees) << "shard " << s << detail;
    }
    service.shutdown();
}

TEST(NetLoopback, MidResponseConnectionResetDoesNotKillServer)
{
    // Regression test for the SIGPIPE/ECONNRESET hardening: a client
    // that requests a large pipelined response and then aborts the
    // connection (RST via zero-linger close) leaves the server
    // mid-write on a dead socket. The server must drop that
    // connection and keep serving everyone else — a missing
    // MSG_NOSIGNAL anywhere in the write path would instead kill the
    // whole process with SIGPIPE.
    kv::KvService service(serviceConfig(1));
    NetServer server(service, ServerConfig{});
    server.start();

    {
        BlockingClient loader;
        ASSERT_EQ(dial(loader, server.port(), 0), 0u);
        std::vector<std::uint8_t> out;
        for (kv::KvKey key = 1; key <= 64; ++key)
            appendPut(out, key, key, kv::KvValue::tagged(key, 1));
        sendBytes(loader, out);
        ASSERT_EQ(readFrames(loader, 64).size(), 64u);
    }

    for (int round = 0; round < 5; ++round) {
        BlockingClient rude;
        ASSERT_EQ(dial(rude, server.port(), 0), 0u);
        // 4096 pipelined GETs produce ~350 KiB of Value responses —
        // far beyond the socket buffer, so the server is still
        // writing when the reset lands.
        std::vector<std::uint8_t> out;
        std::uint64_t id = 100;
        for (int i = 0; i < 4096; ++i)
            appendGet(out, id++, 1 + (static_cast<kv::KvKey>(i) % 64));
        sendBytes(rude, out);
        // Read a few responses to ensure the server's write stream is
        // flowing, then slam the door on the rest.
        ASSERT_GE(readFrames(rude, 4).size(), 4u);
        rude.resetHard();
    }

    // The server survived every reset and still serves new clients.
    ASSERT_TRUE(server.running());
    BlockingClient polite;
    ASSERT_EQ(dial(polite, server.port(), 0), 0u);
    std::vector<std::uint8_t> out;
    appendGet(out, 9000, 7);
    sendBytes(polite, out);
    const auto frames = readFrames(polite, 1);
    ASSERT_EQ(frames.size(), 1u);
    kv::KvValue got;
    ASSERT_TRUE(parseValue(frames[0], got));
    EXPECT_TRUE(got.checkTag(7));

    server.stop();
    service.shutdown();
}

TEST(NetLoopback, OversizedFrameEvictsConnectionAndCountsIt)
{
    // A server-side frame cap below the protocol-wide kMaxFrameBytes:
    // a frame legal on the wire but above the cap evicts the
    // connection and bumps evicted{reason="oversize"} — without
    // disturbing other connections.
    auto &evicted = obs::Registry::global().counter(
        "specpmt_net_evicted_total",
        "connections evicted by server policy",
        obs::Labels{{"reason", "oversize"}});
    const std::uint64_t before = evicted.value();

    kv::KvService service(serviceConfig(1));
    ServerConfig config;
    config.maxFrameBytes = 4096;
    NetServer server(service, config);
    server.start();

    BlockingClient greedy;
    ASSERT_EQ(dial(greedy, server.port(), 0), 0u);
    std::vector<std::pair<kv::KvKey, kv::KvValue>> items;
    for (kv::KvKey k = 0; k < 512; ++k)
        items.emplace_back(k, kv::KvValue::tagged(k, 1));
    std::vector<std::uint8_t> out;
    appendBatch(out, 50, items); // ~37 KiB: over the cap, legal wire
    ASSERT_LT(out.size(), kMaxFrameBytes);
    sendBytes(greedy, out);
    // The server closes the connection (possibly after a best-effort
    // Err frame); what it must NOT do is execute the batch.
    readFrames(greedy, 1);

    BlockingClient other;
    ASSERT_EQ(dial(other, server.port(), 0), 0u);
    out.clear();
    appendGet(out, 60, 3);
    sendBytes(other, out);
    const auto frames = readFrames(other, 1);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].op, Op::NotFound)
        << "the oversized batch must not have been applied";

    EXPECT_GE(evicted.value(), before + 1);

    server.stop();
    service.shutdown();
}

TEST(NetLoopback, IdleConnectionIsEvicted)
{
    // The data-plane idle sweep: a connection that goes quiet for
    // longer than idleTimeoutMs is closed by the server and counted
    // as evicted{reason="idle"}; an active connection on the same
    // loop stays up.
    auto &evicted = obs::Registry::global().counter(
        "specpmt_net_evicted_total",
        "connections evicted by server policy",
        obs::Labels{{"reason", "idle"}});
    const std::uint64_t before = evicted.value();

    kv::KvService service(serviceConfig(1));
    ServerConfig config;
    config.idleTimeoutMs = 200;
    NetServer server(service, config);
    server.start();

    BlockingClient idle;
    ASSERT_EQ(dial(idle, server.port(), 0, /*timeoutMs=*/10000), 0u);
    // No further bytes: the sweep must EOF this connection. The
    // blocking read returns zero frames once the server closes.
    const auto t0 = std::chrono::steady_clock::now();
    const auto frames = readFrames(idle, 1);
    const auto waited = std::chrono::steady_clock::now() - t0;
    EXPECT_TRUE(frames.empty()) << "unexpected frame on idle conn";
    EXPECT_LT(waited, std::chrono::seconds(9))
        << "idle sweep never closed the connection";
    EXPECT_GE(evicted.value(), before + 1);

    // A new connection is admitted fine after the eviction.
    BlockingClient fresh;
    ASSERT_EQ(dial(fresh, server.port(), 0), 0u);

    server.stop();
    service.shutdown();
}

TEST(NetLoopback, AdmissionControlShedsBusyAndNeverLies)
{
    // Overload shedding: with a tiny pending-ops budget, a huge
    // pipelined burst must be answered partly Ok, partly Busy —
    // and the two answers must mean what they say: every Ok'd PUT is
    // readable afterwards, every Busy'd PUT was never applied.
    kv::KvService service(serviceConfig(1));
    ServerConfig config;
    config.maxPendingOps = 8;
    NetServer server(service, config);
    server.start();

    BlockingClient client;
    ASSERT_EQ(dial(client, server.port(), 0), 0u);

    constexpr std::uint64_t kBurst = 512;
    std::vector<std::uint8_t> out;
    for (std::uint64_t i = 0; i < kBurst; ++i) {
        const kv::KvKey key = 1 + static_cast<kv::KvKey>(i);
        appendPut(out, 1000 + i, key, kv::KvValue::tagged(key, 3));
    }
    sendBytes(client, out);
    const auto frames = readFrames(client, kBurst);
    ASSERT_EQ(frames.size(), kBurst) << "responses were lost";

    std::vector<bool> okById(kBurst, false);
    std::uint64_t ok = 0;
    std::uint64_t busy = 0;
    for (const auto &frame : frames) {
        ASSERT_GE(frame.id, 1000u);
        const std::uint64_t i = frame.id - 1000;
        ASSERT_LT(i, kBurst);
        if (frame.op == Op::Ok) {
            okById[i] = true;
            ++ok;
        } else {
            ASSERT_EQ(frame.op, Op::Busy) << "id " << frame.id;
            ++busy;
        }
    }
    EXPECT_GE(ok, 1u);
    EXPECT_GE(busy, 1u)
        << "a 512-op burst against an 8-op budget shed nothing";

    // Busy is a *definite* non-apply: the key must be absent. Ok is
    // a definite apply: the key must be present. Read through the
    // service directly so the verification pass cannot itself be
    // shed.
    server.stop();
    for (std::uint64_t i = 0; i < kBurst; ++i) {
        const kv::KvKey key = 1 + static_cast<kv::KvKey>(i);
        const auto value = service.get(0, key);
        if (okById[i]) {
            ASSERT_TRUE(value.has_value()) << "key " << key;
            EXPECT_TRUE(value->checkTag(key));
        } else {
            EXPECT_FALSE(value.has_value())
                << "Busy'd PUT of key " << key << " was applied anyway";
        }
    }
    service.shutdown();
}

TEST(NetLoopback, HelloToASilentListenerFailsWithinItsTimeout)
{
    // A listener that never accepts or answers: the kernel completes
    // the TCP handshake into its backlog, so connect() succeeds, but
    // the HELLO response never comes. The client must give up at its
    // receive bound instead of hanging the caller.
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listener, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(listener, 4), 0);
    ASSERT_EQ(::getsockname(listener,
                            reinterpret_cast<sockaddr *>(&addr), &len),
              0);

    BlockingClient client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", ntohs(addr.sin_port), error,
                               /*timeoutMs=*/200))
        << error;
    std::uint32_t shards = 0;
    std::uint32_t bound = 0;
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(client.hello(kAnyShard, shards, bound, error));
    const auto waited = std::chrono::steady_clock::now() - t0;
    EXPECT_EQ(error.rfind("recv:", 0), 0u) << error;
    EXPECT_FALSE(client.connected());
    EXPECT_GE(waited, std::chrono::milliseconds(100));
    EXPECT_LT(waited, std::chrono::seconds(3))
        << "HELLO outlived its 200 ms receive bound";
    ::close(listener);
}

} // namespace
} // namespace specpmt::net
