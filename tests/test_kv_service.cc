/**
 * @file
 * Crash-consistency and concurrency tests for the sharded KV service.
 * Crash coverage is explorer-backed: every persistence-event crash
 * point of a YCSB-A-style mixed run is enumerated per runtime ×
 * eviction-policy cell (after recovery every shard must equal a
 * prefix of its committed transactions — no acknowledged put may be
 * lost and no partial transaction may be visible), plus
 * multi-threaded smoke and recovery tests, and the shard journal
 * (flight recorder) the service writes.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rand.hh"
#include "forensic/flight_recorder.hh"
#include "kv/driver.hh"
#include "kv/kv_crash_workload.hh"
#include "kv/kv_service.hh"

namespace specpmt::kv
{
namespace
{

constexpr std::uint64_t kKeys = 256;

KvServiceConfig
crashTestConfig(const std::string &runtime)
{
    KvServiceConfig config;
    config.shards = 4;
    config.threads = 1;
    config.runtime = runtime;
    config.bucketsPerShard = 512;
    config.shardPoolBytes = 8u << 20;
    // Deterministic crash testing: no background threads, small log
    // blocks so transactions span block boundaries.
    config.runtimeOptions.backgroundWorkers = false;
    config.runtimeOptions.specLogBlockSize = 256;
    return config;
}

using Param = std::tuple<const char *, const char *>;

class KvCrashTest : public ::testing::TestWithParam<Param>
{
};

TEST_P(KvCrashTest, ShardsRecoverToCommittedPrefixAtEveryCrashPoint)
{
    const auto [runtime, policy] = GetParam();

    sim::CrashCell cell;
    cell.runtime = runtime;
    cell.workload = "kv";
    cell.policy = policy;
    cell.seed = 2000;
    cell.kvShards = 2;
    cell.kvKeys = 48;
    cell.kvOps = 16;

    sim::CrashExplorer explorer(cell, kvCrashWorkloadFactory());
    sim::ExploreOptions options;
    options.jobs = 2;
    options.verifyContinuation = true;
    const auto report = explorer.explore(options);

    ASSERT_EQ(report.error, "");
    EXPECT_GT(report.totalEvents, 0u);
    EXPECT_EQ(report.explored + report.pruned, report.candidatePoints);
    EXPECT_EQ(report.candidatePoints, report.totalEvents);
    for (const auto &failure : report.failures) {
        ADD_FAILURE() << failure.message
                      << "\n  replay: crashmatrix --replay='"
                      << failure.token << "'";
    }
}

std::string
paramName(const ::testing::TestParamInfo<Param> &info)
{
    std::string name = std::get<0>(info.param);
    name += "_";
    name += std::get<1>(info.param);
    for (auto &c : name) {
        if (c == '-')
            c = '_';
    }
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, KvCrashTest,
    ::testing::Combine(::testing::Values("spec", "spec-dp", "pmdk",
                                         "spht"),
                       ::testing::Values("nothing", "everything",
                                         "random")),
    paramName);

TEST(KvService, RoutesAndBasicOps)
{
    KvService service(crashTestConfig("spec"));
    EXPECT_FALSE(service.get(0, 42).has_value());
    EXPECT_TRUE(service.put(0, 42, KvValue::tagged(42, 7)));
    const auto value = service.get(0, 42);
    ASSERT_TRUE(value.has_value());
    EXPECT_TRUE(value->checkTag(42));
    EXPECT_EQ(value->words[1], 7u);
    EXPECT_TRUE(service.erase(0, 42));
    EXPECT_FALSE(service.erase(0, 42));
    EXPECT_FALSE(service.get(0, 42).has_value());

    // Keys spread over all shards.
    std::vector<bool> hit(service.numShards(), false);
    for (KvKey key = 0; key < 64; ++key)
        hit[service.shardOf(key)] = true;
    for (unsigned s = 0; s < service.numShards(); ++s)
        EXPECT_TRUE(hit[s]) << "shard " << s << " never selected";
    service.shutdown();
}

TEST(KvService, MultiPutSpansShards)
{
    KvService service(crashTestConfig("spec"));
    std::vector<std::pair<KvKey, KvValue>> batch;
    for (KvKey key = 1; key <= 64; ++key)
        batch.emplace_back(key, KvValue::tagged(key, key * 3));
    EXPECT_TRUE(service.multiPut(0, batch));
    std::uint64_t txs = 0;
    for (unsigned s = 0; s < service.numShards(); ++s)
        txs += service.shardSnapshot(s).committedTxs;
    // One shard-local transaction per touched shard, not per key.
    EXPECT_EQ(txs, service.numShards());
    for (KvKey key = 1; key <= 64; ++key) {
        const auto value = service.get(0, key);
        ASSERT_TRUE(value.has_value()) << "key " << key;
        EXPECT_EQ(value->words[1], key * 3);
    }
    service.shutdown();
}

TEST(KvService, ConcurrentClientsPreserveEveryAcknowledgedPut)
{
    KvServiceConfig config = crashTestConfig("spec");
    config.threads = 4;
    KvService service(config);

    // Each thread owns a key range and also hammers a shared hot set,
    // exercising stripe locking and the insert structure lock.
    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t kPerThread = 400;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&service, t] {
            Rng rng(t + 1);
            for (std::uint64_t i = 0; i < kPerThread; ++i) {
                const KvKey own = 1000 + t * kPerThread + i;
                ASSERT_TRUE(service.put(
                    t, own, KvValue::tagged(own, rng.next())));
                const KvKey hot = 1 + rng.below(16);
                ASSERT_TRUE(service.put(
                    t, hot, KvValue::tagged(hot, rng.next())));
                const auto read = service.get(t, hot);
                if (read) {
                    EXPECT_TRUE(read->checkTag(hot));
                }
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    // Every thread-owned key must be present and intact; hot keys
    // must hold some thread's complete write (no torn values).
    for (unsigned t = 0; t < kThreads; ++t) {
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
            const KvKey own = 1000 + t * kPerThread + i;
            const auto value = service.get(0, own);
            ASSERT_TRUE(value.has_value()) << "lost key " << own;
            EXPECT_TRUE(value->checkTag(own));
        }
    }
    for (KvKey hot = 1; hot <= 16; ++hot) {
        const auto value = service.get(0, hot);
        ASSERT_TRUE(value.has_value());
        EXPECT_TRUE(value->checkTag(hot));
    }
    service.shutdown();
}

TEST(KvService, ParallelRecoveryAfterConcurrentRun)
{
    KvServiceConfig config = crashTestConfig("spec");
    config.threads = 4;
    KvService service(config);

    DriverConfig driver;
    driver.threads = 4;
    driver.workload.keys = kKeys;
    driver.opsPerThread = 500;
    driver.workload.mix = Mix::A;
    driver.workload.multiPutFraction = 0.1;
    loadKeyspace(service, driver);
    const auto result = runClosedLoop(service, driver);
    EXPECT_EQ(result.failed, 0u);
    EXPECT_FALSE(result.crashed);
    EXPECT_EQ(result.totalOps(),
              driver.threads * driver.opsPerThread);
    EXPECT_GT(result.readLatency.count(), 0u);
    EXPECT_GT(result.updateLatency.count(), 0u);

    // Power-fail everything, recover all shards in parallel, and
    // check no loaded key was lost and no value is torn.
    service.crash(pmem::CrashPolicy::random(3, 0.5));
    service.recover();
    for (KvKey key = 1; key <= kKeys; ++key) {
        const auto value = service.get(0, key);
        ASSERT_TRUE(value.has_value()) << "lost key " << key;
        EXPECT_TRUE(value->checkTag(key));
    }
    service.shutdown();
}

TEST(KvService, ParallelRecoveryRethrowsShardFailure)
{
    KvServiceConfig config = crashTestConfig("spec");
    config.shards = 2;
    KvService service(config);
    for (KvKey key = 1; key <= 32; ++key)
        ASSERT_TRUE(service.put(0, key, KvValue::tagged(key, key)));
    const PmOff header =
        service.shardRuntime(1).pool().getRoot(txn::kAppRootSlotBase);
    ASSERT_NE(header, kPmNull);

    // Poison shard 1's map-header line after the crash: its log replay
    // still succeeds, but re-attaching the map reads the header and
    // fails on a recovery thread. recover() must hand that failure to
    // the caller after joining both shards, not terminate.
    service.crash(pmem::CrashPolicy::nothing());
    pmem::FaultPlan plan;
    plan.poisonLines = 1;
    plan.regionStart = lineIndex(header) * kCacheLineSize;
    plan.regionEnd = plan.regionStart + kCacheLineSize;
    service.shardDevice(1).applyFaultPlan(plan);
    EXPECT_THROW(service.recover(), pmem::MediaError);
}

/** Fill the stack area that a following call reuses with @p value. */
[[gnu::noinline]] void
scribbleStack(std::uint8_t value)
{
    volatile std::uint8_t junk[16384];
    for (auto &byte : junk)
        byte = value;
}

TEST(KvService, CrashImageHoldsNoStackBytes)
{
    // The same puts on two fresh services, with different bytes left
    // on the stack before each put, must give byte-identical crash
    // images. crashmatrix prunes crash points by image, and a bucket's
    // pad bytes reach PM with the rest of it.
    std::vector<std::vector<std::uint8_t>> images;
    for (const std::uint8_t pattern : {0x00, 0xA5}) {
        KvServiceConfig config = crashTestConfig("spec");
        config.shards = 1;
        KvService service(config);
        for (KvKey key = 1; key <= 16; ++key) {
            scribbleStack(static_cast<std::uint8_t>(pattern + key));
            ASSERT_TRUE(service.put(0, key, KvValue::tagged(key, key)));
        }
        images.push_back(service.shardDevice(0).crashImage(
            pmem::CrashPolicy::everything()));
        service.shutdown();
    }
    EXPECT_TRUE(images[0] == images[1]);
}

/** The ring in shard @p s 's pool, as pminspect would decode it. */
forensic::DecodedFlightRing
journalOf(const KvService &service, unsigned s)
{
    const auto &dev = service.shardDevice(s);
    return forensic::FlightRecorder::decode(
        dev, dev.loadT<PmOff>(forensic::kFlightRecorderRootSlot *
                              sizeof(PmOff)));
}

TEST(KvService, JournalsRecoveriesReadOnlyEntryAndMediaFaults)
{
    KvServiceConfig config = crashTestConfig("spec");
    config.shards = 2;
    KvService service(config);
    for (unsigned s = 0; s < 2; ++s) {
        const auto ring = journalOf(service, s);
        ASSERT_TRUE(ring.present) << "shard " << s;
        EXPECT_TRUE(ring.error.empty()) << ring.error;
        EXPECT_EQ(ring.capacity, forensic::kFlightRingSlots);
        EXPECT_TRUE(ring.records.empty());
    }
    for (KvKey key = 1; key <= 32; ++key)
        ASSERT_TRUE(service.put(0, key, KvValue::tagged(key, key)));

    service.crash(pmem::CrashPolicy::nothing());
    service.recover();
    for (unsigned s = 0; s < 2; ++s) {
        const auto ring = journalOf(service, s);
        ASSERT_EQ(ring.records.size(), 2u) << "shard " << s;
        EXPECT_EQ(ring.records[0].type,
                  forensic::EventType::RecoveryBegin);
        EXPECT_EQ(ring.records[1].type, forensic::EventType::RecoveryEnd);
        EXPECT_EQ(ring.records[1].arg0, 0u) << "nothing quarantined";
    }

    service.setShardReadOnly(1, true);
    ASSERT_EQ(journalOf(service, 1).records.size(), 3u);
    EXPECT_EQ(journalOf(service, 1).records.back().type,
              forensic::EventType::DegradedEnter);
    service.setShardReadOnly(1, false);

    // Every line of shard 0 fails writes: the put aborts on EIO.
    KvKey key = 1;
    while (service.shardOf(key) != 0)
        ++key;
    pmem::FaultPlan every_line;
    every_line.eioLines = config.shardPoolBytes / kCacheLineSize;
    service.shardDevice(0).applyFaultPlan(every_line);
    EXPECT_FALSE(service.put(0, key, KvValue::tagged(key, 99)));
    service.shardDevice(0).clearFaultPlan();
    EXPECT_EQ(service.shardMediaAborts(0), 1u);
    const auto ring = journalOf(service, 0);
    ASSERT_EQ(ring.records.size(), 3u);
    EXPECT_EQ(ring.records.back().type, forensic::EventType::MediaFault);
    EXPECT_EQ(ring.records.back().arg1,
              static_cast<std::uint64_t>(pmem::MediaErrorKind::WriteEio));
    service.shutdown();
}

TEST(KvService, RecoveryNeverCreatesARing)
{
    // A pool written before the journal existed has no ring, and
    // recovery must not make one: a reattached pool's bump pointer
    // starts at page 1, where live data may sit.
    KvServiceConfig config = crashTestConfig("spec");
    config.shards = 1;
    KvService service(config);
    for (KvKey key = 1; key <= 16; ++key)
        ASSERT_TRUE(service.put(0, key, KvValue::tagged(key, key)));
    service.crash(pmem::CrashPolicy::nothing());
    auto &dev = service.shardDevice(0);
    const PmOff slot = forensic::kFlightRecorderRootSlot * sizeof(PmOff);
    dev.storeT<PmOff>(slot, kPmNull);
    dev.clwb(slot);
    dev.sfence();
    service.recover();
    service.setShardReadOnly(0, true);
    EXPECT_FALSE(journalOf(service, 0).present);
    service.setShardReadOnly(0, false);
    for (KvKey key = 1; key <= 16; ++key)
        EXPECT_EQ(service.get(0, key), KvValue::tagged(key, key));
    service.shutdown();
}

TEST(ZipfianGenerator, SkewsTowardLowRanks)
{
    ZipfianGenerator zipf(1000, 0.99);
    Rng rng(11);
    unsigned top10 = 0;
    constexpr unsigned kDraws = 20000;
    for (unsigned i = 0; i < kDraws; ++i) {
        const auto rank = zipf.next(rng);
        ASSERT_LT(rank, 1000u);
        if (rank < 10)
            ++top10;
    }
    // Under uniform the top-10 share would be 1%; zipf(0.99) puts
    // roughly a third of the mass there.
    EXPECT_GT(top10, kDraws / 10);
}

} // namespace
} // namespace specpmt::kv
