/**
 * @file
 * Epoch group commit tests (DESIGN §12): the sealer contract at the
 * SpecTx level (tickets shared per epoch and monotone across seals,
 * ack ordering after the shared fence, strict commits bypassing the
 * epoch by sealing it, a seal failing on a media fault keeping its
 * members pending, rollover under concurrent commits), the
 * durable frontier's recovery semantics (sealed epochs replay,
 * unsealed ones are dropped; a strict-mode successor retires the
 * frontier), the KvService surface (relaxed put tickets, the
 * epochMaxOps auto-seal, strict mutations sealing their shard's
 * epoch), and the paper-level group-commit claim on a closed-loop
 * YCSB-A run (fewer fences per transaction, higher simulated
 * throughput than strict commits).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/spec_tx.hh"
#include "kv/driver.hh"
#include "kv/kv_service.hh"
#include "pmem/crash_policy.hh"
#include "pmem/pmem_device.hh"
#include "pmem/pmem_pool.hh"
#include "txn/tx_runtime.hh"

namespace specpmt
{
namespace
{

core::SpecTxConfig
epochConfig()
{
    core::SpecTxConfig config;
    config.backgroundReclaim = false;
    config.logBlockSize = 256;
    config.groupCommit = true;
    return config;
}

class EpochSealerTest : public ::testing::Test
{
  protected:
    static constexpr unsigned kThreads = 4;

    EpochSealerTest()
        : dev_(16u << 20), pool_(dev_),
          tx_(pool_, kThreads, epochConfig())
    {}

    /** Initialize a slot array through one strict transaction. */
    PmOff
    initSlots(unsigned count)
    {
        const PmOff off = pool_.alloc(count * 8);
        tx_.txBegin(0);
        for (unsigned i = 0; i < count; ++i)
            tx_.txStoreT<std::uint64_t>(0, off + i * 8, i);
        tx_.txCommit(0);
        return off;
    }

    /** One single-store relaxed commit; returns the epoch ticket. */
    std::uint64_t
    relaxedPut(ThreadId tid, PmOff off, std::uint64_t value)
    {
        tx_.txBegin(tid);
        tx_.txStoreT<std::uint64_t>(tid, off, value);
        return tx_.txCommitRelaxed(tid);
    }

    pmem::PmemDevice dev_;
    pmem::PmemPool pool_;
    core::SpecTx tx_;
};

TEST_F(EpochSealerTest, RelaxedCommitsDeferTheFenceToTheSeal)
{
    const PmOff off = initSlots(8);
    const auto fences_before = dev_.stats().fences;
    std::uint64_t last_ticket = 0;
    for (unsigned i = 0; i < 8; ++i)
        last_ticket = relaxedPut(0, off + i * 8, 100 + i);
    EXPECT_EQ(dev_.stats().fences, fences_before)
        << "a relaxed commit must not fence";
    EXPECT_GT(last_ticket, tx_.lastSealedEpoch());

    const std::uint64_t sealed = tx_.sealEpoch();
    EXPECT_GE(sealed, last_ticket);
    EXPECT_EQ(tx_.lastSealedEpoch(), sealed);
    const auto seal_fences = dev_.stats().fences - fences_before;
    EXPECT_GE(seal_fences, 1u);
    EXPECT_LT(seal_fences, 8u)
        << "the epoch fence must be shared, not per transaction";
}

TEST_F(EpochSealerTest, TicketsAreSharedPerEpochAndMonotone)
{
    const PmOff off = initSlots(4);
    const auto t1 = relaxedPut(0, off, 1);
    const auto t2 = relaxedPut(0, off + 8, 2);
    EXPECT_GT(t1, 0u);
    EXPECT_EQ(t1, t2) << "commits in one open epoch share its ticket";
    EXPECT_LT(tx_.lastSealedEpoch(), t1);

    EXPECT_GE(tx_.sealEpoch(), t1);
    const auto t3 = relaxedPut(0, off + 16, 3);
    EXPECT_GT(t3, t1) << "sealing rolls the epoch over";
    EXPECT_LT(tx_.lastSealedEpoch(), t3);
    EXPECT_GE(tx_.sealEpoch(), t3);
}

TEST_F(EpochSealerTest, ReadOnlyRelaxedCommitIsAlreadyDurable)
{
    tx_.txBegin(0);
    EXPECT_EQ(tx_.txCommitRelaxed(0), 0u);
}

TEST_F(EpochSealerTest, StrictCommitSealsTheEpochItJoins)
{
    const PmOff off = initSlots(4);
    const auto ticket = relaxedPut(0, off, 11);
    ASSERT_LT(tx_.lastSealedEpoch(), ticket);

    // txCommit keeps ack-implies-durable: it seals the open epoch —
    // including the earlier relaxed commit — before returning.
    tx_.txBegin(0);
    tx_.txStoreT<std::uint64_t>(0, off + 8, 22);
    tx_.txCommit(0);
    EXPECT_GE(tx_.lastSealedEpoch(), ticket);

    // Both survive a crash that drops every unflushed line.
    dev_.simulateCrash(pmem::CrashPolicy::nothing());
    pool_.reopenAfterCrash();
    core::SpecTx fresh(pool_, kThreads, epochConfig());
    fresh.recover();
    EXPECT_EQ(dev_.loadT<std::uint64_t>(off), 11u);
    EXPECT_EQ(dev_.loadT<std::uint64_t>(off + 8), 22u);
}

TEST_F(EpochSealerTest, FaultedSealKeepsItsMembersPending)
{
    const PmOff off = initSlots(4);
    const auto ticket = relaxedPut(0, off, 11);

    // A write EIO on the frontier record's line fails the seal before
    // it takes the epoch apart: the member stays pending.
    pmem::FaultPlan plan;
    plan.seed = 1;
    plan.eioLines = 1;
    plan.regionStart = pool_.getRoot(txn::kEpochFrontierSlot);
    plan.regionEnd = plan.regionStart + kCacheLineSize;
    dev_.applyFaultPlan(plan);
    EXPECT_THROW(tx_.sealEpoch(), pmem::MediaError);
    EXPECT_LT(tx_.lastSealedEpoch(), ticket);

    // A strict commit closes its transaction before its seal runs, so
    // the abort its caller issues after the fault has nothing to undo.
    tx_.txBegin(0);
    tx_.txStoreT<std::uint64_t>(0, off + 8, 22);
    EXPECT_THROW(tx_.txCommit(0), pmem::MediaError);
    tx_.txAbort(0);
    EXPECT_EQ(dev_.loadT<std::uint64_t>(off + 8), 22u);

    // The next seal covers both, durably.
    dev_.clearFaultPlan();
    EXPECT_GE(tx_.sealEpoch(), ticket);
    dev_.simulateCrash(pmem::CrashPolicy::nothing());
    pool_.reopenAfterCrash();
    core::SpecTx fresh(pool_, kThreads, epochConfig());
    fresh.recover();
    EXPECT_EQ(dev_.loadT<std::uint64_t>(off), 11u);
    EXPECT_EQ(dev_.loadT<std::uint64_t>(off + 8), 22u);
}

TEST_F(EpochSealerTest, RolloverUnderConcurrentCommits)
{
    constexpr unsigned kOpsPerThread = 200;
    const PmOff off = initSlots(kThreads);

    std::atomic<bool> stop_sealer{false};
    std::thread sealer([&] {
        while (!stop_sealer.load(std::memory_order_acquire)) {
            tx_.sealEpoch();
            std::this_thread::yield();
        }
    });

    std::vector<std::uint64_t> last_ticket(kThreads, 0);
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            for (unsigned i = 1; i <= kOpsPerThread; ++i) {
                tx_.txBegin(t);
                tx_.txStoreT<std::uint64_t>(t, off + t * 8,
                                            t * 1000 + i);
                const auto ticket = tx_.txCommitRelaxed(t);
                // Tickets a thread observes never move backwards,
                // however the sealer races the commits.
                EXPECT_GE(ticket, last_ticket[t]);
                last_ticket[t] = ticket;
            }
        });
    }
    for (auto &w : workers)
        w.join();
    stop_sealer.store(true, std::memory_order_release);
    sealer.join();

    // Ack ordering: a transaction is durable once the sealed epoch
    // reaches its ticket, so the final seal must cover every ticket
    // handed out.
    const std::uint64_t sealed = tx_.sealEpoch();
    for (unsigned t = 0; t < kThreads; ++t)
        EXPECT_GE(sealed, last_ticket[t]);

    dev_.simulateCrash(pmem::CrashPolicy::nothing());
    pool_.reopenAfterCrash();
    core::SpecTx fresh(pool_, kThreads, epochConfig());
    fresh.recover();
    for (unsigned t = 0; t < kThreads; ++t)
        EXPECT_EQ(dev_.loadT<std::uint64_t>(off + t * 8),
                  t * 1000 + kOpsPerThread);
}

TEST_F(EpochSealerTest, SealedEpochsReplayUnsealedOnesAreDropped)
{
    const PmOff off = initSlots(1); // value 0
    relaxedPut(0, off, 111);
    tx_.sealEpoch();
    const auto unsealed_ticket = relaxedPut(0, off, 222);
    ASSERT_LT(tx_.lastSealedEpoch(), unsealed_ticket);

    // Power failure dropping every unflushed line: the unsealed
    // commit left no durable trace, the sealed one was fenced.
    dev_.simulateCrash(pmem::CrashPolicy::nothing());
    pool_.reopenAfterCrash();
    core::SpecTx fresh(pool_, kThreads, epochConfig());
    fresh.recover();
    EXPECT_EQ(dev_.loadT<std::uint64_t>(off), 111u)
        << "recovery must stop at the durable epoch frontier";
}

TEST_F(EpochSealerTest, FrontierBoundsReplayUnderHostileEviction)
{
    const PmOff off = initSlots(1);
    relaxedPut(0, off, 111);
    tx_.sealEpoch();
    relaxedPut(0, off, 222);

    // A hostile eviction policy may persist the unsealed commit's
    // lines: if its whole record made it out, the dense-frontier rule
    // adopts it (it holds the next timestamp after the window);
    // otherwise it is dropped. Either way the recovered value is one
    // of the two committed payloads — never the pre-seal 0, never
    // torn.
    dev_.simulateCrash(pmem::CrashPolicy::random(7, 0.6));
    pool_.reopenAfterCrash();
    core::SpecTx fresh(pool_, kThreads, epochConfig());
    fresh.recover();
    const auto value = dev_.loadT<std::uint64_t>(off);
    EXPECT_TRUE(value == 111u || value == 222u) << "value " << value;
}

TEST_F(EpochSealerTest, EpochModeSurvivesRepeatedCrashRecoverCycles)
{
    const PmOff off = initSlots(1);
    relaxedPut(0, off, 111);
    tx_.sealEpoch();
    dev_.simulateCrash(pmem::CrashPolicy::nothing());
    pool_.reopenAfterCrash();
    core::SpecTx second(pool_, kThreads, epochConfig());
    second.recover();
    EXPECT_EQ(dev_.loadT<std::uint64_t>(off), 111u);

    // The recovered incarnation opens a fresh frontier window and the
    // epoch machinery keeps working: new relaxed commits seal and
    // survive a second failure.
    second.txBegin(0);
    second.txStoreT<std::uint64_t>(0, off, 444);
    const auto ticket = second.txCommitRelaxed(0);
    EXPECT_GT(ticket, 0u);
    EXPECT_GE(second.sealEpoch(), ticket);

    dev_.simulateCrash(pmem::CrashPolicy::nothing());
    pool_.reopenAfterCrash();
    core::SpecTx third(pool_, kThreads, epochConfig());
    third.recover();
    EXPECT_EQ(dev_.loadT<std::uint64_t>(off), 444u);
}

TEST_F(EpochSealerTest, StrictModeRecoveryRetiresTheFrontier)
{
    const PmOff off = initSlots(1);
    relaxedPut(0, off, 111);
    tx_.sealEpoch();
    ASSERT_NE(pool_.getRoot(txn::kEpochFrontierSlot), kPmNull);

    dev_.simulateCrash(pmem::CrashPolicy::nothing());
    pool_.reopenAfterCrash();
    // The pool switches back to strict-only operation: recovery
    // replays under the (on-media) frontier rule one last time, then
    // retires the frontier record so future recoveries use the
    // legacy rule.
    core::SpecTxConfig strict_config = epochConfig();
    strict_config.groupCommit = false;
    core::SpecTx fresh(pool_, kThreads, strict_config);
    fresh.recover();
    EXPECT_EQ(pool_.getRoot(txn::kEpochFrontierSlot), kPmNull);
    EXPECT_EQ(dev_.loadT<std::uint64_t>(off), 111u);

    // And the strict successor operates normally, with no epochs.
    fresh.txBegin(0);
    fresh.txStoreT<std::uint64_t>(0, off, 333);
    fresh.txCommit(0);
    EXPECT_EQ(fresh.lastSealedEpoch(), 0u);
}

kv::KvServiceConfig
kvEpochConfig(unsigned epoch_max_ops)
{
    kv::KvServiceConfig config;
    config.shards = 1;
    config.threads = 1;
    config.runtime = "spec";
    config.bucketsPerShard = 1024;
    config.epochMaxOps = epoch_max_ops;
    config.runtimeOptions.groupCommit = true;
    return config;
}

TEST(EpochKv, RelaxedPutTicketSealAndLatestView)
{
    kv::KvService service(kvEpochConfig(0)); // manual sealing only
    ASSERT_TRUE(service.groupCommitEnabled());

    std::uint64_t ticket = 0;
    ASSERT_TRUE(service.put(0, 7, kv::KvValue::tagged(7, 1),
                            kv::Durability::Relaxed, &ticket));
    EXPECT_GT(ticket, 0u);
    EXPECT_LT(service.shardSealedEpoch(0), ticket)
        << "a relaxed put must not be durable before its seal";

    // DRAM-latest view: the value reads back before the seal.
    const auto value = service.get(0, 7);
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(*value, kv::KvValue::tagged(7, 1));

    EXPECT_GE(service.sealShardEpoch(0), ticket);
    EXPECT_GE(service.shardSealedEpoch(0), ticket);
    service.shutdown();
}

TEST(EpochKv, AutoSealAfterEpochMaxOpsRelaxedMutations)
{
    kv::KvService service(kvEpochConfig(4));
    std::uint64_t first_ticket = 0;
    ASSERT_TRUE(service.put(0, 1, kv::KvValue::tagged(1, 1),
                            kv::Durability::Relaxed, &first_ticket));
    for (kv::KvKey key = 2; key <= 3; ++key)
        ASSERT_TRUE(service.put(0, key, kv::KvValue::tagged(key, 1),
                                kv::Durability::Relaxed));
    EXPECT_LT(service.shardSealedEpoch(0), first_ticket);
    ASSERT_TRUE(service.put(0, 4, kv::KvValue::tagged(4, 1),
                            kv::Durability::Relaxed));
    EXPECT_GE(service.shardSealedEpoch(0), first_ticket)
        << "the epochMaxOps'th relaxed mutation must auto-seal";
    service.shutdown();
}

TEST(EpochKv, RelaxedBatchesOfTwoThreadsAddUpToOneSeal)
{
    // The size trigger counts per shard, not per client thread: the
    // relaxed runs of two threads (two server loops) on one shard
    // reach one threshold together.
    kv::KvServiceConfig config = kvEpochConfig(0);
    config.threads = 2;
    kv::KvService service(config);
    auto relaxed_run = [&service](ThreadId tid, kv::KvKey first) {
        std::vector<kv::BatchOp> ops;
        for (kv::KvKey key = first; key < first + 3; ++key)
            ops.push_back({kv::BatchOp::Kind::Put, key,
                           kv::KvValue::tagged(key, tid)});
        ops.push_back({kv::BatchOp::Kind::Get, first, {}}); // not counted
        std::vector<kv::BatchOpResult> results;
        std::uint64_t ticket = 0;
        EXPECT_EQ(service.executeShardBatch(tid, 0, ops, results,
                                            kv::Durability::Relaxed,
                                            &ticket),
                  kv::BatchStatus::Ok);
        EXPECT_GT(ticket, 0u);
        return ticket;
    };
    relaxed_run(0, 1);
    EXPECT_FALSE(service.sealShardEpochIfDue(0, 6));
    const std::uint64_t ticket = relaxed_run(1, 11);
    EXPECT_LT(service.shardSealedEpoch(0), ticket);
    EXPECT_TRUE(service.sealShardEpochIfDue(0, 6));
    EXPECT_GE(service.shardSealedEpoch(0), ticket);
    EXPECT_FALSE(service.sealShardEpochIfDue(0, 6))
        << "a seal must zero the shard's count";
    service.shutdown();
}

TEST(EpochKv, StrictPutSealsTheShardEpoch)
{
    kv::KvService service(kvEpochConfig(0));
    std::uint64_t ticket = 0;
    ASSERT_TRUE(service.put(0, 1, kv::KvValue::tagged(1, 1),
                            kv::Durability::Relaxed, &ticket));
    ASSERT_LT(service.shardSealedEpoch(0), ticket);
    ASSERT_TRUE(service.put(0, 2, kv::KvValue::tagged(2, 2)));
    EXPECT_GE(service.shardSealedEpoch(0), ticket)
        << "a strict mutation seals the epoch it joins";
    service.shutdown();
}

/** Simulated throughput and fences per committed tx of one run. */
struct YcsbCell
{
    double simOpsPerSec = 0;
    double fencesPerTx = 0;
};

/**
 * Closed-loop YCSB-A zipfian over 2 shards x 2 threads, 4,096 keys,
 * 2,000 ops per thread — `speckv bench`'s smoke shape. @p epoch_max_ops
 * 0 issues strict puts; otherwise puts are relaxed and each shard
 * seals every @p epoch_max_ops relaxed mutations.
 */
YcsbCell
runYcsbA(unsigned epoch_max_ops)
{
    kv::KvServiceConfig service_config;
    service_config.shards = 2;
    service_config.threads = 2;
    service_config.runtime = "spec";
    service_config.bucketsPerShard = 8192;
    if (epoch_max_ops != 0) {
        service_config.runtimeOptions.groupCommit = true;
        service_config.epochMaxOps = epoch_max_ops;
    }
    kv::KvService service(service_config);

    kv::DriverConfig driver;
    driver.threads = 2;
    driver.workload.keys = 4096;
    driver.opsPerThread = 2000;
    driver.workload.mix = kv::Mix::A;
    driver.workload.dist = kv::KeyDist::Zipfian;
    kv::loadKeyspace(service, driver);
    driver.relaxedPuts = epoch_max_ops != 0;
    const kv::DriverResult result = kv::runClosedLoop(service, driver);
    service.shutdown();
    EXPECT_EQ(result.failed, 0u);

    std::uint64_t fences = 0;
    std::uint64_t txs = 0;
    for (const auto &shard : result.shards) {
        fences += shard.device.fences;
        txs += shard.committedTxs;
    }
    EXPECT_GT(txs, 0u);
    return {result.simThroughputOps,
            txs > 0 ? static_cast<double>(fences) /
                          static_cast<double>(txs)
                    : 0.0};
}

TEST(EpochKv, GroupCommitAmortizesFencesOnYcsbA)
{
    // Group commit's claim in simulated time: epochs of 8 relaxed
    // puts share one seal fence (about 0.13 fences/tx against strict's
    // one per tx), which shows up as roughly 2.4x the simulated
    // throughput of strict commits.
    const YcsbCell strict = runYcsbA(0);
    const YcsbCell group = runYcsbA(8);
    EXPECT_EQ(strict.fencesPerTx, 1.0);
    EXPECT_LE(group.fencesPerTx, 0.25);
    EXPECT_GE(group.simOpsPerSec, 1.5 * strict.simOpsPerSec)
        << "group " << group.simOpsPerSec << " vs strict "
        << strict.simOpsPerSec << " sim ops/s";
}

} // namespace
} // namespace specpmt
