/**
 * @file
 * KvService robustness under injected PM media faults and degraded
 * modes: write-EIO transactions abort cleanly (nothing partially
 * applied) and retries recover via fresh log blocks; poisoned reads
 * surface as typed Io outcomes and never as garbage values — both
 * also on a group-commit runtime, strict and relaxed, where an Io
 * abort must not punch a hole into the epoch's timestamp sequence;
 * forced and log-exhaustion read-only modes refuse mutations
 * individually while reads stay alive, through every entry point
 * (put, erase, multiPut, executeShardBatch); a poisoned header of a
 * thread's tail log block fails one transaction, not every later one;
 * a get() of a poisoned bucket answers nothing and degrades the shard;
 * and a file-backed pm dir reattaches across a service teardown with
 * every strict put intact.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "core/splog_format.hh"
#include "forensic/flight_recorder.hh"
#include "kv/kv_service.hh"
#include "obs/metrics.hh"
#include "pmds/pm_hash_map.hh"
#include "pmem/pmem_device.hh"
#include "pmem/pmem_pool.hh"

namespace specpmt::kv
{
namespace
{

KvServiceConfig
baseConfig(unsigned shards, bool group_commit = false)
{
    KvServiceConfig config;
    config.shards = shards;
    config.threads = shards;
    config.runtime = "spec";
    config.bucketsPerShard = 4096;
    config.shardPoolBytes = 8u << 20;
    config.runtimeOptions.groupCommit = group_commit;
    return config;
}

std::vector<BatchOp>
putBatch(KvKey first, std::size_t count, std::uint64_t payload)
{
    std::vector<BatchOp> ops;
    for (std::size_t i = 0; i < count; ++i) {
        BatchOp op;
        op.kind = BatchOp::Kind::Put;
        op.key = first + static_cast<KvKey>(i);
        op.value = KvValue::tagged(op.key, payload);
        ops.push_back(op);
    }
    return ops;
}

void
writeEioAbortsAtomicallyAndRetriesRecover(const KvServiceConfig &config,
                                          Durability durability)
{
    KvService service(config);
    // EIO lines land just above the hash map, where the log grows
    // next; the seeded plan is deterministic, so this test always
    // exercises the same fault set.
    pmem::FaultPlan plan;
    plan.seed = 1;
    plan.eioLines = 64;
    plan.regionStart = service.shardRuntime(0).pool().allocAligned(
        kCacheLineSize, kCacheLineSize);
    plan.regionEnd = plan.regionStart + (64u << 10);
    service.shardDevice(0).applyFaultPlan(plan);

    std::uint64_t io = 0;
    std::uint64_t ok_after_io = 0;
    std::vector<BatchOpResult> results;
    for (int round = 0; round < 128; ++round) {
        const KvKey first = 1 + static_cast<KvKey>(round) * 8;
        const auto status = service.executeShardBatch(
            0, 0, putBatch(first, 8, 7), results, durability);
        ASSERT_NE(status, BatchStatus::BadRoute);
        ASSERT_NE(status, BatchStatus::ReadOnly);
        if (status == BatchStatus::Io) {
            ++io;
            // The run aborted as a unit: none of its 8 puts may have
            // been applied.
            for (std::size_t i = 0; i < 8; ++i)
                EXPECT_FALSE(
                    service.get(0, first + static_cast<KvKey>(i))
                        .has_value())
                    << "partial apply after Io abort, key "
                    << first + i;
        } else {
            ASSERT_EQ(status, BatchStatus::Ok);
            if (io > 0)
                ++ok_after_io;
            for (std::size_t i = 0; i < 8; ++i) {
                const auto value =
                    service.get(0, first + static_cast<KvKey>(i));
                ASSERT_TRUE(value.has_value());
                EXPECT_TRUE(value->checkTag(
                    first + static_cast<KvKey>(i)));
            }
        }
    }
    EXPECT_GE(io, 1u) << "the fault plan never fired";
    // Aborting rewinds the log tail onto the same bad line; without
    // the retire-on-abort block burning, every retry would hit the
    // identical EIO forever. Recovery within the same plan proves
    // retries make progress.
    EXPECT_GE(ok_after_io, 1u)
        << "no retry ever recovered from a write EIO";
    EXPECT_GE(service.shardMediaAborts(0), io);
    EXPECT_TRUE(service.shardDegraded(0));
    EXPECT_FALSE(service.shardReadOnly(0))
        << "media aborts alone must not flip read-only mode";

    // With the plan lifted the shard serves normally again.
    service.shardDevice(0).clearFaultPlan();
    const auto status = service.executeShardBatch(
        0, 0, putBatch(100000, 8, 9), results, durability);
    EXPECT_EQ(status, BatchStatus::Ok);
    service.shutdown();
}

void
poisonedReadsSurfaceAsIoNeverAsGarbage(const KvServiceConfig &config,
                                       Durability durability)
{
    KvService service(config);
    constexpr KvKey kKeys = 256;
    std::vector<BatchOpResult> results;
    for (KvKey first = 1; first <= kKeys; first += 64)
        ASSERT_EQ(service.executeShardBatch(
                      0, 0, putBatch(first, 64, 5), results,
                      durability),
                  BatchStatus::Ok);

    pmem::FaultPlan plan;
    plan.seed = 3;
    plan.poisonLines = 4000;
    plan.regionStart = 65536;
    service.shardDevice(0).applyFaultPlan(plan);

    // Every get either returns the exact stored value or fails as a
    // typed Io outcome; a poisoned line must never leak bytes.
    std::uint64_t io = 0;
    std::uint64_t hits = 0;
    for (KvKey key = 1; key <= kKeys; ++key) {
        BatchOp op;
        op.kind = BatchOp::Kind::Get;
        op.key = key;
        const auto status =
            service.executeShardBatch(0, 0, {op}, results);
        if (status == BatchStatus::Io) {
            ++io;
            continue;
        }
        ASSERT_EQ(status, BatchStatus::Ok);
        ASSERT_TRUE(results[0].ok) << "key " << key;
        EXPECT_EQ(results[0].value, KvValue::tagged(key, 5));
        ++hits;
    }
    EXPECT_GE(io, 1u) << "the poison plan never fired";
    EXPECT_GE(hits, 1u) << "every single get failed";

    // Inserts under the same plan: their probes read the map, and the
    // commit's checksum pass reads back the log it just wrote, so a
    // poisoned line can abort a batch inside its commit too. Each
    // batch commits whole or aborts whole.
    std::vector<KvKey> inserted;
    std::vector<KvKey> aborted;
    for (KvKey first = kKeys + 1; first <= 2 * kKeys; first += 8) {
        const auto status = service.executeShardBatch(
            0, 0, putBatch(first, 8, 6), results, durability);
        if (status == BatchStatus::Io) {
            ++io;
            aborted.push_back(first);
            continue;
        }
        ASSERT_EQ(status, BatchStatus::Ok);
        inserted.push_back(first);
    }
    EXPECT_FALSE(aborted.empty()) << "no insert met a poisoned line";
    EXPECT_GE(service.shardMediaAborts(0), io);
    EXPECT_GE(service.shardSnapshot(0).device.mediaReadErrors, io);
    EXPECT_TRUE(service.shardDegraded(0));

    // Poison blocks access but corrupts nothing: with the plan
    // cleared, every key reads back exactly as stored, and no key of
    // an aborted batch exists.
    service.shardDevice(0).clearFaultPlan();
    for (KvKey key = 1; key <= kKeys; ++key) {
        const auto value = service.get(0, key);
        ASSERT_TRUE(value.has_value()) << "key " << key;
        EXPECT_EQ(*value, KvValue::tagged(key, 5));
    }
    for (const KvKey first : inserted) {
        for (KvKey key = first; key < first + 8; ++key)
            EXPECT_EQ(service.get(0, key), KvValue::tagged(key, 6));
    }
    for (const KvKey first : aborted) {
        for (KvKey key = first; key < first + 8; ++key)
            EXPECT_FALSE(service.get(0, key).has_value()) << key;
    }
    service.shutdown();
}

TEST(MediaFaults, WriteEioAbortsAtomicallyAndRetriesRecover)
{
    writeEioAbortsAtomicallyAndRetriesRecover(baseConfig(1),
                                              Durability::Strict);
}

TEST(MediaFaults, PoisonedReadsSurfaceAsIoNeverAsGarbage)
{
    poisonedReadsSurfaceAsIoNeverAsGarbage(baseConfig(1),
                                           Durability::Strict);
}

/** The same two fault contracts on a group-commit runtime, where a
 * strict commit seals its epoch and a relaxed one only joins it. */
class GroupCommitMediaFaults
    : public ::testing::TestWithParam<Durability>
{
};

TEST_P(GroupCommitMediaFaults, WriteEioAbortsAtomicallyAndRetriesRecover)
{
    writeEioAbortsAtomicallyAndRetriesRecover(baseConfig(1, true),
                                              GetParam());
}

TEST_P(GroupCommitMediaFaults, PoisonedReadsSurfaceAsIoNeverAsGarbage)
{
    poisonedReadsSurfaceAsIoNeverAsGarbage(baseConfig(1, true),
                                           GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Durability, GroupCommitMediaFaults,
    ::testing::Values(Durability::Strict, Durability::Relaxed),
    [](const ::testing::TestParamInfo<Durability> &info) {
        return info.param == Durability::Strict ? "strict" : "relaxed";
    });

TEST(MediaFaults, RelaxedIoAbortsKeepEpochTimestampsDense)
{
    // Recovery replays an epoch only up to the first gap in its
    // timestamp window, so an Io abort that consumed a timestamp
    // would silently drop every sealed batch committed after it.
    KvServiceConfig config = baseConfig(1, true);
    config.runtimeOptions.backgroundWorkers = false; // nothing seals
    KvService service(config);
    // Poison a few lines just above the hash map, where the log grows
    // next. Log lines are read back mostly by the seal's checksum
    // pass, so most Io aborts strike inside the commit, after the
    // seal has picked its timestamp.
    pmem::FaultPlan plan;
    plan.seed = 1;
    plan.poisonLines = 8;
    plan.regionStart = service.shardRuntime(0).pool().allocAligned(
        kCacheLineSize, kCacheLineSize);
    plan.regionEnd = plan.regionStart + (64u << 10);
    service.shardDevice(0).applyFaultPlan(plan);

    std::uint64_t io = 0;
    std::vector<KvKey> committed;
    std::vector<KvKey> aborted;
    std::vector<BatchOpResult> results;
    for (int round = 0; round < 128; ++round) {
        const KvKey first = 1 + static_cast<KvKey>(round) * 8;
        std::uint64_t ticket = 0;
        const auto status = service.executeShardBatch(
            0, 0, putBatch(first, 8, 7), results, Durability::Relaxed,
            &ticket);
        if (status == BatchStatus::Io) {
            ++io;
            aborted.push_back(first);
            continue;
        }
        ASSERT_EQ(status, BatchStatus::Ok);
        EXPECT_GT(ticket, service.shardSealedEpoch(0));
        committed.push_back(first);
    }
    ASSERT_GE(io, 1u) << "the fault plan never fired";
    ASSERT_FALSE(committed.empty());

    service.shardDevice(0).clearFaultPlan();
    service.sealShardEpoch(0);
    service.crash(pmem::CrashPolicy::nothing());
    service.recover();
    for (const KvKey first : committed) {
        for (KvKey key = first; key < first + 8; ++key) {
            const auto value = service.get(0, key);
            ASSERT_TRUE(value.has_value())
                << "sealed key " << key << " lost in recovery";
            EXPECT_EQ(*value, KvValue::tagged(key, 7));
        }
    }
    for (const KvKey first : aborted) {
        for (KvKey key = first; key < first + 8; ++key)
            EXPECT_FALSE(service.get(0, key).has_value())
                << "aborted key " << key << " replayed";
    }
    service.shutdown();
}

TEST(MediaFaults, PoisonedTailHeaderFailsOnlyOneTransaction)
{
    // txBegin loads the capacity from the header of its thread's tail
    // log block before any segment opens. A poisoned line there must
    // fail that one transaction; the next opens in a fresh block
    // instead of faulting on the same line forever.
    KvServiceConfig config = baseConfig(1);
    config.runtimeOptions.backgroundWorkers = false;
    KvService service(config);
    auto &dev = service.shardDevice(0);
    // Thread 0's tail block: the end of its block chain.
    PmOff tail = service.shardRuntime(0).pool().getRoot(txn::logHeadSlot(0));
    while (const PmOff next =
               dev.loadT<PmOff>(tail + offsetof(core::BlockHeader, next)))
        tail = next;
    pmem::FaultPlan plan;
    plan.poisonLines = 1;
    plan.regionStart = tail;
    plan.regionEnd = tail + kCacheLineSize;
    dev.applyFaultPlan(plan);

    std::vector<BatchOpResult> results;
    EXPECT_EQ(service.executeShardBatch(0, 0, putBatch(1, 1, 5), results),
              BatchStatus::Io);
    ASSERT_EQ(service.executeShardBatch(0, 0, putBatch(1, 1, 6), results),
              BatchStatus::Ok);
    EXPECT_EQ(service.shardMediaAborts(0), 1u);

    service.crash(pmem::CrashPolicy::nothing());
    service.recover();
    EXPECT_EQ(service.get(0, 1), KvValue::tagged(1, 6));
    service.shutdown();
}

TEST(MediaFaults, PoisonedBucketGetReturnsNothingAndDegrades)
{
    KvServiceConfig config = baseConfig(1);
    config.runtimeOptions.backgroundWorkers = false;
    KvService service(config);
    constexpr KvKey kKeys = 64;
    for (KvKey key = 1; key <= kKeys; ++key)
        ASSERT_TRUE(service.put(0, key, KvValue::tagged(key, 7)));
    // The shard has served gets before the plan goes in, so this
    // thread's loads already run without the device lock.
    for (KvKey key = 1; key <= kKeys; ++key)
        ASSERT_EQ(service.get(0, key), KvValue::tagged(key, 7));

    // Find the bucket of one key and poison its first line only.
    using Map = pmds::PmHashMap<KvKey, KvValue>;
    auto &dev = service.shardDevice(0);
    const PmOff base =
        service.shardRuntime(0).pool().getRoot(txn::kAppRootSlotBase);
    constexpr KvKey kKey = 17;
    PmOff bucket = 0;
    for (std::uint64_t i = 0; i < config.bucketsPerShard && bucket == 0;
         ++i) {
        const PmOff off =
            base + sizeof(Map::Header) + i * sizeof(Map::Bucket);
        const auto probed = dev.loadT<Map::Bucket>(off);
        if (probed.state == 1 && probed.key == kKey)
            bucket = off;
    }
    ASSERT_NE(bucket, 0u);
    pmem::FaultPlan plan;
    plan.poisonLines = 1;
    plan.regionStart = lineBase(bucket);
    plan.regionEnd = plan.regionStart + kCacheLineSize;
    dev.applyFaultPlan(plan);

    auto &aborts = obs::Registry::global().counter(
        "specpmt_kv_media_tx_aborts_total");
    const std::uint64_t abortsBefore = aborts.value();
    EXPECT_FALSE(service.get(0, kKey).has_value());
    EXPECT_EQ(aborts.value(), abortsBefore + 1);
    EXPECT_EQ(service.shardMediaAborts(0), 1u);
    EXPECT_TRUE(service.shardDegraded(0));
    EXPECT_FALSE(service.shardReadOnly(0));
    EXPECT_EQ(service.shardSnapshot(0).device.mediaReadErrors, 1u);

    // Lifting the plan brings the value back, read without the lock
    // again, and the journal holds the read's media_fault record.
    dev.clearFaultPlan();
    EXPECT_EQ(service.get(0, kKey), KvValue::tagged(kKey, 7));
    const auto ring = forensic::FlightRecorder::decode(
        dev, dev.loadT<PmOff>(forensic::kFlightRecorderRootSlot *
                              sizeof(PmOff)));
    ASSERT_FALSE(ring.records.empty());
    EXPECT_EQ(ring.records.back().type, forensic::EventType::MediaFault);
    EXPECT_EQ(ring.records.back().arg0, plan.regionStart);
    EXPECT_EQ(ring.records.back().arg1,
              static_cast<std::uint64_t>(
                  pmem::MediaErrorKind::PoisonedRead));
    service.shutdown();
}

TEST(MediaFaults, ForcedReadOnlyRefusesMutationsIndividually)
{
    KvService service(baseConfig(1));
    std::vector<BatchOpResult> results;
    ASSERT_EQ(service.executeShardBatch(0, 0, putBatch(1, 16, 2),
                                        results),
              BatchStatus::Ok);

    service.setShardReadOnly(0, true);
    EXPECT_TRUE(service.shardReadOnly(0));
    EXPECT_TRUE(service.shardDegraded(0));

    // A mixed batch on a read-only shard: reads answer, mutations
    // are refused per-op with the typed flag, and nothing is staged.
    std::vector<BatchOp> mixed;
    BatchOp get;
    get.kind = BatchOp::Kind::Get;
    get.key = 1;
    mixed.push_back(get);
    BatchOp put;
    put.kind = BatchOp::Kind::Put;
    put.key = 500;
    put.value = KvValue::tagged(500, 9);
    mixed.push_back(put);
    BatchOp erase;
    erase.kind = BatchOp::Kind::Erase;
    erase.key = 2;
    mixed.push_back(erase);
    ASSERT_EQ(service.executeShardBatch(0, 0, mixed, results),
              BatchStatus::Ok);
    EXPECT_TRUE(results[0].ok);
    EXPECT_EQ(results[0].value, KvValue::tagged(1, 2));
    EXPECT_FALSE(results[1].ok);
    EXPECT_TRUE(results[1].rejectedReadOnly);
    EXPECT_FALSE(results[2].ok);
    EXPECT_TRUE(results[2].rejectedReadOnly);
    EXPECT_FALSE(service.get(0, 500).has_value());
    EXPECT_TRUE(service.get(0, 2).has_value())
        << "the refused erase must not have removed the key";

    // Clearing the mode restores full service.
    service.setShardReadOnly(0, false);
    EXPECT_FALSE(service.shardReadOnly(0));
    ASSERT_EQ(service.executeShardBatch(0, 0, {mixed[1]}, results),
              BatchStatus::Ok);
    EXPECT_TRUE(results[0].ok);
    EXPECT_TRUE(service.get(0, 500).has_value());
    service.shutdown();
}

TEST(MediaFaults, LogExhaustionFlipsReadOnlyAndReadsSurvive)
{
    // A deliberately tiny pool: sustained overwrites outrun log
    // reclamation, and the PoolExhausted throw must degrade the
    // shard to read-only instead of killing the service.
    KvServiceConfig config = baseConfig(1);
    config.shardPoolBytes = 2u << 20;
    KvService service(config);

    constexpr KvKey kKeys = 512;
    std::vector<BatchOpResult> results;
    bool exhausted = false;
    std::uint64_t payload = 1;
    for (int round = 0; round < 800 && !exhausted; ++round) {
        for (KvKey first = 1; first <= kKeys && !exhausted;
             first += 256) {
            const auto status = service.executeShardBatch(
                0, 0, putBatch(first, 256, payload), results);
            ++payload;
            if (status == BatchStatus::ReadOnly)
                exhausted = true;
            else
                ASSERT_EQ(status, BatchStatus::Ok);
        }
    }
    ASSERT_TRUE(exhausted)
        << "the 2 MiB pool never ran out of log space";
    EXPECT_TRUE(service.shardReadOnly(0));
    EXPECT_TRUE(service.shardDegraded(0));

    // Reads still work over the degraded shard, and every readable
    // value is untorn (the aborted exhausting run applied nothing
    // torn).
    std::uint64_t readable = 0;
    for (KvKey key = 1; key <= kKeys; ++key) {
        const auto value = service.get(0, key);
        if (!value.has_value())
            continue;
        EXPECT_TRUE(value->checkTag(key)) << "key " << key;
        ++readable;
    }
    EXPECT_GE(readable, 1u);

    // Read-only sticks: further mutations are refused per-op.
    ASSERT_EQ(service.executeShardBatch(0, 0, putBatch(1, 1, 99),
                                        results),
              BatchStatus::Ok);
    EXPECT_TRUE(results[0].rejectedReadOnly);
    service.shutdown();
}

TEST(MediaFaults, EveryEntryPointDegradesInsteadOfDying)
{
    // No reclaimer and a 1 MiB pool: puts cycling over 512 keys
    // outgrow the log within a few thousand updates.
    KvServiceConfig config = baseConfig(1);
    config.shardPoolBytes = 1u << 20;
    config.bucketsPerShard = 1024;
    config.runtimeOptions.backgroundWorkers = false;
    KvService service(config);
    constexpr KvKey kKeys = 512;

    // A put() hit by a media fault aborts as a unit and reports
    // false; the thread's next put() opens a fresh transaction.
    ASSERT_TRUE(service.put(0, 1, KvValue::tagged(1, 0)));
    pmem::FaultPlan every_line;
    every_line.seed = 1;
    every_line.eioLines = config.shardPoolBytes / kCacheLineSize;
    service.shardDevice(0).applyFaultPlan(every_line);
    EXPECT_FALSE(service.put(0, 1, KvValue::tagged(1, 1)));
    EXPECT_EQ(service.shardMediaAborts(0), 1u);
    service.shardDevice(0).clearFaultPlan();
    EXPECT_TRUE(service.put(0, 1, KvValue::tagged(1, 2)));
    EXPECT_EQ(service.get(0, 1), KvValue::tagged(1, 2));

    std::uint64_t puts = 0;
    while (service.put(0, 1 + puts % kKeys,
                       KvValue::tagged(1 + puts % kKeys, puts))) {
        ++puts;
        ASSERT_LT(puts, 1000000u)
            << "the 1 MiB pool never ran out of log space";
    }
    EXPECT_GT(puts, kKeys);
    EXPECT_TRUE(service.shardReadOnly(0));

    // Every mutating entry point now refuses instead of throwing.
    EXPECT_FALSE(service.put(0, 1, KvValue::tagged(1, 3)));
    EXPECT_FALSE(service.erase(0, 2));
    EXPECT_FALSE(service.multiPut(
        0, {{3, KvValue::tagged(3, 3)}, {4, KvValue::tagged(4, 3)}}));
    std::vector<BatchOpResult> results;
    ASSERT_EQ(service.executeShardBatch(0, 0, putBatch(5, 1, 3),
                                        results),
              BatchStatus::Ok);
    EXPECT_TRUE(results[0].rejectedReadOnly);

    // Gets keep answering with untorn values.
    for (KvKey key = 1; key <= kKeys; ++key) {
        const auto value = service.get(0, key);
        ASSERT_TRUE(value.has_value()) << "key " << key;
        EXPECT_TRUE(value->checkTag(key)) << "key " << key;
    }
    service.shutdown();
}

TEST(MediaFaults, PmDirReattachRecoversEveryStrictPut)
{
    // File-backed persistence domain: strict puts, tear the service
    // down, reopen the same directory — the constructor reattaches
    // the images, replays recovery, and every put is intact.
    namespace fs = std::filesystem;
    char tmpl[] = "/tmp/specpmt_pmdir_test.XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    const std::string pm_dir = tmpl;

    KvServiceConfig config = baseConfig(2);
    config.pmDir = pm_dir;
    constexpr KvKey kKeys = 64;
    {
        KvService service(config);
        std::uint64_t payload = 11;
        for (KvKey key = 1; key <= kKeys; ++key)
            ASSERT_TRUE(service.put(service.shardOf(key) == 0 ? 0 : 1,
                                    key,
                                    KvValue::tagged(key, payload)))
                << "key " << key;
        service.shutdown();
    }

    {
        KvService revived(config);
        for (unsigned s = 0; s < 2; ++s)
            EXPECT_TRUE(revived.shardDevice(s).hadExistingData())
                << "shard " << s << " did not reattach its image";
        for (KvKey key = 1; key <= kKeys; ++key) {
            const auto value = revived.get(0, key);
            ASSERT_TRUE(value.has_value()) << "key " << key;
            EXPECT_EQ(*value, KvValue::tagged(key, 11));
        }
        revived.shutdown();
    }
    fs::remove_all(pm_dir);
}

} // namespace
} // namespace specpmt::kv
