/**
 * @file
 * Unit tests for software SpecPMT: speculative log format, commit
 * protocol, recovery, abort, log reclamation/compaction, external
 * data adoption, and mechanism switching.
 */

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>

#include "core/spec_tx.hh"
#include "obs/metrics.hh"
#include "pmem/pmem_device.hh"
#include "pmem/pmem_pool.hh"
#include "txn/undo_tx.hh"

namespace specpmt::core
{
namespace
{

SpecTxConfig
testConfig(bool dp = false, std::size_t block = 256)
{
    SpecTxConfig config;
    config.dataPersistOnCommit = dp;
    config.backgroundReclaim = false;
    config.logBlockSize = block;
    return config;
}

class SpecTxTest : public ::testing::Test
{
  protected:
    SpecTxTest()
        : dev_(16u << 20), pool_(dev_), tx_(pool_, 1, testConfig())
    {}

    /** Initialize a slot array through committed transactions. */
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

    pmem::PmemDevice dev_;
    pmem::PmemPool pool_;
    SpecTx tx_;
};

TEST_F(SpecTxTest, SingleFencePerCommitNoFencePerStore)
{
    const PmOff off = initSlots(32);
    const auto fences_before = dev_.stats().fences;
    tx_.txBegin(0);
    for (unsigned i = 0; i < 32; ++i)
        tx_.txStoreT<std::uint64_t>(0, off + i * 8, i * 10);
    tx_.txCommit(0);
    EXPECT_EQ(dev_.stats().fences - fences_before, 1u)
        << "speculative logging commits with exactly one sfence";
}

TEST_F(SpecTxTest, DataIsNeverExplicitlyFlushed)
{
    const PmOff off = initSlots(8);
    const auto data_clwbs = dev_.stats().clwbs[0];
    tx_.txBegin(0);
    tx_.txStoreT<std::uint64_t>(0, off, 99);
    tx_.txCommit(0);
    EXPECT_EQ(dev_.stats().clwbs[0], data_clwbs)
        << "SpecSPMT elides data persistence entirely";
    EXPECT_GT(dev_.stats().clwbs[1], 0u) << "but does flush the log";
}

TEST_F(SpecTxTest, DpVariantFlushesDataAtCommitStillOneFence)
{
    pmem::PmemDevice dev(16u << 20);
    pmem::PmemPool pool(dev);
    SpecTx tx(pool, 1, testConfig(/*dp=*/true));
    const PmOff off = pool.alloc(64);

    const auto fences_before = dev.stats().fences;
    const auto data_clwbs = dev.stats().clwbs[0];
    tx.txBegin(0);
    for (unsigned i = 0; i < 8; ++i)
        tx.txStoreT<std::uint64_t>(0, off + i * 8, i);
    tx.txCommit(0);
    EXPECT_EQ(dev.stats().fences - fences_before, 1u);
    EXPECT_EQ(dev.stats().clwbs[0] - data_clwbs, 1u)
        << "8 contiguous u64 = 1 data cache line";
}

TEST_F(SpecTxTest, CommittedTxSurvivesAdversarialCrashViaReplay)
{
    const PmOff off = initSlots(4);
    tx_.txBegin(0);
    tx_.txStoreT<std::uint64_t>(0, off, 1111);
    tx_.txCommit(0);

    // No data line was flushed; the log alone must reconstruct it.
    dev_.simulateCrash(pmem::CrashPolicy::nothing());
    pool_.reopenAfterCrash();
    SpecTx fresh(pool_, 1, testConfig());
    fresh.recover();
    EXPECT_EQ(dev_.loadT<std::uint64_t>(off), 1111u);
}

TEST_F(SpecTxTest, UncommittedTxIsRevokedEvenIfDataDrained)
{
    const PmOff off = initSlots(4);
    tx_.txBegin(0);
    tx_.txStoreT<std::uint64_t>(0, off, 2222);
    // Everything drains: the uncommitted in-place update hit PM, and
    // so did torn pieces of its (unchecksummed) log segment.
    dev_.simulateCrash(pmem::CrashPolicy::everything());
    pool_.reopenAfterCrash();
    SpecTx fresh(pool_, 1, testConfig());
    fresh.recover();
    EXPECT_EQ(dev_.loadT<std::uint64_t>(off), 0u)
        << "the older committed record must undo the interrupted tx";
}

TEST_F(SpecTxTest, RepeatedUpdatesProduceOneLogEntry)
{
    const PmOff off = initSlots(1);
    const auto bytes_before = tx_.logBytesInUse();
    const auto tail_probe = dev_.stats().storeBytes;
    tx_.txBegin(0);
    for (unsigned i = 0; i < 100; ++i)
        tx_.txStoreT<std::uint64_t>(0, off, i);
    tx_.txCommit(0);
    EXPECT_EQ(dev_.loadT<std::uint64_t>(off), 99u);
    // 100 updates, but the log grew by at most one block.
    EXPECT_LE(tx_.logBytesInUse() - bytes_before, 256u);
    (void)tail_probe;

    // Recovery replays the last value.
    dev_.simulateCrash(pmem::CrashPolicy::nothing());
    pool_.reopenAfterCrash();
    SpecTx fresh(pool_, 1, testConfig());
    fresh.recover();
    EXPECT_EQ(dev_.loadT<std::uint64_t>(off), 99u);
}

TEST_F(SpecTxTest, ReadOnlyCommitCostsNothing)
{
    initSlots(1);
    const auto fences = dev_.stats().fences;
    const auto clwbs = dev_.stats().totalClwbs();
    tx_.txBegin(0);
    tx_.txCommit(0);
    EXPECT_EQ(dev_.stats().fences, fences);
    EXPECT_EQ(dev_.stats().totalClwbs(), clwbs);
}

TEST_F(SpecTxTest, MultiSegmentTxCommitsAtomically)
{
    // 256-byte blocks force a large tx to span several blocks.
    const PmOff off = initSlots(200);
    tx_.txBegin(0);
    for (unsigned i = 0; i < 200; ++i)
        tx_.txStoreT<std::uint64_t>(0, off + i * 8, i + 1000);
    tx_.txCommit(0);

    dev_.simulateCrash(pmem::CrashPolicy::nothing());
    pool_.reopenAfterCrash();
    SpecTx fresh(pool_, 1, testConfig());
    fresh.recover();
    for (unsigned i = 0; i < 200; ++i)
        EXPECT_EQ(dev_.loadT<std::uint64_t>(off + i * 8), i + 1000);
}

TEST_F(SpecTxTest, MultiSegmentUncommittedTxFullyRevoked)
{
    const PmOff off = initSlots(200);
    tx_.txBegin(0);
    for (unsigned i = 0; i < 200; ++i)
        tx_.txStoreT<std::uint64_t>(0, off + i * 8, i + 5000);
    // no commit
    dev_.simulateCrash(pmem::CrashPolicy::everything());
    pool_.reopenAfterCrash();
    SpecTx fresh(pool_, 1, testConfig());
    fresh.recover();
    for (unsigned i = 0; i < 200; ++i)
        EXPECT_EQ(dev_.loadT<std::uint64_t>(off + i * 8), i);
}

TEST_F(SpecTxTest, AbortRestoresAndRuntimeStaysUsable)
{
    const PmOff off = initSlots(8);
    tx_.txBegin(0);
    for (unsigned i = 0; i < 8; ++i)
        tx_.txStoreT<std::uint64_t>(0, off + i * 8, 777);
    tx_.txAbort(0);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(dev_.loadT<std::uint64_t>(off + i * 8), i);

    tx_.txBegin(0);
    tx_.txStoreT<std::uint64_t>(0, off, 888);
    tx_.txCommit(0);
    EXPECT_EQ(dev_.loadT<std::uint64_t>(off), 888u);

    // Post-abort recovery must still be coherent.
    dev_.simulateCrash(pmem::CrashPolicy::nothing());
    pool_.reopenAfterCrash();
    SpecTx fresh(pool_, 1, testConfig());
    fresh.recover();
    EXPECT_EQ(dev_.loadT<std::uint64_t>(off), 888u);
    for (unsigned i = 1; i < 8; ++i)
        EXPECT_EQ(dev_.loadT<std::uint64_t>(off + i * 8), i);
}

TEST_F(SpecTxTest, AbortOfMultiBlockTxReleasesBlocks)
{
    const PmOff off = initSlots(200);
    const auto bytes_before = tx_.logBytesInUse();
    tx_.txBegin(0);
    for (unsigned i = 0; i < 200; ++i)
        tx_.txStoreT<std::uint64_t>(0, off + i * 8, 9);
    tx_.txAbort(0);
    // At most the (possibly fresh) tail block is retained.
    EXPECT_LE(tx_.logBytesInUse(), bytes_before + 256);
}

TEST_F(SpecTxTest, ReclamationRemovesStaleRecordsKeepsNewest)
{
    const PmOff off = initSlots(4);
    // Many committed updates of the same 4 slots -> mostly stale log.
    for (unsigned round = 0; round < 200; ++round) {
        tx_.txBegin(0);
        for (unsigned i = 0; i < 4; ++i)
            tx_.txStoreT<std::uint64_t>(0, off + i * 8,
                                        round * 10 + i);
        tx_.txCommit(0);
    }
    const auto before = tx_.logBytesInUse();
    tx_.reclaimNow();
    const auto after = tx_.logBytesInUse();
    EXPECT_LT(after, before / 4) << "compaction must reclaim stale log";
    EXPECT_GT(tx_.reclaimCycles(), 0u);

    // The newest committed values must still be recoverable.
    dev_.simulateCrash(pmem::CrashPolicy::nothing());
    pool_.reopenAfterCrash();
    SpecTx fresh(pool_, 1, testConfig());
    fresh.recover();
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(dev_.loadT<std::uint64_t>(off + i * 8), 1990u + i);
}

TEST_F(SpecTxTest, ReclamationPreservesRevocability)
{
    const PmOff off = initSlots(4);
    for (unsigned round = 0; round < 50; ++round) {
        tx_.txBegin(0);
        tx_.txStoreT<std::uint64_t>(0, off, round);
        tx_.txCommit(0);
    }
    tx_.reclaimNow();

    // An uncommitted update after reclamation must still be revocable
    // by the surviving (compacted) newest record.
    tx_.txBegin(0);
    tx_.txStoreT<std::uint64_t>(0, off, 12345);
    dev_.simulateCrash(pmem::CrashPolicy::everything());
    pool_.reopenAfterCrash();
    SpecTx fresh(pool_, 1, testConfig());
    fresh.recover();
    EXPECT_EQ(dev_.loadT<std::uint64_t>(off), 49u);
}

TEST_F(SpecTxTest, BackgroundReclaimerBoundsLogGrowth)
{
    pmem::PmemDevice dev(64u << 20);
    pmem::PmemPool pool(dev);
    SpecTxConfig config;
    config.backgroundReclaim = true;
    config.logBlockSize = 4096;
    config.reclaimThresholdBytes = 64 * 1024;
    SpecTx tx(pool, 1, config);

    const PmOff off = pool.alloc(64);
    tx.txBegin(0);
    for (unsigned i = 0; i < 8; ++i)
        tx.txStoreT<std::uint64_t>(0, off + i * 8, 0);
    tx.txCommit(0);

    for (unsigned round = 0; round < 20000; ++round) {
        tx.txBegin(0);
        tx.txStoreT<std::uint64_t>(0, off + (round % 8) * 8, round);
        tx.txCommit(0);
    }
    tx.shutdown();
    EXPECT_GT(tx.reclaimCycles(), 0u);
    EXPECT_LT(tx.logBytesInUse(), 4u << 20)
        << "background reclamation must bound the log";
    EXPECT_EQ(dev.loadT<std::uint64_t>(off + (19999 % 8) * 8), 19999u);
}

/** Background reclaimer on, 4 KiB blocks, a 64 KiB threshold. */
SpecTxConfig
backgroundConfig()
{
    SpecTxConfig config;
    config.backgroundReclaim = true;
    config.logBlockSize = 4096;
    config.reclaimThresholdBytes = 64 * 1024;
    return config;
}

TEST(SpecTxReclaim, GrowthTriggerIdlesOnAllFreshLog)
{
    // Every record is its slot's newest, so no cycle can compact
    // anything. One cycle runs when the log first crosses the
    // threshold; the next waits until the log has doubled, which it
    // never does here. (Polling on the threshold alone ran a cycle
    // every 2 ms.)
    pmem::PmemDevice dev(16u << 20);
    pmem::PmemPool pool(dev);
    const SpecTxConfig config = backgroundConfig();
    SpecTx tx(pool, 1, config);

    constexpr unsigned kSlots = 2048; // 48 log bytes each: ~96 KiB
    const PmOff off = pool.alloc(kSlots * 8);
    for (unsigned i = 0; i < kSlots; ++i) {
        tx.txBegin(0);
        tx.txStoreT<std::uint64_t>(0, off + i * 8, i + 1);
        tx.txCommit(0);
    }
    ASSERT_GT(tx.logBytesInUse(), config.reclaimThresholdBytes);
    ASSERT_LT(tx.logBytesInUse(), 2 * config.reclaimThresholdBytes);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_GE(tx.reclaimCycles(), 1u);
    EXPECT_LE(tx.reclaimCycles(), 2u);
}

/**
 * Fill a log up to its threshold with compactable records, let
 * @p sabotage doom the next background cycle, and cross the threshold.
 * The cycle must give up without touching the chain and count the
 * failure; the worker keeps committing, and recovery returns every
 * committed value.
 */
void
expectBackgroundCycleFailureSurvived(
    const std::function<void(pmem::PmemDevice &, pmem::PmemPool &)>
        &sabotage)
{
    pmem::PmemDevice dev(4u << 20);
    pmem::PmemPool pool(dev);
    const SpecTxConfig config = backgroundConfig();
    auto tx = std::make_unique<SpecTx>(pool, 1, config);
    auto &failures = obs::Registry::global().counter(
        "specpmt_reclaim_failures_total");
    const std::uint64_t failures_before = failures.value();

    // A 48-byte value makes a transaction 88 log bytes, so 46 fill a
    // block and none straddles two: the frozen span is compactable.
    using Value = std::array<std::uint64_t, 6>;
    constexpr unsigned kSlots = 4;
    const PmOff off = pool.alloc(kSlots * sizeof(Value));
    std::array<std::uint64_t, kSlots> last{};
    std::uint64_t round = 0;
    auto commit = [&] {
        const unsigned slot = round % kSlots;
        Value value;
        value.fill(++round);
        tx->txBegin(0);
        tx->txStoreT(0, off + slot * sizeof(Value), value);
        tx->txCommit(0);
        last[slot] = round;
    };

    while (tx->logBytesInUse() < config.reclaimThresholdBytes)
        commit();
    ASSERT_EQ(tx->reclaimCycles(), 0u);
    sabotage(dev, pool);
    while (tx->logBytesInUse() <= config.reclaimThresholdBytes)
        commit();

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (failures.value() == failures_before &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    for (int i = 0; i < 8; ++i)
        commit();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(failures.value() - failures_before, 1u);
    EXPECT_EQ(tx->reclaimCycles(), 0u);

    tx.reset();
    dev.simulateCrash(pmem::CrashPolicy::nothing());
    pool.reopenAfterCrash();
    SpecTx recovered(pool, 1, testConfig());
    recovered.recover();
    for (unsigned slot = 0; slot < kSlots; ++slot) {
        const auto value =
            dev.loadT<Value>(off + slot * sizeof(Value));
        for (std::uint64_t word : value)
            EXPECT_EQ(word, last[slot]) << "slot " << slot;
    }
}

TEST(SpecTxReclaim, BackgroundCycleSurvivesPoolExhaustion)
{
    // Room for exactly one more log block: the one that takes the log
    // past its threshold. The compact block cannot be allocated.
    expectBackgroundCycleFailureSurvived(
        [](pmem::PmemDevice &dev, pmem::PmemPool &pool) {
            pool.reserveBelow(dev.size() - backgroundConfig().logBlockSize);
        });
}

TEST(SpecTxReclaim, BackgroundCycleSurvivesPoisonedFrozenBlock)
{
    // A poisoned line in the oldest block faults the cycle's walk.
    expectBackgroundCycleFailureSurvived(
        [](pmem::PmemDevice &dev, pmem::PmemPool &pool) {
            const PmOff head = pool.getRoot(txn::logHeadSlot(0));
            pmem::FaultPlan plan;
            plan.poisonLines = 1;
            plan.regionStart = head + kCacheLineSize;
            plan.regionEnd = head + 2 * kCacheLineSize;
            dev.applyFaultPlan(plan);
        });
}

TEST_F(SpecTxTest, CrashDuringCompactionIsRecoverable)
{
    const PmOff off = initSlots(8);
    for (unsigned round = 0; round < 100; ++round) {
        tx_.txBegin(0);
        tx_.txStoreT<std::uint64_t>(0, off + (round % 8) * 8, round);
        tx_.txCommit(0);
    }
    // Crash somewhere inside the compaction cycle: sweep countdowns
    // until one lands inside it (the cycle's op count varies with the
    // log contents).
    bool crashed = false;
    for (long countdown : {5L, 11L, 23L, 37L, 61L}) {
        dev_.armCrash(countdown);
        try {
            tx_.reclaimNow();
        } catch (const pmem::SimulatedCrash &) {
            crashed = true;
            break;
        }
    }
    dev_.armCrash(-1);
    EXPECT_TRUE(crashed) << "no countdown landed inside compaction";

    dev_.simulateCrash(pmem::CrashPolicy::random(7, 0.5));
    pool_.reopenAfterCrash();
    SpecTx fresh(pool_, 1, testConfig());
    fresh.recover();
    for (unsigned i = 0; i < 8; ++i) {
        // Last committed value of slot i among rounds 0..99.
        const std::uint64_t expected = 96 + i >= 100 ? 88 + i : 96 + i;
        EXPECT_EQ(dev_.loadT<std::uint64_t>(off + i * 8), expected);
    }
}

TEST_F(SpecTxTest, AdoptExternalMakesForeignDataRevocable)
{
    // Simulate external data: written outside any transaction.
    const PmOff off = pool_.alloc(64);
    for (unsigned i = 0; i < 8; ++i)
        dev_.storeT<std::uint64_t>(off + i * 8, 100 + i);
    dev_.drainAll();

    tx_.adoptExternal(0, off, 64);
    tx_.txBegin(0);
    tx_.txStoreT<std::uint64_t>(0, off, 55555);
    dev_.simulateCrash(pmem::CrashPolicy::everything());
    pool_.reopenAfterCrash();
    SpecTx fresh(pool_, 1, testConfig());
    fresh.recover();
    EXPECT_EQ(dev_.loadT<std::uint64_t>(off), 100u)
        << "snapshot record must revoke the interrupted update";
}

TEST_F(SpecTxTest, SwitchMechanismHandsOffCleanly)
{
    const PmOff off = initSlots(8);
    tx_.txBegin(0);
    tx_.txStoreT<std::uint64_t>(0, off, 321);
    tx_.txCommit(0);
    tx_.switchMechanism();
    EXPECT_EQ(tx_.logBytesInUse(), 0u);

    // Data must be durable without any speculative log left.
    {
        auto image = dev_.crashImage(pmem::CrashPolicy::nothing());
        std::uint64_t persisted;
        std::memcpy(&persisted, image.data() + off, 8);
        EXPECT_EQ(persisted, 321u);
    }

    // An undo-logging runtime takes over the same pool.
    txn::PmdkUndoTx pmdk(pool_, 1);
    pmdk.txBegin(0);
    pmdk.txStoreT<std::uint64_t>(0, off, 654);
    pmdk.txCommit(0);
    dev_.simulateCrash(pmem::CrashPolicy::nothing());
    EXPECT_EQ(dev_.loadT<std::uint64_t>(off), 654u);
}

TEST_F(SpecTxTest, DoubleCrashDoubleRecovery)
{
    const PmOff off = initSlots(4);
    tx_.txBegin(0);
    tx_.txStoreT<std::uint64_t>(0, off, 10);
    tx_.txCommit(0);

    dev_.simulateCrash(pmem::CrashPolicy::nothing());
    pool_.reopenAfterCrash();
    auto second = std::make_unique<SpecTx>(pool_, 1, testConfig());
    second->recover();
    second->txBegin(0);
    second->txStoreT<std::uint64_t>(0, off, 20);
    second->txCommit(0);
    second.reset();

    dev_.simulateCrash(pmem::CrashPolicy::nothing());
    pool_.reopenAfterCrash();
    SpecTx third(pool_, 1, testConfig());
    third.recover();
    EXPECT_EQ(dev_.loadT<std::uint64_t>(off), 20u);
}

TEST_F(SpecTxTest, CrashDuringRecoveryThenRecoverAgain)
{
    const PmOff off = initSlots(16);
    tx_.txBegin(0);
    for (unsigned i = 0; i < 16; ++i)
        tx_.txStoreT<std::uint64_t>(0, off + i * 8, 900 + i);
    tx_.txCommit(0);

    dev_.simulateCrash(pmem::CrashPolicy::nothing());
    pool_.reopenAfterCrash();
    {
        SpecTx interrupted(pool_, 1, testConfig());
        dev_.armCrash(9);
        EXPECT_THROW(interrupted.recover(), pmem::SimulatedCrash);
        dev_.armCrash(-1);
    }
    dev_.simulateCrash(pmem::CrashPolicy::random(3, 0.5));
    pool_.reopenAfterCrash();
    SpecTx fresh(pool_, 1, testConfig());
    fresh.recover();
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(dev_.loadT<std::uint64_t>(off + i * 8), 900 + i);
}

TEST_F(SpecTxTest, RecoveryFlushesEachReplayedLineOnce)
{
    // Fifty committed records rewrite one 8-byte slot: the replay
    // stores all of them, then writes the slot's line back once.
    const PmOff off = initSlots(1);
    for (std::uint64_t round = 1; round <= 50; ++round) {
        tx_.txBegin(0);
        tx_.txStoreT<std::uint64_t>(0, off, round);
        tx_.txCommit(0);
    }
    dev_.simulateCrash(pmem::CrashPolicy::nothing());
    pool_.reopenAfterCrash();
    SpecTx fresh(pool_, 1, testConfig());
    const auto data_clwbs =
        dev_.stats().clwbs[static_cast<unsigned>(pmem::TrafficClass::Data)];
    fresh.recover();
    EXPECT_EQ(dev_.loadT<std::uint64_t>(off), 50u);
    EXPECT_EQ(dev_.stats()
                      .clwbs[static_cast<unsigned>(pmem::TrafficClass::Data)] -
                  data_clwbs,
              1u);
}

TEST_F(SpecTxTest, RecoveryLeavesEveryReplayedLineDurable)
{
    for (const pmem::CrashPolicy &policy :
         {pmem::CrashPolicy::nothing(), pmem::CrashPolicy::everything(),
          pmem::CrashPolicy::random(5)}) {
        SCOPED_TRACE(pmem::crashModeName(policy.mode));
        pmem::PmemDevice dev(4u << 20);
        pmem::PmemPool pool(dev);
        PmOff off = kPmNull;
        {
            SpecTx tx(pool, 1, testConfig());
            off = pool.alloc(64 * 8);
            for (std::uint64_t round = 0; round < 40; ++round) {
                tx.txBegin(0);
                for (unsigned i = 0; i < 64; i += 1 + round % 5)
                    tx.txStoreT<std::uint64_t>(0, off + i * 8, round + i);
                tx.txCommit(0);
            }
            // One interrupted transaction for the replay to undo.
            tx.txBegin(0);
            tx.txStoreT<std::uint64_t>(0, off, 999);
            dev.simulateCrash(policy);
        }
        pool.reopenAfterCrash();
        SpecTx fresh(pool, 1, testConfig());
        fresh.recover();
        EXPECT_EQ(dev.dirtyLineCount(), 0u);
        const auto image = dev.crashImage(pmem::CrashPolicy::nothing());
        EXPECT_EQ(std::memcmp(image.data(), dev.raw(), dev.size()), 0);
    }
}

TEST_F(SpecTxTest, DedupNeverRewritesAnEntryAnOverlappingStoreFollows)
{
    // (A,8) is logged, then (A,16) overlaps it, then (A,8) again.
    // Rewriting the first entry in place would put the last value
    // before the (A,16) entry in replay order.
    const PmOff off = initSlots(2);
    const std::uint64_t pair[2] = {7, 8};
    tx_.txBegin(0);
    tx_.txStoreT<std::uint64_t>(0, off, 1);
    tx_.txStore(0, off, pair, sizeof(pair));
    tx_.txStoreT<std::uint64_t>(0, off, 2);
    tx_.txCommit(0);

    dev_.simulateCrash(pmem::CrashPolicy::nothing());
    pool_.reopenAfterCrash();
    SpecTx fresh(pool_, 1, testConfig());
    fresh.recover();
    EXPECT_EQ(dev_.loadT<std::uint64_t>(off), 2u);
    EXPECT_EQ(dev_.loadT<std::uint64_t>(off + 8), 8u);
}

TEST_F(SpecTxTest, ZeroRangeLogsOneHeadOnlyEntry)
{
    const PmOff off = initSlots(1280); // 10 KiB of committed data
    const PmOff head = pool_.getRoot(txn::logHeadSlot(0));
    tx_.txBegin(0);
    tx_.txZero(0, off, 1280 * 8);
    tx_.txCommit(0);
    for (unsigned i = 0; i < 1280; ++i)
        ASSERT_EQ(dev_.loadT<std::uint64_t>(off + i * 8), 0u) << i;

    DecodedLog log;
    walkChain(dev_, head, log);
    ASSERT_FALSE(log.segments.empty());
    const DecodedSegment &last = log.segments.back();
    ASSERT_EQ(last.entries.size(), 1u);
    EXPECT_TRUE(log.entriesIn(last.entries)[0].zero);
    EXPECT_EQ(log.entriesIn(last.entries)[0].dataOff, off);
    EXPECT_EQ(log.entriesIn(last.entries)[0].size, 1280u * 8);
    EXPECT_EQ(last.sizeBytes, sizeof(SegHead) + sizeof(EntryHead));
}

TEST_F(SpecTxTest, ZeroThenStoreIsAtomicAtEveryCrashPoint)
{
    // Sixteen slots hold committed values 1..16 (drained to PM). The
    // transaction under test zeroes them all and stores two of them
    // again; every crash point must recover all-old or all-new.
    constexpr unsigned kSlots = 16;
    const auto old_value = [](unsigned i) -> std::uint64_t {
        return i + 1;
    };
    const auto new_value = [](unsigned i) -> std::uint64_t {
        return i == 3 ? 333 : i == 10 ? 1010 : 0;
    };
    for (const pmem::CrashPolicy &policy :
         {pmem::CrashPolicy::nothing(), pmem::CrashPolicy::everything(),
          pmem::CrashPolicy::random(9)}) {
        SCOPED_TRACE(pmem::crashModeName(policy.mode));
        bool completed = false;
        for (long point = 1; !completed; ++point) {
            SCOPED_TRACE("crash point " + std::to_string(point));
            ASSERT_LT(point, 1000) << "the transaction never completed";
            pmem::PmemDevice dev(1u << 20);
            pmem::PmemPool pool(dev);
            PmOff off = kPmNull;
            {
                SpecTx tx(pool, 1, testConfig());
                off = pool.alloc(kSlots * 8);
                tx.txBegin(0);
                for (unsigned i = 0; i < kSlots; ++i)
                    tx.txStoreT<std::uint64_t>(0, off + i * 8,
                                               old_value(i));
                tx.txCommit(0);
                dev.drainAll();

                dev.armCrash(point);
                try {
                    tx.txBegin(0);
                    tx.txZero(0, off, kSlots * 8);
                    tx.txStoreT<std::uint64_t>(0, off + 3 * 8, 333);
                    tx.txStoreT<std::uint64_t>(0, off + 10 * 8, 1010);
                    tx.txCommit(0);
                    completed = true;
                } catch (const pmem::SimulatedCrash &) {
                }
                dev.armCrash(-1);
                dev.simulateCrash(policy);
            }
            pool.reopenAfterCrash();
            SpecTx fresh(pool, 1, testConfig());
            fresh.recover();
            bool all_old = true;
            bool all_new = true;
            for (unsigned i = 0; i < kSlots; ++i) {
                const auto got = dev.loadT<std::uint64_t>(off + i * 8);
                all_old = all_old && got == old_value(i);
                all_new = all_new && got == new_value(i);
            }
            EXPECT_TRUE(all_old || all_new);
            EXPECT_TRUE(!completed || all_new)
                << "a committed zeroing was lost";
        }
    }
}

TEST_F(SpecTxTest, ReclaimKeepsZeroRangeAndDropsSupersededRecords)
{
    // 64 slots of nonzero committed data reach PM, then one
    // transaction zeroes them and 50 rounds rewrite slots 0..7.
    constexpr unsigned kSlots = 64;
    const PmOff off = pool_.alloc(kSlots * 8);
    tx_.txBegin(0);
    for (unsigned i = 0; i < kSlots; ++i)
        tx_.txStoreT<std::uint64_t>(0, off + i * 8, 0xAA00 + i);
    tx_.txCommit(0);
    dev_.drainAll();
    tx_.txBegin(0);
    tx_.txZero(0, off, kSlots * 8);
    tx_.txCommit(0);
    for (std::uint64_t round = 0; round < 50; ++round) {
        tx_.txBegin(0);
        for (unsigned i = 0; i < 8; ++i)
            tx_.txStoreT<std::uint64_t>(0, off + i * 8, round * 100 + i);
        tx_.txCommit(0);
    }
    tx_.reclaimNow();

    // The zero range survives. Of the rewritten slots' 51 records
    // each, only the newest of the compacted span and those in the
    // open tail block remain; the pre-zeroing ones are gone.
    unsigned zero_ranges = 0;
    std::array<unsigned, 8> slot_records{};
    bool pre_zero_record = false;
    DecodedLog log;
    walkChain(dev_, pool_.getRoot(txn::logHeadSlot(0)), log);
    for (const auto &entry : log.entries) {
        if (entry.zero) {
            ++zero_ranges;
            continue;
        }
        if (entry.dataOff < off || entry.dataOff >= off + 8 * 8)
            continue;
        ++slot_records[(entry.dataOff - off) / 8];
        pre_zero_record =
            pre_zero_record ||
            dev_.loadT<std::uint64_t>(entry.valuePos) >= 0xAA00;
    }
    EXPECT_EQ(zero_ranges, 1u);
    EXPECT_FALSE(pre_zero_record);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_LE(slot_records[i], 2u) << "slot " << i;

    dev_.simulateCrash(pmem::CrashPolicy::nothing());
    pool_.reopenAfterCrash();
    SpecTx fresh(pool_, 1, testConfig());
    fresh.recover();
    for (unsigned i = 0; i < kSlots; ++i) {
        EXPECT_EQ(dev_.loadT<std::uint64_t>(off + i * 8),
                  i < 8 ? 4900 + i : 0)
            << "slot " << i;
    }
}

TEST_F(SpecTxTest, AbortAfterZeroRestoresPreImages)
{
    const PmOff off = initSlots(16);
    tx_.txBegin(0);
    tx_.txStoreT<std::uint64_t>(0, off + 8, 99);
    tx_.txZero(0, off, 16 * 8);
    tx_.txStoreT<std::uint64_t>(0, off + 3 * 8, 77);
    tx_.txAbort(0);
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(dev_.loadT<std::uint64_t>(off + i * 8), i);

    // The aborted range is never replayed.
    tx_.txBegin(0);
    tx_.txStoreT<std::uint64_t>(0, off, 5);
    tx_.txCommit(0);
    dev_.simulateCrash(pmem::CrashPolicy::nothing());
    pool_.reopenAfterCrash();
    SpecTx fresh(pool_, 1, testConfig());
    fresh.recover();
    EXPECT_EQ(dev_.loadT<std::uint64_t>(off), 5u);
    for (unsigned i = 1; i < 16; ++i)
        EXPECT_EQ(dev_.loadT<std::uint64_t>(off + i * 8), i);
}

TEST_F(SpecTxTest, PeakLogBytesTracksGrowth)
{
    const PmOff off = initSlots(8);
    const auto peak0 = tx_.peakLogBytes();
    for (unsigned round = 0; round < 100; ++round) {
        tx_.txBegin(0);
        tx_.txStoreT<std::uint64_t>(0, off, round);
        tx_.txCommit(0);
    }
    EXPECT_GT(tx_.peakLogBytes(), peak0);
    tx_.reclaimNow();
    EXPECT_GE(tx_.peakLogBytes(), tx_.logBytesInUse());
}

} // namespace
} // namespace specpmt::core
