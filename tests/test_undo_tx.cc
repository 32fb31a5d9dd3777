/**
 * @file
 * Tests for the PMDK-style undo-logging baseline and the Kamino-Tx
 * upper-bound variant.
 */

#include <gtest/gtest.h>

#include <vector>

#include "pmem/pmem_device.hh"
#include "pmem/pmem_pool.hh"
#include "txn/undo_tx.hh"

namespace specpmt::txn
{
namespace
{

class UndoTxTest : public ::testing::Test
{
  protected:
    UndoTxTest() : dev_(8u << 20), pool_(dev_), tx_(pool_, 1) {}

    pmem::PmemDevice dev_;
    pmem::PmemPool pool_;
    PmdkUndoTx tx_;
};

TEST_F(UndoTxTest, CommittedTxIsDurableUnderAdversarialCrash)
{
    const PmOff off = pool_.alloc(8);
    tx_.txBegin(0);
    tx_.txStoreT<std::uint64_t>(0, off, 77);
    tx_.txCommit(0);

    dev_.simulateCrash(pmem::CrashPolicy::nothing());
    PmdkUndoTx fresh(pool_, 1);
    fresh.recover();
    EXPECT_EQ(dev_.loadT<std::uint64_t>(off), 77u);
}

TEST_F(UndoTxTest, UncommittedTxIsRevertedEvenIfDataEvicted)
{
    const PmOff off = pool_.alloc(8);
    tx_.txBegin(0);
    tx_.txStoreT<std::uint64_t>(0, off, 11);
    tx_.txCommit(0);

    tx_.txBegin(0);
    tx_.txStoreT<std::uint64_t>(0, off, 22);
    // Crash with every dirty line drained: the in-place update of 22
    // reached PM, but so did the undo record guarding it.
    dev_.simulateCrash(pmem::CrashPolicy::everything());
    pool_.reopenAfterCrash();
    PmdkUndoTx fresh(pool_, 1);
    fresh.recover();
    EXPECT_EQ(dev_.loadT<std::uint64_t>(off), 11u);
}

TEST_F(UndoTxTest, DefaultTxZeroIsUndoneOrDurableAsAUnit)
{
    // TxRuntime's default txZero stores zeros through txStore in
    // chunks; a 10 KiB range spans three of them.
    constexpr std::size_t kBytes = 10 << 10;
    const PmOff off = pool_.alloc(kBytes);
    const std::vector<std::uint8_t> old_bytes(kBytes, 0x5A);
    tx_.txBegin(0);
    tx_.txStore(0, off, old_bytes.data(), kBytes);
    tx_.txCommit(0);

    tx_.txBegin(0);
    tx_.txZero(0, off, kBytes);
    dev_.simulateCrash(pmem::CrashPolicy::everything());
    pool_.reopenAfterCrash();
    {
        PmdkUndoTx fresh(pool_, 1);
        fresh.recover();
        std::vector<std::uint8_t> got(kBytes);
        dev_.load(off, got.data(), kBytes);
        EXPECT_EQ(got, old_bytes) << "an uncommitted txZero survived";

        fresh.txBegin(0);
        fresh.txZero(0, off, kBytes);
        fresh.txCommit(0);
    }
    dev_.simulateCrash(pmem::CrashPolicy::nothing());
    pool_.reopenAfterCrash();
    PmdkUndoTx fresh(pool_, 1);
    fresh.recover();
    std::vector<std::uint8_t> got(kBytes);
    dev_.load(off, got.data(), kBytes);
    EXPECT_EQ(got, std::vector<std::uint8_t>(kBytes, 0));
}

TEST_F(UndoTxTest, FirstUpdateOnlyIsLogged)
{
    const PmOff off = pool_.alloc(8);
    tx_.txBegin(0);
    tx_.txStoreT<std::uint64_t>(0, off, 1);
    const auto log_clwbs = dev_.stats().clwbs[1];
    const auto fences = dev_.stats().fences;
    // Repeated updates of the same datum must not re-log or re-fence.
    tx_.txStoreT<std::uint64_t>(0, off, 2);
    tx_.txStoreT<std::uint64_t>(0, off, 3);
    EXPECT_EQ(dev_.stats().clwbs[1], log_clwbs);
    EXPECT_EQ(dev_.stats().fences, fences);
    tx_.txCommit(0);
    EXPECT_EQ(dev_.loadT<std::uint64_t>(off), 3u);
}

TEST_F(UndoTxTest, FenceCountMatchesLibpmemobjAnatomy)
{
    const PmOff off = pool_.alloc(64);
    const auto fences_before = dev_.stats().fences;
    tx_.txBegin(0); // 1 fence (log header activation)
    for (unsigned i = 0; i < 4; ++i) {
        // 2 fences per first-touch range: snapshot persist + ulog
        // metadata publish.
        tx_.txStoreT<std::uint64_t>(0, off + i * 8, i);
    }
    tx_.txCommit(0); // 3 fences: data persist, metadata redo, retire
    EXPECT_EQ(dev_.stats().fences - fences_before, 1u + 4 * 2 + 3);
}

TEST_F(UndoTxTest, AbortRestoresPreTxState)
{
    const PmOff off = pool_.alloc(16);
    tx_.txBegin(0);
    tx_.txStoreT<std::uint64_t>(0, off, 5);
    tx_.txStoreT<std::uint64_t>(0, off + 8, 6);
    tx_.txCommit(0);

    tx_.txBegin(0);
    tx_.txStoreT<std::uint64_t>(0, off, 50);
    tx_.txStoreT<std::uint64_t>(0, off + 8, 60);
    tx_.txAbort(0);
    EXPECT_EQ(dev_.loadT<std::uint64_t>(off), 5u);
    EXPECT_EQ(dev_.loadT<std::uint64_t>(off + 8), 6u);

    // The runtime is usable after an abort.
    tx_.txBegin(0);
    tx_.txStoreT<std::uint64_t>(0, off, 500);
    tx_.txCommit(0);
    EXPECT_EQ(dev_.loadT<std::uint64_t>(off), 500u);
}

TEST_F(UndoTxTest, RecoveryIsIdempotent)
{
    const PmOff off = pool_.alloc(8);
    tx_.txBegin(0);
    tx_.txStoreT<std::uint64_t>(0, off, 1);
    tx_.txCommit(0);
    tx_.txBegin(0);
    tx_.txStoreT<std::uint64_t>(0, off, 2);

    dev_.simulateCrash(pmem::CrashPolicy::everything());
    pool_.reopenAfterCrash();
    PmdkUndoTx fresh(pool_, 1);
    fresh.recover();
    fresh.recover(); // again: must be a no-op
    EXPECT_EQ(dev_.loadT<std::uint64_t>(off), 1u);
}

TEST_F(UndoTxTest, StaleRecordsFromOlderTxNeverReplay)
{
    const PmOff off = pool_.alloc(8);
    // Tx 1 logs old value 0 and commits with 9.
    tx_.txBegin(0);
    tx_.txStoreT<std::uint64_t>(0, off, 9);
    tx_.txCommit(0);
    // Tx 2 starts but writes nothing; its header says 0 record bytes
    // while tx 1's record bytes still sit in the log area.
    tx_.txBegin(0);
    dev_.simulateCrash(pmem::CrashPolicy::everything());
    pool_.reopenAfterCrash();
    PmdkUndoTx fresh(pool_, 1);
    fresh.recover();
    EXPECT_EQ(dev_.loadT<std::uint64_t>(off), 9u)
        << "tx 1's stale undo record must not fire for tx 2";
}

TEST(KaminoTxTest, CommitsInPlaceWithFencePerFirstUpdate)
{
    pmem::PmemDevice dev(8u << 20);
    pmem::PmemPool pool(dev);
    KaminoTx tx(pool, 1);

    const PmOff off = pool.alloc(32);
    const auto fences_before = dev.stats().fences;
    tx.txBegin(0);
    tx.txStoreT<std::uint64_t>(0, off, 1);
    tx.txStoreT<std::uint64_t>(0, off, 2); // same datum: no new fence
    tx.txStoreT<std::uint64_t>(0, off + 8, 3);
    tx.txCommit(0);
    EXPECT_EQ(dev.loadT<std::uint64_t>(off), 2u);
    EXPECT_EQ(dev.loadT<std::uint64_t>(off + 8), 3u);
    // begin(1) + 2 first-update fences + commit(2)
    EXPECT_EQ(dev.stats().fences - fences_before, 5u);

    // Committed data is durable.
    dev.simulateCrash(pmem::CrashPolicy::nothing());
    EXPECT_EQ(dev.loadT<std::uint64_t>(off), 2u);
}

TEST(KaminoTxTest, LogsOnlyAddressesNotValues)
{
    pmem::PmemDevice dev(8u << 20);
    pmem::PmemPool pool(dev);

    // Compare log traffic: Kamino logs 16B per first update, PMDK logs
    // 24B header + payload; with large payloads Kamino writes less.
    const PmOff off = pool.alloc(4096);
    std::vector<std::uint8_t> blob(512, 0xAB);

    KaminoTx kamino(pool, 1);
    const auto before_k = dev.stats().storeBytes;
    kamino.txBegin(0);
    kamino.txStore(0, off, blob.data(), blob.size());
    kamino.txCommit(0);
    const auto kamino_bytes = dev.stats().storeBytes - before_k;

    pmem::PmemDevice dev2(8u << 20);
    pmem::PmemPool pool2(dev2);
    const PmOff off2 = pool2.alloc(4096);
    PmdkUndoTx pmdk(pool2, 1);
    const auto before_p = dev2.stats().storeBytes;
    pmdk.txBegin(0);
    pmdk.txStore(0, off2, blob.data(), blob.size());
    pmdk.txCommit(0);
    const auto pmdk_bytes = dev2.stats().storeBytes - before_p;

    EXPECT_LT(kamino_bytes, pmdk_bytes);
}

} // namespace
} // namespace specpmt::txn
