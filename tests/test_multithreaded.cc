/**
 * @file
 * Multi-threaded tests: concurrent transactions with application
 * locking (Section 4.3.3), background reclamation under load,
 * cross-thread timestamp-ordered recovery, and the lock table itself.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/rand.hh"
#include "core/spec_tx.hh"
#include "pmem/pmem_device.hh"
#include "pmem/pmem_pool.hh"
#include "txn/lock_table.hh"
#include "txn/spht_tx.hh"
#include "txn/undo_tx.hh"

namespace specpmt
{
namespace
{

constexpr unsigned kThreads = 4;

TEST(LockTable, GuardsExcludeEachOther)
{
    txn::LockTable table(8);
    std::atomic<int> inside{0};
    std::atomic<bool> violation{false};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < 2000; ++i) {
                auto guard = table.lockAll({64}); // same stripe
                if (inside.fetch_add(1) != 0)
                    violation = true;
                inside.fetch_sub(1);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_FALSE(violation.load());
}

TEST(LockTable, OrderedAcquisitionAvoidsDeadlock)
{
    // Threads lock overlapping address pairs in opposite orders;
    // the sorted-stripe protocol must never deadlock.
    txn::LockTable table(16);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < 3000; ++i) {
                const PmOff a = (t % 2) ? 0 : 4096;
                const PmOff b = (t % 2) ? 4096 : 0;
                auto guard = table.lockAll({a, b});
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    SUCCEED();
}

/** Run disjoint-region counters on @p runtime from kThreads threads. */
template <typename Runtime>
void
runDisjointCounters(Runtime &runtime, PmOff base, unsigned increments)
{
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const PmOff slot = base + t * kCacheLineSize;
            for (unsigned i = 0; i < increments; ++i) {
                runtime.txBegin(t);
                const auto value =
                    runtime.template txLoadT<std::uint64_t>(t, slot);
                runtime.template txStoreT<std::uint64_t>(t, slot,
                                                         value + 1);
                runtime.txCommit(t);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
}

TEST(MultiThreaded, SpecTxDisjointRegionsWithBackgroundReclaim)
{
    pmem::PmemDevice dev(64u << 20);
    pmem::PmemPool pool(dev);
    core::SpecTxConfig config;
    config.backgroundReclaim = true;
    config.reclaimThresholdBytes = 64 * 1024;
    core::SpecTx tx(pool, kThreads, config);

    const PmOff base = pool.alloc(kThreads * kCacheLineSize);
    tx.txBegin(0);
    for (unsigned t = 0; t < kThreads; ++t)
        tx.txStoreT<std::uint64_t>(0, base + t * kCacheLineSize, 0);
    tx.txCommit(0);

    runDisjointCounters(tx, base, 3000);
    tx.shutdown();
    for (unsigned t = 0; t < kThreads; ++t) {
        EXPECT_EQ(dev.loadT<std::uint64_t>(base + t * kCacheLineSize),
                  3000u)
            << "thread " << t;
    }
    EXPECT_GT(tx.reclaimCycles(), 0u);
}

TEST(MultiThreaded, SpecTxCrashRecoveryAcrossThreads)
{
    pmem::PmemDevice dev(64u << 20);
    pmem::PmemPool pool(dev);
    core::SpecTxConfig config;
    config.backgroundReclaim = false;
    auto tx = std::make_unique<core::SpecTx>(pool, kThreads, config);

    const PmOff base = pool.alloc(kThreads * kCacheLineSize);
    pool.setRoot(txn::kAppRootSlotBase, base);
    tx->txBegin(0);
    for (unsigned t = 0; t < kThreads; ++t)
        tx->txStoreT<std::uint64_t>(0, base + t * kCacheLineSize, 0);
    tx->txCommit(0);

    runDisjointCounters(*tx, base, 500);
    // Nothing was ever flushed beyond logs: recovery must rebuild all
    // four counters from the per-thread logs, merged by timestamp.
    tx.reset();
    dev.simulateCrash(pmem::CrashPolicy::nothing());
    pool.reopenAfterCrash();
    core::SpecTx recovered(pool, kThreads, config);
    recovered.recover();
    for (unsigned t = 0; t < kThreads; ++t) {
        EXPECT_EQ(dev.loadT<std::uint64_t>(base + t * kCacheLineSize),
                  500u);
    }
}

TEST(MultiThreaded, SharedCountersWithLocking)
{
    // Threads transfer between shared cells under the lock table; the
    // sum is conserved at every committed boundary, so it must be
    // conserved after a post-run crash + recovery. Every transfer also
    // lands in a shadow copy under the same locks, and each recovered
    // cell must equal it: replay across the compacted per-thread
    // chains must follow commit-timestamp order, cell by cell.
    pmem::PmemDevice dev(64u << 20);
    pmem::PmemPool pool(dev);
    core::SpecTxConfig config;
    config.backgroundReclaim = true;
    config.reclaimThresholdBytes = 256 * 1024;
    auto tx = std::make_unique<core::SpecTx>(pool, kThreads, config);
    txn::LockTable locks(32);

    constexpr unsigned kCells = 64;
    constexpr std::uint64_t kInitial = 1000;
    const PmOff base = pool.alloc(kCells * 8);
    tx->txBegin(0);
    for (unsigned c = 0; c < kCells; ++c)
        tx->txStoreT<std::uint64_t>(0, base + c * 8, kInitial);
    tx->txCommit(0);
    std::array<std::uint64_t, kCells> shadow;
    shadow.fill(kInitial);

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Rng rng(t + 1);
            for (int i = 0; i < 2000; ++i) {
                const auto from =
                    static_cast<unsigned>(rng.below(kCells));
                const auto to = static_cast<unsigned>(rng.below(kCells));
                if (from == to)
                    continue;
                const PmOff from_off = base + from * 8;
                const PmOff to_off = base + to * 8;
                auto guard = locks.lockAll({from_off, to_off});
                tx->txBegin(t);
                const auto from_balance =
                    tx->txLoadT<std::uint64_t>(t, from_off);
                if (from_balance > 0) {
                    tx->txStoreT<std::uint64_t>(t, from_off,
                                                from_balance - 1);
                    tx->txStoreT<std::uint64_t>(
                        t, to_off,
                        tx->txLoadT<std::uint64_t>(t, to_off) + 1);
                }
                tx->txCommit(t);
                if (from_balance > 0) {
                    --shadow[from];
                    ++shadow[to];
                }
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    tx.reset();
    dev.simulateCrash(pmem::CrashPolicy::random(17, 0.5));
    pool.reopenAfterCrash();
    core::SpecTxConfig fresh_config;
    fresh_config.backgroundReclaim = false;
    core::SpecTx recovered(pool, kThreads, fresh_config);
    recovered.recover();

    std::uint64_t total = 0;
    for (unsigned c = 0; c < kCells; ++c) {
        const auto value = dev.loadT<std::uint64_t>(base + c * 8);
        total += value;
        EXPECT_EQ(value, shadow[c]) << "cell " << c;
    }
    EXPECT_EQ(total, kCells * kInitial)
        << "cross-thread recovery must conserve the sum";
}

TEST(MultiThreaded, SphtSharedCountersWithLocking)
{
    pmem::PmemDevice dev(64u << 20);
    pmem::PmemPool pool(dev);
    auto tx = std::make_unique<txn::SphtTx>(pool, kThreads, true);
    txn::LockTable locks(32);

    constexpr unsigned kCells = 32;
    const PmOff base = pool.alloc(kCells * 8);
    tx->txBegin(0);
    for (unsigned c = 0; c < kCells; ++c)
        tx->txStoreT<std::uint64_t>(0, base + c * 8, 100);
    tx->txCommit(0);

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Rng rng(t + 9);
            for (int i = 0; i < 1000; ++i) {
                const auto from =
                    static_cast<unsigned>(rng.below(kCells));
                const auto to = static_cast<unsigned>(rng.below(kCells));
                if (from == to)
                    continue;
                auto guard =
                    locks.lockAll({base + from * 8, base + to * 8});
                tx->txBegin(t);
                const auto from_balance =
                    tx->txLoadT<std::uint64_t>(t, base + from * 8);
                if (from_balance > 0) {
                    tx->txStoreT<std::uint64_t>(t, base + from * 8,
                                                from_balance - 1);
                    tx->txStoreT<std::uint64_t>(
                        t, base + to * 8,
                        tx->txLoadT<std::uint64_t>(t, base + to * 8) +
                            1);
                }
                tx->txCommit(t);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    tx->shutdown();

    std::uint64_t total = 0;
    for (unsigned c = 0; c < kCells; ++c)
        total += dev.loadT<std::uint64_t>(base + c * 8);
    EXPECT_EQ(total, kCells * 100u);
}

TEST(MultiThreaded, PmdkThreadsRecoverIndependently)
{
    pmem::PmemDevice dev(64u << 20);
    pmem::PmemPool pool(dev);
    auto tx = std::make_unique<txn::PmdkUndoTx>(pool, kThreads);

    const PmOff base = pool.alloc(kThreads * kCacheLineSize);
    tx->txBegin(0);
    for (unsigned t = 0; t < kThreads; ++t)
        tx->txStoreT<std::uint64_t>(0, base + t * kCacheLineSize, 0);
    tx->txCommit(0);

    runDisjointCounters(*tx, base, 400);
    tx.reset();
    dev.simulateCrash(pmem::CrashPolicy::everything());
    pool.reopenAfterCrash();
    txn::PmdkUndoTx recovered(pool, kThreads);
    recovered.recover();
    for (unsigned t = 0; t < kThreads; ++t) {
        EXPECT_EQ(dev.loadT<std::uint64_t>(base + t * kCacheLineSize),
                  400u);
    }
}

} // namespace
} // namespace specpmt
