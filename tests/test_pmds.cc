/**
 * @file
 * Tests of the persistent data-structure library (pmds): functional
 * behaviour, attach-after-reopen, and crash atomicity of every
 * mutating operation under injected power failures.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "common/rand.hh"
#include "core/spec_tx.hh"
#include "pmds/pm_hash_map.hh"
#include "pmds/pm_queue.hh"
#include "pmds/pm_vector.hh"
#include "pmem/pmem_device.hh"
#include "pmem/pmem_pool.hh"

namespace specpmt::pmds
{
namespace
{

class PmdsTest : public ::testing::Test
{
  protected:
    PmdsTest() : dev_(64u << 20), pool_(dev_)
    {
        core::SpecTxConfig config;
        config.backgroundReclaim = false;
        rt_ = std::make_unique<core::SpecTx>(pool_, 1, config);
    }

    /** Power-cycle and recover; returns the fresh runtime. */
    void
    powerCycle(std::uint64_t seed)
    {
        rt_.reset();
        dev_.simulateCrash(pmem::CrashPolicy::random(seed, 0.5));
        pool_.reopenAfterCrash();
        core::SpecTxConfig config;
        config.backgroundReclaim = false;
        rt_ = std::make_unique<core::SpecTx>(pool_, 1, config);
        rt_->recover();
    }

    pmem::PmemDevice dev_;
    pmem::PmemPool pool_;
    std::unique_ptr<txn::TxRuntime> rt_;
};

TEST_F(PmdsTest, HashMapBasicOperations)
{
    auto map = PmHashMap<std::uint64_t, std::uint64_t>::create(*rt_,
                                                               256);
    EXPECT_FALSE(map.get(1).has_value());
    EXPECT_TRUE(map.put(1, 100));
    EXPECT_TRUE(map.put(2, 200));
    EXPECT_EQ(map.get(1), 100u);
    EXPECT_TRUE(map.put(1, 101)); // update
    EXPECT_EQ(map.get(1), 101u);
    EXPECT_EQ(map.size(), 2u);
    EXPECT_TRUE(map.erase(1));
    EXPECT_FALSE(map.erase(1));
    EXPECT_FALSE(map.get(1).has_value());
    EXPECT_EQ(map.size(), 1u);
}

TEST_F(PmdsTest, HashMapTombstoneReuseAndFull)
{
    auto map = PmHashMap<std::uint64_t, std::uint64_t>::create(*rt_,
                                                               16);
    for (std::uint64_t k = 1; k <= 16; ++k)
        EXPECT_TRUE(map.put(k, k));
    EXPECT_FALSE(map.put(17, 17)) << "map is full";
    EXPECT_TRUE(map.erase(5));
    EXPECT_TRUE(map.put(17, 17)) << "tombstone must be reusable";
    EXPECT_EQ(map.get(17), 17u);
    // All other keys still reachable across the tombstone.
    for (std::uint64_t k = 1; k <= 16; ++k) {
        if (k != 5) {
            EXPECT_EQ(map.get(k), k) << k;
        }
    }
}

TEST_F(PmdsTest, HashMapSurvivesPowerCycle)
{
    auto map = PmHashMap<std::uint64_t, std::uint64_t>::create(*rt_,
                                                               256);
    pool_.setRoot(txn::kAppRootSlotBase, map.base());
    for (std::uint64_t k = 1; k <= 50; ++k)
        map.put(k, k * 10);

    powerCycle(1);
    auto reopened = PmHashMap<std::uint64_t, std::uint64_t>::attach(
        *rt_, pool_.getRoot(txn::kAppRootSlotBase));
    for (std::uint64_t k = 1; k <= 50; ++k)
        EXPECT_EQ(reopened.get(k), k * 10) << k;
}

TEST_F(PmdsTest, HashMapCrashAtomicPut)
{
    auto map = PmHashMap<std::uint64_t, std::uint64_t>::create(*rt_,
                                                               256);
    pool_.setRoot(txn::kAppRootSlotBase, map.base());
    map.put(7, 70);

    // Crash in the middle of an update of key 7 and an insert of 8.
    for (long crash_at : {1L, 2L, 3L, 5L, 8L}) {
        dev_.armCrash(crash_at);
        try {
            map.put(7, 700 + static_cast<std::uint64_t>(crash_at));
            map.put(8, 80);
            dev_.armCrash(-1);
        } catch (const pmem::SimulatedCrash &) {
        }
        powerCycle(static_cast<std::uint64_t>(crash_at));
        map = PmHashMap<std::uint64_t, std::uint64_t>::attach(
            *rt_, pool_.getRoot(txn::kAppRootSlotBase));

        const auto v7 = map.get(7);
        ASSERT_TRUE(v7.has_value());
        EXPECT_TRUE(*v7 == 70 ||
                    *v7 == 700 + static_cast<std::uint64_t>(crash_at) ||
                    *v7 >= 700)
            << "key 7 must hold a committed value, got " << *v7;
        const auto v8 = map.get(8);
        EXPECT_TRUE(!v8.has_value() || *v8 == 80);
    }
}

TEST_F(PmdsTest, VectorPushPopSetAt)
{
    auto vec = PmVector<std::uint64_t>::create(*rt_, 8);
    EXPECT_EQ(vec.size(), 0u);
    for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_TRUE(vec.pushBack(i * 2));
    EXPECT_FALSE(vec.pushBack(99)) << "full";
    EXPECT_EQ(vec.size(), 8u);
    EXPECT_EQ(vec.at(3), 6u);
    vec.set(3, 333);
    EXPECT_EQ(vec.at(3), 333u);
    EXPECT_TRUE(vec.popBack());
    EXPECT_EQ(vec.size(), 7u);
}

TEST_F(PmdsTest, VectorPushIsAtomicUnderCrash)
{
    auto vec = PmVector<std::uint64_t>::create(*rt_, 64);
    pool_.setRoot(txn::kAppRootSlotBase, vec.base());
    for (std::uint64_t i = 0; i < 10; ++i)
        vec.pushBack(1000 + i);

    dev_.armCrash(2);
    try {
        vec.pushBack(7777);
        dev_.armCrash(-1);
    } catch (const pmem::SimulatedCrash &) {
    }
    powerCycle(17);
    auto reopened = PmVector<std::uint64_t>::attach(
        *rt_, pool_.getRoot(txn::kAppRootSlotBase));
    const auto n = reopened.size();
    ASSERT_TRUE(n == 10 || n == 11) << n;
    for (std::uint64_t i = 0; i < 10; ++i)
        EXPECT_EQ(reopened.at(i), 1000 + i);
    if (n == 11) {
        EXPECT_EQ(reopened.at(10), 7777u);
    }
}

TEST_F(PmdsTest, QueueFifoSemantics)
{
    auto queue = PmQueue<std::uint64_t>::create(*rt_, 4);
    EXPECT_TRUE(queue.empty());
    EXPECT_FALSE(queue.dequeue().has_value());
    for (std::uint64_t i = 1; i <= 4; ++i)
        EXPECT_TRUE(queue.enqueue(i));
    EXPECT_FALSE(queue.enqueue(5)) << "full";
    EXPECT_EQ(queue.front(), 1u);
    for (std::uint64_t i = 1; i <= 4; ++i)
        EXPECT_EQ(queue.dequeue(), i);
    EXPECT_TRUE(queue.empty());

    // Wrap-around.
    for (std::uint64_t round = 0; round < 10; ++round) {
        EXPECT_TRUE(queue.enqueue(round));
        EXPECT_EQ(queue.dequeue(), round);
    }
}

TEST_F(PmdsTest, QueueNeverDuplicatesOrLosesAcrossCrashes)
{
    auto queue = PmQueue<std::uint64_t>::create(*rt_, 32);
    pool_.setRoot(txn::kAppRootSlotBase, queue.base());

    // Producer enqueues 1..N while crashes hit at random points; the
    // consumer side drains after each recovery. Every value must come
    // out exactly once, in order, except possibly the one value whose
    // enqueue the crash interrupted (absent) — never torn, never
    // duplicated.
    Rng rng(5);
    std::uint64_t next_expected = 1;
    std::uint64_t next_to_send = 1;
    for (int round = 0; round < 10; ++round) {
        dev_.armCrash(static_cast<long>(3 + rng.below(40)));
        try {
            for (int i = 0; i < 6; ++i) {
                if (queue.enqueue(next_to_send))
                    ++next_to_send;
            }
            dev_.armCrash(-1);
        } catch (const pmem::SimulatedCrash &) {
            // The interrupted enqueue may or may not have landed.
        }
        powerCycle(static_cast<std::uint64_t>(round) + 100);
        auto reopened = PmQueue<std::uint64_t>::attach(
            *rt_, pool_.getRoot(txn::kAppRootSlotBase));
        queue = reopened;

        while (auto value = queue.dequeue()) {
            EXPECT_EQ(*value, next_expected)
                << "FIFO order broken in round " << round;
            next_expected = *value + 1;
        }
        // Resync the producer with what actually committed.
        next_to_send = next_expected;
    }
    EXPECT_GT(next_expected, 1u);
}

} // namespace
} // namespace specpmt::pmds
