/**
 * @file
 * Tests of the persistent flight recorder (src/forensic): ring
 * creation, attach, sealed-record append, ring wrap, sequence
 * resumption across re-attach, crash survival of fenced records, the
 * offline decoder's tolerance of torn slots and garbage roots, and
 * appends racing from several threads into one page-sized ring.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "forensic/flight_recorder.hh"
#include "pmem/crash_policy.hh"
#include "pmem/image_io.hh"
#include "pmem/pmem_device.hh"
#include "pmem/pmem_pool.hh"

namespace specpmt::forensic
{
namespace
{

class FlightRecorderTest : public ::testing::Test
{
  protected:
    FlightRecorderTest() : dev_(1 << 20), pool_(dev_) {}

    PmOff
    ringRoot() const
    {
        return pool_.getRoot(kFlightRecorderRootSlot);
    }

    pmem::PmemDevice dev_;
    pmem::PmemPool pool_;
};

TEST_F(FlightRecorderTest, DefaultHandleIsDisabledNoop)
{
    FlightRecorder recorder;
    EXPECT_FALSE(recorder.enabled());
    recorder.record(EventType::RecoveryBegin, 0);
    EXPECT_EQ(recorder.sequence(), 0u);
}

TEST_F(FlightRecorderTest, AttachWithoutCreateIsDisabled)
{
    auto recorder = FlightRecorder::attach(pool_);
    EXPECT_FALSE(recorder.enabled());
    recorder.record(EventType::RecoveryBegin, 0); // a harmless no-op
}

TEST_F(FlightRecorderTest, CreatePublishesRingAndAttachEnables)
{
    FlightRecorder::create(pool_, 8);
    EXPECT_NE(ringRoot(), kPmNull);

    auto recorder = FlightRecorder::attach(pool_);
    ASSERT_TRUE(recorder.enabled());
    EXPECT_EQ(recorder.sequence(), 0u);
}

TEST_F(FlightRecorderTest, RecordDecodeRoundTrip)
{
    FlightRecorder::create(pool_, 8);
    auto recorder = FlightRecorder::attach(pool_);
    recorder.record(EventType::RecoveryBegin, 2, 0, 0, 0);
    recorder.record(EventType::MediaFault, 2, 41, 3, 0);
    recorder.record(EventType::RecoveryEnd, 0, 0, 17, 0);
    dev_.sfence();

    const auto ring = FlightRecorder::decode(dev_, ringRoot());
    EXPECT_TRUE(ring.present);
    EXPECT_TRUE(ring.error.empty());
    EXPECT_EQ(ring.capacity, 8u);
    ASSERT_EQ(ring.records.size(), 3u);
    EXPECT_EQ(ring.records[0].seq, 1u);
    EXPECT_EQ(ring.records[0].type, EventType::RecoveryBegin);
    EXPECT_EQ(ring.records[0].tid, 2u);
    EXPECT_EQ(ring.records[1].type, EventType::MediaFault);
    EXPECT_EQ(ring.records[1].timestamp, 41u);
    EXPECT_EQ(ring.records[1].arg0, 3u);
    EXPECT_EQ(ring.records[2].type, EventType::RecoveryEnd);
    EXPECT_EQ(ring.records[2].arg0, 17u);
    // Never-written slots are empty, not torn.
    EXPECT_EQ(ring.invalidSlots, 0u);
}

TEST_F(FlightRecorderTest, RingWrapKeepsTheNewestRecords)
{
    FlightRecorder::create(pool_, 4);
    auto recorder = FlightRecorder::attach(pool_);
    for (std::uint64_t i = 0; i < 10; ++i)
        recorder.record(EventType::DegradedEnter, 0, i + 1);
    dev_.sfence();

    const auto ring = FlightRecorder::decode(dev_, ringRoot());
    ASSERT_EQ(ring.records.size(), 4u);
    for (std::uint64_t i = 0; i < 4; ++i) {
        EXPECT_EQ(ring.records[i].seq, 7 + i);
        EXPECT_EQ(ring.records[i].timestamp, 7 + i);
    }
    EXPECT_EQ(ring.invalidSlots, 0u);
}

TEST_F(FlightRecorderTest, SequenceResumesAcrossReattach)
{
    FlightRecorder::create(pool_, 8);
    {
        auto recorder = FlightRecorder::attach(pool_);
        recorder.record(EventType::RecoveryBegin, 0);
        recorder.record(EventType::RecoveryEnd, 0, 1);
        dev_.sfence();
    }
    // A fresh attach (new process, post-crash reopen) must continue
    // the sequence, not restart it and shadow older records.
    auto recorder = FlightRecorder::attach(pool_);
    EXPECT_EQ(recorder.sequence(), 2u);
    recorder.record(EventType::RecoveryBegin, 0);
    dev_.sfence();

    const auto ring = FlightRecorder::decode(dev_, ringRoot());
    ASSERT_EQ(ring.records.size(), 3u);
    EXPECT_EQ(ring.records[2].seq, 3u);
    EXPECT_EQ(ring.records[2].type, EventType::RecoveryBegin);
}

TEST_F(FlightRecorderTest, FencedRecordsSurviveACrash)
{
    FlightRecorder::create(pool_, 8);
    auto recorder = FlightRecorder::attach(pool_);
    recorder.record(EventType::RecoveryBegin, 0);
    recorder.record(EventType::RecoveryEnd, 0, 1);
    dev_.sfence(); // the next fence, which the records ride
    recorder.record(EventType::MediaFault, 0); // after the last fence

    // Power failure dropping every undrained line: the fenced records
    // must read back; the unfenced one may vanish but never misreads.
    const auto image =
        dev_.crashImage(pmem::CrashPolicy::nothing());
    const auto crashed = pmem::deviceFromImage(image);
    const auto ring = FlightRecorder::decode(
        *crashed, crashed->loadT<PmOff>(kFlightRecorderRootSlot *
                                        sizeof(PmOff)));
    EXPECT_TRUE(ring.present);
    ASSERT_EQ(ring.records.size(), 2u);
    EXPECT_EQ(ring.records[0].type, EventType::RecoveryBegin);
    EXPECT_EQ(ring.records[1].type, EventType::RecoveryEnd);
}

TEST_F(FlightRecorderTest, TornSlotIsReportedInvalidNeverMisread)
{
    FlightRecorder::create(pool_, 8);
    auto recorder = FlightRecorder::attach(pool_);
    recorder.record(EventType::RecoveryBegin, 0);
    recorder.record(EventType::RecoveryEnd, 0, 1);
    dev_.sfence();

    // Flip one payload byte of the second record: its position-seeded
    // seal no longer validates.
    const PmOff slot1 = ringRoot() + sizeof(FlightHeader) +
                        1 * sizeof(FlightRecord);
    dev_.storeT<std::uint8_t>(slot1 + offsetof(FlightRecord, arg0),
                              0xFF);
    dev_.clwb(slot1);
    dev_.sfence();

    const auto ring = FlightRecorder::decode(dev_, ringRoot());
    ASSERT_EQ(ring.records.size(), 1u);
    EXPECT_EQ(ring.records[0].type, EventType::RecoveryBegin);
    EXPECT_EQ(ring.invalidSlots, 1u);
}

TEST_F(FlightRecorderTest, DecodeToleratesGarbageRoot)
{
    // Root pointing at unformatted pool bytes: decode must report a
    // corrupt header, never crash or fabricate records.
    const auto ring = FlightRecorder::decode(dev_, 0x4000);
    EXPECT_TRUE(ring.present);
    EXPECT_FALSE(ring.error.empty());
    EXPECT_TRUE(ring.records.empty());

    // Null root: recorder was simply never enabled.
    const auto absent = FlightRecorder::decode(dev_, kPmNull);
    EXPECT_FALSE(absent.present);

    // Root beyond the device: out-of-bounds, not a crash.
    const auto oob = FlightRecorder::decode(dev_, dev_.size() + 4096);
    EXPECT_TRUE(oob.present);
    EXPECT_FALSE(oob.error.empty());
}

TEST(FlightRecorderConcurrency, RacingAppendsKeepEverySequenceNumber)
{
    // Any client thread of a KvService shard may hit a media fault and
    // journal it; appends from several threads must neither share a
    // slot nor skip a sequence number.
    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t kAppends = 15;
    pmem::PmemDevice dev(1 << 20);
    pmem::PmemPool pool(dev);
    FlightRecorder::create(pool);
    auto recorder = FlightRecorder::attach(pool);
    ASSERT_TRUE(recorder.enabled());

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&recorder, t] {
            for (std::uint64_t i = 0; i < kAppends; ++i)
                recorder.record(EventType::MediaFault, t, 0, i);
        });
    }
    for (auto &thread : threads)
        thread.join();
    dev.sfence();

    const auto ring = FlightRecorder::decode(
        dev, pool.getRoot(kFlightRecorderRootSlot));
    EXPECT_TRUE(ring.error.empty());
    EXPECT_EQ(ring.capacity, kFlightRingSlots);
    EXPECT_EQ(ring.invalidSlots, 0u);
    ASSERT_EQ(ring.records.size(), kThreads * kAppends);
    std::set<std::pair<unsigned, std::uint64_t>> appended;
    for (std::size_t i = 0; i < ring.records.size(); ++i) {
        const auto &rec = ring.records[i];
        EXPECT_EQ(rec.seq, i + 1); // 1..60, none missing or repeated
        EXPECT_EQ(rec.type, EventType::MediaFault);
        EXPECT_LT(rec.tid, kThreads);
        EXPECT_LT(rec.arg0, kAppends);
        appended.emplace(rec.tid, rec.arg0);
    }
    EXPECT_EQ(appended.size(), kThreads * kAppends);
}

} // namespace
} // namespace specpmt::forensic
