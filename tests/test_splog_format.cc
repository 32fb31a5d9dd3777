/**
 * @file
 * Unit tests of the speculative log's on-media format: segment
 * encode/walk round trips, torn-record detection, poison semantics,
 * chain following, and torn-header protection.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/rand.hh"
#include "core/splog_format.hh"
#include "pmem/pmem_device.hh"

namespace specpmt::core
{
namespace
{

class SplogFormatTest : public ::testing::Test
{
  protected:
    /** Blocks live above the root page (offset 0 is kPmNull). */
    static constexpr PmOff kBase = 4096;

    SplogFormatTest() : dev_(1 << 20) {}

    /** Lay down a block header at @p off with capacity/next. */
    void
    writeBlock(PmOff off, std::uint64_t capacity, PmOff next)
    {
        BlockHeader header{next, kPmNull, capacity, 0};
        dev_.storeT(off, header);
        dev_.storeT<std::uint64_t>(off + sizeof(BlockHeader), 0);
    }

    /**
     * Append a segment with @p values (each an 8-byte entry at
     * synthetic addresses) at @p pos; returns bytes used.
     */
    std::size_t
    writeSegment(PmOff pos, TxTimestamp ts, bool final,
                 const std::vector<std::uint64_t> &values)
    {
        std::size_t bytes = sizeof(SegHead);
        PmOff cursor = pos + sizeof(SegHead);
        for (std::size_t i = 0; i < values.size(); ++i) {
            EntryHead ehead{0x10000 + i * 8, 8, 0};
            dev_.storeT(cursor, ehead);
            dev_.storeT(cursor + sizeof(EntryHead), values[i]);
            cursor += entryBytes(8);
            bytes += entryBytes(8);
        }
        SegHead head;
        head.sizeBytes = static_cast<std::uint32_t>(bytes);
        head.timestamp = ts;
        head.flags = final ? kSegFinal : 0;
        head.numEntries = static_cast<std::uint32_t>(values.size());
        head.crc = segmentCrc(dev_, pos, head);
        dev_.storeT(pos, head);
        // Poison the next slot.
        dev_.storeT<std::uint64_t>(pos + bytes, 0);
        return bytes;
    }

    pmem::PmemDevice dev_;
};

TEST_F(SplogFormatTest, RoundTripSingleSegment)
{
    writeBlock(kBase, 4096, kPmNull);
    writeSegment(kBase + sizeof(BlockHeader), 7, true, {11, 22, 33});

    std::vector<DecodedSegment> segments;
    const auto walk = walkChain(
        dev_, kBase, [&](const DecodedSegment &seg) {
            segments.push_back(seg);
        });
    EXPECT_EQ(walk.end, WalkEnd::CleanTail);
    ASSERT_EQ(segments.size(), 1u);
    EXPECT_EQ(segments[0].timestamp, 7u);
    EXPECT_TRUE(segments[0].final);
    ASSERT_EQ(segments[0].entries.size(), 3u);
    EXPECT_EQ(dev_.loadT<std::uint64_t>(segments[0].entries[1].valuePos),
              22u);
}

TEST_F(SplogFormatTest, MultipleSegmentsInChronologicalOrder)
{
    writeBlock(kBase, 4096, kPmNull);
    PmOff pos = kBase + sizeof(BlockHeader);
    pos += writeSegment(pos, 1, true, {1});
    pos += writeSegment(pos, 2, true, {2});
    writeSegment(pos, 3, true, {3});

    std::vector<TxTimestamp> stamps;
    walkChain(dev_, kBase, [&](const DecodedSegment &seg) {
        stamps.push_back(seg.timestamp);
    });
    EXPECT_EQ(stamps, (std::vector<TxTimestamp>{1, 2, 3}));
}

TEST_F(SplogFormatTest, TornRecordStopsWalk)
{
    writeBlock(kBase, 4096, kPmNull);
    PmOff pos = kBase + sizeof(BlockHeader);
    const auto first = writeSegment(pos, 1, true, {1});
    const auto second_pos = pos + first;
    writeSegment(second_pos, 2, true, {2});

    // Corrupt one byte of the second segment's payload.
    const PmOff victim = second_pos + sizeof(SegHead) +
                         sizeof(EntryHead);
    dev_.storeT<std::uint8_t>(victim, 0xFF);

    std::vector<TxTimestamp> stamps;
    const auto walk = walkChain(dev_, kBase, [&](const DecodedSegment &seg) {
        stamps.push_back(seg.timestamp);
    });
    EXPECT_EQ(walk.end, WalkEnd::TornRecord);
    EXPECT_EQ(stamps, (std::vector<TxTimestamp>{1}));
    EXPECT_EQ(walk.tailPos,
              static_cast<PmOff>(second_pos));
}

TEST_F(SplogFormatTest, ChainFollowsNextPointers)
{
    writeBlock(kBase, 256, kBase + 4096);
    writeBlock(kBase + 4096, 4096, kPmNull);
    writeSegment(kBase + sizeof(BlockHeader), 1, true, {1});
    writeSegment(kBase + 4096 + sizeof(BlockHeader), 2, true, {2});

    std::vector<TxTimestamp> stamps;
    const auto walk = walkChain(dev_, kBase, [&](const DecodedSegment &seg) {
        stamps.push_back(seg.timestamp);
    });
    EXPECT_EQ(stamps, (std::vector<TxTimestamp>{1, 2}));
    ASSERT_EQ(walk.blocks.size(), 2u);
    EXPECT_EQ(walk.blocks[1], kBase + 4096);
    EXPECT_EQ(walk.tailBlock, kBase + 4096);
}

TEST_F(SplogFormatTest, TornBlockHeaderEndsWalkBeforeTheBlock)
{
    writeBlock(kBase, 256, kBase + 8192);
    writeSegment(kBase + sizeof(BlockHeader), 1, true, {1});
    // The next block never got its header persisted: garbage capacity.
    dev_.storeT<std::uint64_t>(kBase + 8192 +
                                   offsetof(BlockHeader, capacity),
                               ~0ull);

    std::vector<TxTimestamp> stamps;
    const auto walk = walkChain(dev_, kBase, [&](const DecodedSegment &seg) {
        stamps.push_back(seg.timestamp);
    });
    EXPECT_EQ(walk.end, WalkEnd::TornRecord);
    EXPECT_EQ(stamps, (std::vector<TxTimestamp>{1}));
    ASSERT_EQ(walk.blocks.size(), 1u);
}

TEST_F(SplogFormatTest, ChainThatRevisitsABlockEndsAsTornRecord)
{
    // A corrupted next pointer aimed back into the chain: a self-loop
    // (one block) and a two-block loop. Either walk must stop at the
    // revisit, having seen each block's segment exactly once.
    const PmOff second = kBase + 4096;
    for (const bool two_blocks : {false, true}) {
        SCOPED_TRACE(two_blocks ? "two-block loop" : "self-loop");
        writeBlock(kBase, 4096, two_blocks ? second : kBase);
        writeSegment(kBase + sizeof(BlockHeader), 1, true, {1});
        if (two_blocks) {
            writeBlock(second, 4096, kBase);
            writeSegment(second + sizeof(BlockHeader), 2, true, {2});
        }

        std::vector<TxTimestamp> stamps;
        const auto walk =
            walkChain(dev_, kBase, [&](const DecodedSegment &seg) {
                stamps.push_back(seg.timestamp);
            });
        EXPECT_EQ(walk.end, WalkEnd::TornRecord);
        if (two_blocks) {
            EXPECT_EQ(stamps, (std::vector<TxTimestamp>{1, 2}));
            EXPECT_EQ(walk.blocks, (std::vector<PmOff>{kBase, second}));
        } else {
            EXPECT_EQ(stamps, (std::vector<TxTimestamp>{1}));
            EXPECT_EQ(walk.blocks, (std::vector<PmOff>{kBase}));
        }
    }
}

TEST_F(SplogFormatTest, NonFinalSegmentsReportFlag)
{
    writeBlock(kBase, 4096, kPmNull);
    PmOff pos = kBase + sizeof(BlockHeader);
    pos += writeSegment(pos, 5, false, {1, 2});
    writeSegment(pos, 5, true, {3});

    std::vector<bool> finals;
    walkChain(dev_, kBase, [&](const DecodedSegment &seg) {
        finals.push_back(seg.final);
    });
    EXPECT_EQ(finals, (std::vector<bool>{false, true}));
}

TEST_F(SplogFormatTest, CrcDetectsEveryHeaderFieldFlip)
{
    writeBlock(kBase, 4096, kPmNull);
    const PmOff pos = kBase + sizeof(BlockHeader);
    writeSegment(pos, 9, true, {42});
    auto head = dev_.loadT<SegHead>(pos);

    // Flip each header field (except crc) and expect a mismatch.
    for (unsigned field = 0; field < 4; ++field) {
        SegHead mutated = head;
        switch (field) {
          case 0:
            mutated.sizeBytes ^= 0x10;
            break;
          case 1:
            mutated.timestamp ^= 1;
            break;
          case 2:
            mutated.flags ^= kSegFinal;
            break;
          case 3:
            mutated.numEntries ^= 1;
            break;
        }
        EXPECT_NE(segmentCrc(dev_, pos, mutated), head.crc)
            << "field " << field;
    }
}

TEST_F(SplogFormatTest, CrcIsPositionDependent)
{
    writeBlock(kBase, 4096, kPmNull);
    const PmOff pos = kBase + sizeof(BlockHeader);
    writeSegment(pos, 9, true, {42});
    const auto head = dev_.loadT<SegHead>(pos);

    // The identical bytes at a different position must not validate:
    // this is what makes records in recycled blocks harmless.
    std::vector<std::uint8_t> raw(head.sizeBytes);
    dev_.load(pos, raw.data(), head.sizeBytes);
    const PmOff elsewhere = kBase + 2048;
    dev_.store(elsewhere, raw.data(), head.sizeBytes);
    EXPECT_NE(segmentCrc(dev_, elsewhere, head), head.crc);
}

/** Seal a final one-segment record of @p bytes at @p pos. */
void
sealAt(pmem::PmemDevice &dev, PmOff pos, std::size_t bytes,
       std::uint32_t entries)
{
    SegHead head;
    head.sizeBytes = static_cast<std::uint32_t>(bytes);
    head.timestamp = 5;
    head.flags = segFlagsWithCount(kSegFinal, 1);
    head.numEntries = entries;
    head.crc = segmentCrc(dev, pos, head);
    dev.storeT(pos, head);
    dev.storeT<std::uint64_t>(pos + bytes, 0);
}

TEST_F(SplogFormatTest, ZeroRangeEntryIsHeadOnly)
{
    writeBlock(kBase, 4096, kPmNull);
    const PmOff pos = kBase + sizeof(BlockHeader);
    PmOff cursor = pos + sizeof(SegHead);
    dev_.storeT(cursor, EntryHead{0x20000, 4096, kEntryZero});
    cursor += sizeof(EntryHead);
    dev_.storeT(cursor, EntryHead{0x20008, 8, 0});
    dev_.storeT<std::uint64_t>(cursor + sizeof(EntryHead), 42);
    cursor += entryBytes(8);
    sealAt(dev_, pos, cursor - pos, 2);

    std::vector<DecodedSegment> segments;
    const auto walk = walkChain(
        dev_, kBase,
        [&](const DecodedSegment &seg) { segments.push_back(seg); });
    EXPECT_EQ(walk.end, WalkEnd::CleanTail);
    ASSERT_EQ(segments.size(), 1u);
    ASSERT_EQ(segments[0].entries.size(), 2u);
    const auto &zero = segments[0].entries[0];
    const auto &value = segments[0].entries[1];
    EXPECT_TRUE(zero.zero);
    EXPECT_EQ(zero.dataOff, 0x20000u);
    EXPECT_EQ(zero.size, 4096u);
    EXPECT_EQ(zero.logBytes(), sizeof(EntryHead));
    EXPECT_FALSE(value.zero);
    EXPECT_EQ(value.logBytes(), entryBytes(8));

    std::vector<std::uint8_t> bytes(4096, 0xFF);
    entryValue(dev_, zero, bytes.data());
    EXPECT_EQ(bytes, std::vector<std::uint8_t>(4096, 0));
    std::uint64_t logged = 0;
    entryValue(dev_, value, &logged);
    EXPECT_EQ(logged, 42u);
    entryValue(dev_.raw(), value, &logged);
    EXPECT_EQ(logged, 42u);
}

TEST_F(SplogFormatTest, MalformedEntryHeadEndsTheWalkAsTornRecord)
{
    // An unknown flag bit, and a zero range reaching past the device.
    for (const EntryHead &bad :
         {EntryHead{0x20000, 64, 0x2},
          EntryHead{0x20000, (1u << 20) - 0x20000 + 8, kEntryZero}}) {
        writeBlock(kBase, 4096, kPmNull);
        const PmOff pos = kBase + sizeof(BlockHeader);
        dev_.storeT(pos + sizeof(SegHead), bad);
        sealAt(dev_, pos, sizeof(SegHead) + sizeof(EntryHead), 1);

        std::size_t segments = 0;
        const auto walk = walkChain(
            dev_, kBase, [&](const DecodedSegment &) { ++segments; });
        EXPECT_EQ(walk.end, WalkEnd::TornRecord) << bad.flags;
        EXPECT_EQ(segments, 0u) << bad.flags;
    }
}

} // namespace
} // namespace specpmt::core
