/**
 * @file
 * Unit tests of the speculative log's on-media format: segment
 * encode/walk round trips, torn-record detection, poison semantics,
 * chain following, and torn-header protection. The fixture writes the
 * format by hand, independently of the encoder, which must produce the
 * same bytes.
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

    /** Lay down a block header at @p off with capacity/next/prev. */
    void
    writeBlock(PmOff off, std::uint64_t capacity, PmOff next,
               PmOff prev = kPmNull)
    {
        BlockHeader header{next, prev, capacity, 0};
        dev_.storeT(off, header);
        dev_.storeT<std::uint64_t>(off + sizeof(BlockHeader), 0);
    }

    /**
     * Append a segment with @p values (each an 8-byte entry at
     * synthetic addresses) at @p pos; returns bytes used. A final
     * segment's flags carry @p count when it is nonzero.
     */
    std::size_t
    writeSegment(PmOff pos, TxTimestamp ts, bool final,
                 const std::vector<std::uint64_t> &values,
                 std::uint32_t count = 0)
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
        head.flags = final ? segFlagsWithCount(kSegFinal, count) : 0;
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

    DecodedLog log;
    const auto walk = walkChain(dev_, kBase, log);
    const auto &segments = log.segments;
    EXPECT_EQ(walk.end, WalkEnd::CleanTail);
    ASSERT_EQ(segments.size(), 1u);
    EXPECT_EQ(segments[0].timestamp, 7u);
    EXPECT_TRUE(segments[0].final);
    ASSERT_EQ(segments[0].entries.size(), 3u);
    const PmOff value_pos = log.entriesIn(segments[0].entries)[1].valuePos;
    EXPECT_EQ(dev_.loadT<std::uint64_t>(value_pos), 22u);
}

TEST_F(SplogFormatTest, MultipleSegmentsInChronologicalOrder)
{
    writeBlock(kBase, 4096, kPmNull);
    PmOff pos = kBase + sizeof(BlockHeader);
    pos += writeSegment(pos, 1, true, {1});
    pos += writeSegment(pos, 2, true, {2});
    writeSegment(pos, 3, true, {3});

    std::vector<TxTimestamp> stamps;
    DecodedLog log;
    walkChain(dev_, kBase, log);
    for (const auto &seg : log.segments)
        stamps.push_back(seg.timestamp);
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
    DecodedLog log;
    const auto walk = walkChain(dev_, kBase, log);
    for (const auto &seg : log.segments)
        stamps.push_back(seg.timestamp);
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
    DecodedLog log;
    const auto walk = walkChain(dev_, kBase, log);
    for (const auto &seg : log.segments)
        stamps.push_back(seg.timestamp);
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
    DecodedLog log;
    const auto walk = walkChain(dev_, kBase, log);
    for (const auto &seg : log.segments)
        stamps.push_back(seg.timestamp);
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
        DecodedLog log;
        const auto walk = walkChain(dev_, kBase, log);
        for (const auto &seg : log.segments)
            stamps.push_back(seg.timestamp);
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
    DecodedLog log;
    walkChain(dev_, kBase, log);
    for (const auto &seg : log.segments)
        finals.push_back(seg.final);
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

    DecodedLog log;
    const auto walk = walkChain(dev_, kBase, log);
    const auto &segments = log.segments;
    EXPECT_EQ(walk.end, WalkEnd::CleanTail);
    ASSERT_EQ(segments.size(), 1u);
    ASSERT_EQ(segments[0].entries.size(), 2u);
    const auto &zero = log.entriesIn(segments[0].entries)[0];
    const auto &value = log.entriesIn(segments[0].entries)[1];
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
        DecodedLog log;
        const auto walk = walkChain(dev_, kBase, log);
        segments = log.segments.size();
        EXPECT_EQ(walk.end, WalkEnd::TornRecord) << bad.flags;
        EXPECT_EQ(segments, 0u) << bad.flags;
    }
}

/**
 * One chain, written by the fixture or by the encoder: block A holds
 * a one-segment transaction (ts 5) of a zero range and a value entry,
 * then the first segment of a three-segment transaction (ts 7) whose
 * second and final segments fill blocks B and C.
 */
class SplogEncoderTest : public SplogFormatTest
{
  protected:
    static constexpr PmOff kA = kBase;
    static constexpr PmOff kB = kBase + 256;
    static constexpr PmOff kC = kBase + 512;
    static constexpr PmOff kEnd = kBase + 768;

    /** The chain through the fixture's hand-built writers. */
    void
    writeByHand()
    {
        writeBlock(kA, 256, kB);
        writeBlock(kB, 256, kC, kA);
        writeBlock(kC, 256, kPmNull, kB);
        const PmOff pos = kA + sizeof(BlockHeader);
        PmOff cursor = pos + sizeof(SegHead);
        dev_.storeT(cursor, EntryHead{0x20000, 4096, kEntryZero});
        cursor += sizeof(EntryHead);
        dev_.storeT(cursor, EntryHead{0x20008, 8, 0});
        dev_.storeT<std::uint64_t>(cursor + sizeof(EntryHead), 42);
        cursor += entryBytes(8);
        sealAt(dev_, pos, cursor - pos, 2);
        writeSegment(cursor, 7, false, {11, 22});
        writeSegment(kB + sizeof(BlockHeader), 7, false, {33});
        writeSegment(kC + sizeof(BlockHeader), 7, true, {44}, 3);
    }

    /** Seal @p values as writeSegment() lays them out, through the
     * encoder; returns bytes used. */
    static std::size_t
    encodeSegment(pmem::PmemDevice &dev, PmOff pos, TxTimestamp ts,
                  std::uint32_t flags,
                  const std::vector<std::uint64_t> &values)
    {
        std::size_t bytes = sizeof(SegHead);
        for (std::size_t i = 0; i < values.size(); ++i)
            bytes += writeEntry(dev, pos + bytes, 0x10000 + i * 8,
                                &values[i], 8);
        sealSegment(dev, pos, bytes, ts, flags,
                    static_cast<std::uint32_t>(values.size()));
        poisonSlot(dev, pos + bytes);
        return bytes;
    }

    /** The same chain through the encoder. */
    static void
    encode(pmem::PmemDevice &dev)
    {
        formatBlock(dev, kA, 256, kPmNull);
        formatBlock(dev, kB, 256, kA);
        formatBlock(dev, kC, 256, kB);
        const PmOff pos = kA + sizeof(BlockHeader);
        std::size_t bytes = sizeof(SegHead);
        bytes += writeEntry(dev, pos + bytes, 0x20000, nullptr, 4096);
        const std::uint64_t value = 42;
        bytes += writeEntry(dev, pos + bytes, 0x20008, &value, 8);
        sealSegment(dev, pos, bytes, 5, segFlagsWithCount(kSegFinal, 1),
                    2);
        poisonSlot(dev, pos + bytes);
        encodeSegment(dev, pos + bytes, 7, 0, {11, 22});
        encodeSegment(dev, kB + sizeof(BlockHeader), 7, 0, {33});
        encodeSegment(dev, kC + sizeof(BlockHeader), 7,
                      segFlagsWithCount(kSegFinal, 3), {44});
    }
};

TEST_F(SplogEncoderTest, WritesTheFixtureBytes)
{
    writeByHand();
    pmem::PmemDevice encoded(dev_.size());
    encode(encoded);
    const std::vector<std::uint8_t> by_hand(dev_.raw() + kA,
                                            dev_.raw() + kEnd);
    const std::vector<std::uint8_t> by_encoder(encoded.raw() + kA,
                                               encoded.raw() + kEnd);
    EXPECT_EQ(by_hand, by_encoder);
    EXPECT_EQ(blockCapacity(encoded, kB), 256u);
}

TEST_F(SplogEncoderTest, WalkDecodesWhatItWrote)
{
    encode(dev_);
    DecodedLog log;
    const auto walk = walkChain(dev_, kA, log);
    const auto &segments = log.segments;
    EXPECT_EQ(walk.end, WalkEnd::CleanTail);
    EXPECT_EQ(walk.blocks, (std::vector<PmOff>{kA, kB, kC}));
    ASSERT_EQ(segments.size(), 4u);

    // The zero range and the value entry.
    EXPECT_EQ(segments[0].timestamp, 5u);
    EXPECT_TRUE(segments[0].final);
    EXPECT_EQ(segments[0].txSegments, 1u);
    ASSERT_EQ(segments[0].entries.size(), 2u);
    EXPECT_TRUE(log.entriesIn(segments[0].entries)[0].zero);
    EXPECT_EQ(log.entriesIn(segments[0].entries)[0].dataOff, 0x20000u);
    EXPECT_EQ(log.entriesIn(segments[0].entries)[0].size, 4096u);
    std::uint64_t value = 0;
    entryValue(dev_, log.entriesIn(segments[0].entries)[1], &value);
    EXPECT_EQ(value, 42u);

    // The three segments of one transaction; only the last is final
    // and attests to all three.
    std::vector<std::uint64_t> values;
    for (std::size_t i = 1; i < segments.size(); ++i) {
        EXPECT_EQ(segments[i].timestamp, 7u);
        EXPECT_EQ(segments[i].final, i == 3);
        for (const auto &entry : log.entriesIn(segments[i].entries)) {
            entryValue(dev_, entry, &value);
            values.push_back(value);
        }
    }
    EXPECT_EQ(segments[3].txSegments, 3u);
    EXPECT_EQ(values, (std::vector<std::uint64_t>{11, 22, 33, 44}));
}

TEST_F(SplogEncoderTest, FormattingARecycledBlockHidesItsStaleSegments)
{
    // A block that still holds two committed segments, as a block
    // back from the allocator would.
    writeBlock(kA, 256, kPmNull);
    const PmOff first = kA + sizeof(BlockHeader);
    const PmOff second = first + writeSegment(first, 1, true, {1}, 1);
    writeSegment(second, 2, true, {2}, 1);
    std::size_t segments = 0;
    DecodedLog log;
    walkChain(dev_, kA, log);
    segments = log.segments.size();
    ASSERT_EQ(segments, 2u);

    // Chain it behind a fresh head block.
    formatBlock(dev_, kB, 256, kPmNull);
    formatBlock(dev_, kA, 256, kB);

    // The second record still validates where it lies ...
    const auto stale = dev_.loadT<SegHead>(second);
    EXPECT_EQ(segmentCrc(dev_, second, stale), stale.crc);
    // ... but the walk stops at the poison in the first slot.
    segments = 0;
    log.clear();
    const auto walk = walkChain(dev_, kB, log);
    segments = log.segments.size();
    EXPECT_EQ(segments, 0u);
    EXPECT_EQ(walk.end, WalkEnd::CleanTail);
    EXPECT_EQ(walk.blocks, (std::vector<PmOff>{kB, kA}));
    EXPECT_EQ(walk.tailPos, first);
}

} // namespace
} // namespace specpmt::core
