/**
 * @file
 * Unit tests of the shared transaction grouper (core/splog_walk): the
 * single implementation of the "which segment runs form committed
 * transactions" rule that recovery, the reclaimer and the forensic
 * inspector all consume.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

#include "core/splog_walk.hh"

namespace specpmt::core
{
namespace
{

/** A synthetic checksum-valid segment at @p pos. */
DecodedSegment
seg(PmOff pos, TxTimestamp ts, bool final, std::uint32_t tx_segments,
    std::uint32_t size_bytes = 64)
{
    DecodedSegment out;
    out.pos = pos;
    out.timestamp = ts;
    out.final = final;
    out.txSegments = final ? tx_segments : 0;
    out.sizeBytes = size_bytes;
    return out;
}

/** Append @p segment to @p log, in block @p block_index and holding
 * one 8-byte entry per offset in @p data, then feed it to @p grouper. */
void
feed(TxGrouper &grouper, DecodedLog &log, DecodedSegment segment,
     std::size_t block_index = 0, std::initializer_list<PmOff> data = {})
{
    segment.blockIndex = block_index;
    segment.entries.begin = log.entries.size();
    for (const PmOff off : data)
        log.entries.push_back({off, 8, false, segment.pos + 0x40});
    segment.entries.end = log.entries.size();
    log.segments.push_back(segment);
    grouper.feed(log, log.segments.size() - 1);
}

/** Move both of @p log's arrays to new storage, as growth does. */
void
relocate(DecodedLog &log)
{
    DecodedLog copy = log;
    log = std::move(copy);
}

/** The data offsets of @p range's entries. */
std::vector<PmOff>
dataOffs(const DecodedLog &log, IndexRange range)
{
    std::vector<PmOff> out;
    for (const auto &entry : log.entriesIn(range))
        out.push_back(entry.dataOff);
    return out;
}

TEST(TxGrouperTest, EmptyWalkYieldsNothing)
{
    TxGrouper grouper;
    const auto &tail = grouper.finish();
    EXPECT_TRUE(tail.segs.empty());
    EXPECT_TRUE(grouper.committed().empty());
    EXPECT_TRUE(grouper.discarded().empty());
    EXPECT_EQ(grouper.lastCommittedEnd(), kPmNull);
}

TEST(TxGrouperTest, SingleSegmentTransactionCommits)
{
    DecodedLog log;
    TxGrouper grouper;
    feed(grouper, log, seg(0x1000, 7, true, 1, 72));
    grouper.finish();

    ASSERT_EQ(grouper.committed().size(), 1u);
    EXPECT_EQ(grouper.committed()[0].ts, 7u);
    ASSERT_EQ(grouper.committed()[0].segs.size(), 1u);
    EXPECT_TRUE(grouper.discarded().empty());
    EXPECT_TRUE(grouper.inFlight().segs.empty());
    // 72 bytes round up to the 8-aligned slot end.
    EXPECT_EQ(grouper.lastCommittedEnd(), 0x1000u + 72u);
}

TEST(TxGrouperTest, MultiSegmentRunCommitsWithExactCount)
{
    DecodedLog log;
    TxGrouper grouper;
    feed(grouper, log, seg(0x1000, 3, false, 0));
    feed(grouper, log, seg(0x1040, 3, false, 0));
    feed(grouper, log, seg(0x1080, 3, true, 3));
    grouper.finish();

    ASSERT_EQ(grouper.committed().size(), 1u);
    EXPECT_EQ(grouper.committed()[0].segs.size(), 3u);
    EXPECT_TRUE(grouper.discarded().empty());
}

TEST(TxGrouperTest, SegCountMismatchDiscardsTheRun)
{
    // The final seal attests 3 segments but only 2 survived (the
    // middle segment's header never drained and read back as tail
    // poison): committing would apply a subset of the transaction.
    DecodedLog log;
    TxGrouper grouper;
    feed(grouper, log, seg(0x1000, 3, false, 0));
    feed(grouper, log, seg(0x1080, 3, true, 3));
    grouper.finish();

    EXPECT_TRUE(grouper.committed().empty());
    ASSERT_EQ(grouper.discarded().size(), 1u);
    EXPECT_EQ(grouper.discarded()[0].reason,
              TxDiscard::SegCountMismatch);
    EXPECT_EQ(grouper.discarded()[0].tx.segs.size(), 2u);
    EXPECT_EQ(grouper.lastCommittedEnd(), kPmNull);
}

TEST(TxGrouperTest, TimestampBreakDiscardsTheInterruptedRun)
{
    // ts=1 never got its final seal before ts=2's segments arrived:
    // the ts=1 run is an interrupted commit's leftovers.
    DecodedLog log;
    TxGrouper grouper;
    feed(grouper, log, seg(0x1000, 1, false, 0));
    feed(grouper, log, seg(0x1040, 2, true, 1));
    grouper.finish();

    ASSERT_EQ(grouper.discarded().size(), 1u);
    EXPECT_EQ(grouper.discarded()[0].reason, TxDiscard::TimestampBreak);
    EXPECT_EQ(grouper.discarded()[0].tx.ts, 1u);
    ASSERT_EQ(grouper.committed().size(), 1u);
    EXPECT_EQ(grouper.committed()[0].ts, 2u);
}

TEST(TxGrouperTest, TrailingOpenRunIsInFlight)
{
    DecodedLog log;
    TxGrouper grouper;
    feed(grouper, log, seg(0x1000, 1, true, 1));
    feed(grouper, log, seg(0x1040, 2, false, 0));
    feed(grouper, log, seg(0x1080, 2, false, 0));
    const auto &tail = grouper.finish();

    ASSERT_EQ(tail.segs.size(), 2u);
    EXPECT_EQ(tail.ts, 2u);
    EXPECT_EQ(grouper.committed().size(), 1u);
    EXPECT_TRUE(grouper.discarded().empty());
    // The adoption point is the committed prefix, not the tail.
    EXPECT_EQ(grouper.lastCommittedEnd(), 0x1000u + 64u);
}

TEST(TxGrouperTest, LastCommittedEndTracksTheNewestCommit)
{
    DecodedLog log;
    TxGrouper grouper;
    feed(grouper, log, seg(0x1000, 1, true, 1));
    feed(grouper, log, seg(0x1040, 2, true, 1, 48));
    grouper.finish();

    EXPECT_EQ(grouper.committed().size(), 2u);
    EXPECT_EQ(grouper.lastCommittedEnd(), 0x1040u + 48u);
}

TEST(TxGrouperTest, ZeroCountSealNeverCommitsAMultiSegmentRun)
{
    // A final seal with no count attestation (legacy/garbled flags)
    // cannot prove the run's length; the grouper must not commit it.
    DecodedLog log;
    TxGrouper grouper;
    feed(grouper, log, seg(0x1000, 5, false, 0));
    feed(grouper, log, seg(0x1040, 5, true, 0));
    grouper.finish();

    EXPECT_TRUE(grouper.committed().empty());
    ASSERT_EQ(grouper.discarded().size(), 1u);
    EXPECT_EQ(grouper.discarded()[0].reason,
              TxDiscard::SegCountMismatch);
}

TEST(TxGrouperTest, BlockIndexPropagatesToGroupedSegs)
{
    DecodedLog log;
    TxGrouper grouper;
    feed(grouper, log, seg(0x1000, 1, false, 0), 4);
    feed(grouper, log, seg(0x2000, 1, true, 2), 5);
    grouper.finish();

    ASSERT_EQ(grouper.committed().size(), 1u);
    const IndexRange segs = grouper.committed()[0].segs;
    EXPECT_EQ(log.segments[segs.begin].blockIndex, 4u);
    EXPECT_EQ(log.segments[segs.begin + 1].blockIndex, 5u);
}

TEST(TxGrouperTest, BackToBackDiscardsKeepWalkOrder)
{
    DecodedLog log;
    TxGrouper grouper;
    feed(grouper, log, seg(0x1000, 1, false, 0)); // ts break victim
    feed(grouper, log, seg(0x1040, 2, false, 0));
    feed(grouper, log, seg(0x1080, 2, true, 9)); // count mismatch
    feed(grouper, log, seg(0x10C0, 3, true, 1)); // commits
    grouper.finish();

    ASSERT_EQ(grouper.discarded().size(), 2u);
    EXPECT_EQ(grouper.discarded()[0].reason, TxDiscard::TimestampBreak);
    EXPECT_EQ(grouper.discarded()[1].reason,
              TxDiscard::SegCountMismatch);
    ASSERT_EQ(grouper.committed().size(), 1u);
    EXPECT_EQ(grouper.committed()[0].ts, 3u);
}

TEST(TxGrouperTest, ViewsSurviveTheArenaMovingMidTransaction)
{
    // The arena moves between the segments of every multi-segment run:
    // a committed, a discarded and an in-flight one. Views hold
    // indexes, so each still names its own segments and entries.
    DecodedLog log;
    TxGrouper grouper;
    feed(grouper, log, seg(0x1000, 1, false, 0), 0, {0xA0, 0xA8});
    relocate(log);
    feed(grouper, log, seg(0x1040, 1, false, 0), 0, {0xB0});
    relocate(log);
    feed(grouper, log, seg(0x1080, 1, true, 3), 1, {0xC0});
    feed(grouper, log, seg(0x10C0, 2, false, 0), 1, {0xD0});
    relocate(log);
    feed(grouper, log, seg(0x1100, 2, true, 3), 1, {0xE0});
    feed(grouper, log, seg(0x1140, 3, false, 0), 2, {0xF0});
    relocate(log);
    feed(grouper, log, seg(0x1180, 3, false, 0), 2, {0xF8});
    const GroupedTx &tail = grouper.finish();
    relocate(log);

    ASSERT_EQ(grouper.committed().size(), 1u);
    const GroupedTx &committed = grouper.committed()[0];
    EXPECT_EQ(committed.ts, 1u);
    EXPECT_EQ(committed.segs.begin, 0u);
    EXPECT_EQ(committed.segs.size(), 3u);
    EXPECT_EQ(dataOffs(log, committed.entries),
              (std::vector<PmOff>{0xA0, 0xA8, 0xB0, 0xC0}));
    EXPECT_EQ(log.segments[committed.segs.end - 1].pos, 0x1080u);
    EXPECT_EQ(grouper.lastCommittedEnd(), 0x1080u + 64u);

    ASSERT_EQ(grouper.discarded().size(), 1u);
    const DiscardedTx &discarded = grouper.discarded()[0];
    EXPECT_EQ(discarded.reason, TxDiscard::SegCountMismatch);
    EXPECT_EQ(discarded.tx.ts, 2u);
    EXPECT_EQ(discarded.tx.segs.begin, 3u);
    EXPECT_EQ(discarded.tx.segs.size(), 2u);
    EXPECT_EQ(dataOffs(log, discarded.tx.entries),
              (std::vector<PmOff>{0xD0, 0xE0}));

    EXPECT_EQ(tail.ts, 3u);
    EXPECT_EQ(tail.segs.begin, 5u);
    EXPECT_EQ(tail.segs.size(), 2u);
    EXPECT_EQ(dataOffs(log, tail.entries),
              (std::vector<PmOff>{0xF0, 0xF8}));
    EXPECT_EQ(log.segments[tail.segs.begin].blockIndex, 2u);
}

TEST(TxGrouperTest, GroupNotesEachQuarantineWhereItFell)
{
    // A walk's quarantine between two segments of one run breaks the
    // run; one after the walk's last segment closes the open run.
    DecodedLog log;
    for (const auto &segment :
         {seg(0x1000, 1, false, 0), seg(0x1080, 1, true, 2),
          seg(0x10C0, 2, true, 1), seg(0x1100, 3, false, 0)})
        log.segments.push_back(segment);
    QuarantinedSegment gap;
    gap.pos = 0x1040;
    gap.nextSegment = 1;
    QuarantinedSegment last;
    last.pos = 0x1140;
    last.nextSegment = 4;

    TxGrouper grouper;
    const GroupedTx &tail = grouper.group(log, 0, {gap, last});
    EXPECT_TRUE(tail.segs.empty());
    ASSERT_EQ(grouper.committed().size(), 1u);
    EXPECT_EQ(grouper.committed()[0].ts, 2u);
    ASSERT_EQ(grouper.discarded().size(), 3u);
    EXPECT_EQ(grouper.discarded()[0].reason, TxDiscard::QuarantineGap);
    EXPECT_EQ(grouper.discarded()[0].tx.segs.size(), 1u);
    EXPECT_EQ(grouper.discarded()[1].reason,
              TxDiscard::SegCountMismatch);
    EXPECT_EQ(grouper.discarded()[2].reason, TxDiscard::QuarantineGap);
    EXPECT_EQ(grouper.discarded()[2].tx.ts, 3u);
}

} // namespace
} // namespace specpmt::core
