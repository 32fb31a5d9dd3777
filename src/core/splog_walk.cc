#include "core/splog_walk.hh"

#include <algorithm>

#include "common/logging.hh"

namespace specpmt::core
{

void
TxGrouper::feed(const DecodedLog &log, std::size_t index)
{
    SPECPMT_ASSERT(!finished_);
    const DecodedSegment &seg = log.segments[index];
    if (!open_.segs.empty() && open_.ts != seg.timestamp) {
        discarded_.push_back({TxDiscard::TimestampBreak, open_});
        open_ = GroupedTx{};
    }
    if (open_.segs.empty())
        open_ = {seg.timestamp, {index, index},
                 {seg.entries.begin, seg.entries.begin}};
    // One walk appended the run, so it is consecutive in the arena.
    SPECPMT_ASSERT(index == open_.segs.end &&
                   seg.entries.begin == open_.entries.end);
    open_.segs.end = index + 1;
    open_.entries.end = seg.entries.end;
    if (!seg.final)
        return;
    if (seg.txSegments != open_.segs.size()) {
        discarded_.push_back({TxDiscard::SegCountMismatch, open_});
        open_ = GroupedTx{};
        return;
    }
    lastCommittedEnd_ = segmentEnd(seg);
    committed_.push_back(open_);
    open_ = GroupedTx{};
}

void
TxGrouper::noteQuarantine()
{
    SPECPMT_ASSERT(!finished_);
    if (open_.segs.empty())
        return;
    discarded_.push_back({TxDiscard::QuarantineGap, open_});
    open_ = GroupedTx{};
}

const GroupedTx &
TxGrouper::finish()
{
    SPECPMT_ASSERT(!finished_);
    finished_ = true;
    inFlight_ = open_;
    open_ = GroupedTx{};
    return inFlight_;
}

const GroupedTx &
TxGrouper::group(const DecodedLog &log, std::size_t first,
                 const std::vector<QuarantinedSegment> &quarantined)
{
    auto q = quarantined.begin();
    for (std::size_t i = first; i < log.segments.size(); ++i) {
        for (; q != quarantined.end() && q->nextSegment <= i; ++q)
            noteQuarantine();
        feed(log, i);
    }
    for (; q != quarantined.end(); ++q)
        noteQuarantine();
    return finish();
}

TxTimestamp
epochReplayLimit(const EpochFrontier &frontier,
                 std::vector<TxTimestamp> committed_ts)
{
    if (!epochFrontierValid(frontier) || frontier.start == 0)
        return 0; // unreadable frontier: replay nothing committed
    std::sort(committed_ts.begin(), committed_ts.end());
    TxTimestamp limit = frontier.start - 1;
    auto it = std::lower_bound(committed_ts.begin(), committed_ts.end(),
                               frontier.start);
    while (limit < frontier.end && it != committed_ts.end() &&
           *it == limit + 1) {
        ++limit;
        // Duplicate timestamps cannot occur across healthy chains but
        // a corrupted image might present them; skip repeats so the
        // scan still terminates at the first true gap.
        while (it != committed_ts.end() && *it == limit)
            ++it;
    }
    return limit;
}

} // namespace specpmt::core
