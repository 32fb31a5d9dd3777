/**
 * @file
 * Transaction grouping over a chronological stream of checksum-valid
 * speculative-log segments — the one place the "which segment runs
 * form committed transactions" rule lives.
 *
 * A walk (splog_format) decodes a chain, or a reclaimer's frozen
 * blocks, once into a DecodedLog arena; the grouper then reads that
 * walk's segments in place and hands out each run as a view into the
 * arena: a timestamp, a segment range and an entry range. No reader
 * copies a segment or an entry to group, order or replay them.
 *
 * Three consumers run the same grouper and must agree byte-for-byte
 * on its verdicts:
 *
 *  - post-crash recovery (SpecTx::recover), which replays exactly the
 *    committed groups and truncates everything after the last one;
 *  - the background reclaimer (SpecTx::reclaimCycle), which may only
 *    compact entries of committed groups — laundering a torn commit's
 *    valid-checksum debris into a compact record would hand recovery
 *    an uncommitted update as committed;
 *  - the offline forensic inspector (src/forensic), which classifies
 *    every transaction in a crash image independently of the runtime
 *    and is diffed against the runtime's actual recovery decisions.
 *
 * The rule (Section 4.1 plus the segment-count seal from the
 * crashmatrix-found torn-commit fix): a transaction is a run of
 * consecutive same-timestamp segments; it is committed iff the run
 * ends in a final-flagged segment whose seal attests a segment count
 * equal to the run's length. Any other run is discarded — either a
 * timestamp break (a new transaction's segments arrive before a final
 * seal, so the previous run is an interrupted commit's leftovers) or
 * a count mismatch (an intermediate segment's header never drained
 * and read back as tail poison, shortening the run the final seal
 * describes). A run still open when the walk ends is the in-flight
 * tail: the transaction the crash interrupted.
 */

#ifndef SPECPMT_CORE_SPLOG_WALK_HH
#define SPECPMT_CORE_SPLOG_WALK_HH

#include <cstddef>
#include <vector>

#include "core/splog_format.hh"

namespace specpmt::core
{

/** Position right after @p seg (segments are 8-aligned in a block). */
constexpr PmOff
segmentEnd(const DecodedSegment &seg)
{
    return seg.pos + ((seg.sizeBytes + 7) & ~std::uint32_t{7});
}

/** Why a run of valid-checksum segments was not committed. */
enum class TxDiscard
{
    /** A different timestamp arrived before any final seal: the run
     * is an interrupted transaction's leftovers (only possible for
     * debris predating the current chain tail). */
    TimestampBreak,
    /** The final seal attests to more segments than the run holds: an
     * intermediate segment was lost to the crash (read back as tail
     * poison), so committing the run would apply a subset of the
     * transaction. */
    SegCountMismatch,
    /** A quarantined (media-corrupted) segment interrupted the run:
     * part of the transaction is unreadable, so committing the
     * remainder would apply a subset. */
    QuarantineGap,
};

/**
 * A maximal run of consecutive same-timestamp segments, as a view into
 * the DecodedLog it was grouped from: indexes, so it stays valid while
 * the arena grows.
 */
struct GroupedTx
{
    TxTimestamp ts = 0;
    /** The run's segments, in DecodedLog::segments. */
    IndexRange segs;
    /** Every entry of those segments, in order, in DecodedLog::entries. */
    IndexRange entries;
};

/** A discarded run plus the reason it cannot be committed. */
struct DiscardedTx
{
    TxDiscard reason = TxDiscard::TimestampBreak;
    GroupedTx tx;
};

/** The grouper; see file comment. Feed one walk's segments in walk
 * order, then call finish() exactly once before reading the results;
 * group() does all three. */
class TxGrouper
{
  public:
    /** Feed segment @p index of @p log, the walk's next valid one. */
    void feed(const DecodedLog &log, std::size_t index);

    /**
     * The walker quarantined a CRC-failing segment at this point of
     * the stream: any open run loses a member and must be discarded
     * (TxDiscard::QuarantineGap); a later final seal for the same
     * timestamp will then fail its count attestation as well.
     */
    void noteQuarantine();

    /** End of walk: whatever is still open becomes the in-flight
     * tail. @return the in-flight run (empty if the walk ended on a
     * transaction boundary). */
    const GroupedTx &finish();

    /**
     * Group one walk: feed segments [first, end) of @p log, noting
     * each of the walk's @p quarantined segments where it fell, then
     * finish(). @return the in-flight run.
     */
    const GroupedTx &group(
        const DecodedLog &log, std::size_t first = 0,
        const std::vector<QuarantinedSegment> &quarantined = {});

    /** Committed transactions, in walk (= per-thread commit) order. */
    const std::vector<GroupedTx> &committed() const { return committed_; }

    /** Discarded runs, in walk order. */
    const std::vector<DiscardedTx> &discarded() const { return discarded_; }

    /** The run the walk ended inside (valid after finish()). */
    const GroupedTx &inFlight() const { return inFlight_; }

    /** End position of the last committed transaction, or kPmNull if
     * none committed — recovery's chain adoption point. */
    PmOff lastCommittedEnd() const { return lastCommittedEnd_; }

  private:
    GroupedTx open_;
    std::vector<GroupedTx> committed_;
    std::vector<DiscardedTx> discarded_;
    GroupedTx inFlight_;
    PmOff lastCommittedEnd_ = kPmNull;
    bool finished_ = false;
};

/**
 * The epoch-mode replay rule (DESIGN §12), shared — like the grouping
 * rule above — by recovery, and the offline inspector, which must
 * agree on every image.
 *
 * Given the durable frontier record and the timestamps of every
 * committed (checksum-valid, count-attested) transaction found in the
 * image, returns the highest timestamp recovery may replay: a
 * transaction survives iff its timestamp is <= the returned limit.
 *
 * Rationale: timestamps below frontier.start belong to earlier
 * epochs whose fences completed before this frontier version was even
 * stored, so they are always safe. Inside the window
 * [frontier.start, frontier.end], the seals are either all durable
 * (the epoch fence completed — in which case every window timestamp
 * is present, since commits allocate timestamps densely and the
 * compactor tombstones rather than deletes) or the fence never
 * completed and nothing in the window was acked — in which case any
 * timestamp-dense prefix is a consistent cut, because dependent
 * transactions commit in timestamp order. Timestamps beyond the
 * window joined a later, never-sealed epoch and are always dropped.
 */
TxTimestamp epochReplayLimit(const EpochFrontier &frontier,
                             std::vector<TxTimestamp> committed_ts);

} // namespace specpmt::core

#endif // SPECPMT_CORE_SPLOG_WALK_HH
