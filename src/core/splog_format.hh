/**
 * @file
 * On-media format of the speculative log (paper Section 4.1): the one
 * encoder every log writer uses (SpecTx's append path and compaction,
 * the hybrid runtime) and the one walker every reader uses (recovery,
 * the background reclaimer, the inspector). The walker decodes into a
 * DecodedLog arena that its caller owns and reuses.
 *
 * A per-thread log area is a forward-chained list of *log blocks*:
 *
 *   [BlockHeader][segment][segment]...[poison]
 *
 * Each committed transaction contributes one or more *segments*
 * (several only when the transaction's entries overflow a block).
 * A segment is:
 *
 *   [SegHead crc|sizeBytes|timestamp|flags|numEntries]
 *   [EntryHead off|size|flags][value, 8-aligned] * numEntries
 *
 * An entry flagged kEntryZero is a head-only *zero range*: it says
 * bytes [off, off+size) are zero as of the segment's timestamp and
 * carries no value bytes (DESIGN §19).
 *
 * The crc covers everything after the crc field and is written only at
 * commit — it doubles as the commit flag (a torn or absent crc means
 * the transaction never committed), exactly the dedicated-flag-free
 * design in the paper. The timestamp orders records across threads for
 * recovery. A zero sizeBytes where a segment header would start is the
 * chronological tail poison: the walker either follows the block's
 * next pointer or stops.
 */

#ifndef SPECPMT_CORE_SPLOG_FORMAT_HH
#define SPECPMT_CORE_SPLOG_FORMAT_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hh"
#include "pmem/pmem_device.hh"

namespace specpmt::core
{

/** Chain pointers at the start of every log block. */
struct BlockHeader
{
    PmOff next;
    PmOff prev;
    std::uint64_t capacity; ///< usable bytes including this header
    std::uint64_t pad;
};
static_assert(sizeof(BlockHeader) == 32);

/** Segment (log record) header; see file comment. */
struct SegHead
{
    std::uint32_t crc;
    std::uint32_t sizeBytes; ///< whole segment, including this header
    std::uint64_t timestamp;
    std::uint32_t flags;     ///< kSeg* bits; final seals also carry
                             ///< the tx's segment count (see below)
    std::uint32_t numEntries;
};
static_assert(sizeof(SegHead) == 24);

/** Flag: this segment completes its transaction. */
constexpr std::uint32_t kSegFinal = 0x1;

/**
 * A transaction whose entries overflow a block spans several segments,
 * each sealed with its own checksum. The final seal alone cannot prove
 * the earlier segments reached the media: an intermediate segment
 * whose header line never drained reads back as tail poison, so the
 * walker skips it and follows the (persisted) chain pointer straight
 * to a valid final seal — silently committing a subset of the
 * transaction. To close that hole, the final segment's flags carry the
 * transaction's total segment count in the bits above
 * kSegCountShift; recovery only accepts a transaction whose run of
 * same-timestamp segments is exactly that long.
 */
constexpr unsigned kSegCountShift = 8;

/** Final-segment flags carrying @p count total segments. */
constexpr std::uint32_t
segFlagsWithCount(std::uint32_t flags, std::uint32_t count)
{
    return flags | (count << kSegCountShift);
}

/** Total segments of the transaction a final seal attests to. */
constexpr std::uint32_t
segCountFromFlags(std::uint32_t flags)
{
    return flags >> kSegCountShift;
}

/**
 * Flags used by the hybrid (hardware-protocol) log, Section 5: an
 * undo record created for a cold line, and a whole-page speculative
 * record created on a cold->hot transition. For these, the timestamp
 * field carries the creating transaction's per-thread sequence number
 * rather than a commit timestamp.
 */
constexpr std::uint32_t kSegUndo = 0x2;
constexpr std::uint32_t kSegPage = 0x4;

/** Per-datum entry header inside a segment. */
struct EntryHead
{
    std::uint64_t off;
    std::uint32_t size;
    std::uint32_t flags; ///< kEntry* bits; 0 for a value entry
};
static_assert(sizeof(EntryHead) == 16);

/** Entry flag: a zero range, the head alone (see file comment). */
constexpr std::uint32_t kEntryZero = 0x1;

/** Bytes an entry occupies in the log: a value entry of
 * @p value_size bytes, or a zero range (the head alone). */
constexpr std::size_t
entryBytes(std::size_t value_size, bool zero = false)
{
    return sizeof(EntryHead) +
           (zero ? 0 : (value_size + 7) & ~std::size_t{7});
}

/** Default log block size (paper: on-demand fixed-size blocks). */
constexpr std::size_t kLogBlockSize = 4096;

/**
 * On-media epoch frontier record (group-commit mode; DESIGN §12).
 *
 * One cache line, published at root slot txn::kEpochFrontierSlot,
 * overwritten at the start of every epoch seal so its store rides the
 * seal's own fence. [start, end] is the commit-timestamp window of
 * the epoch being sealed; every committed transaction with a smaller
 * timestamp is covered by an earlier, completed epoch fence. The
 * recovery rule built on it (epochReplayLimit in splog_walk) replays
 * the longest timestamp-dense prefix and thereby never replays a
 * transaction whose predecessors' seals may be missing, and never
 * drops one whose ack a client could have observed.
 */
struct EpochFrontier
{
    std::uint64_t magic;
    std::uint64_t start; ///< first timestamp of the epoch being sealed
    std::uint64_t end;   ///< last timestamp of that epoch
    std::uint32_t crc;   ///< over magic/start/end
    std::uint32_t pad;
};
static_assert(sizeof(EpochFrontier) == 32);

constexpr std::uint64_t kEpochFrontierMagic = 0x314F504543455053ull;

/** Checksum of a frontier record's payload fields. */
std::uint32_t epochFrontierCrc(const EpochFrontier &frontier);

/** Magic + checksum validation. */
bool epochFrontierValid(const EpochFrontier &frontier);

/**
 * Compute a segment's crc from the device image: covers the SegHead
 * fields after crc plus all entry bytes, seeded by the segment's
 * location so a record can never validate at a different position
 * (e.g. in a recycled block).
 */
std::uint32_t segmentCrc(const pmem::PmemDevice &dev, PmOff seg_pos,
                         const SegHead &head);

/** A decoded log entry (value still resident in the device image). */
struct DecodedEntry
{
    PmOff dataOff;   ///< address the entry describes
    std::uint32_t size;
    bool zero;       ///< a kEntryZero range: no value bytes
    PmOff valuePos;  ///< where the logged value lives in the log area
                     ///< (kPmNull for a zero range)

    /** Bytes the entry occupies in the log. */
    std::size_t
    logBytes() const
    {
        return entryBytes(size, zero);
    }
};

/**
 * The @c size bytes @p entry says [dataOff, dataOff+size) holds, copied
 * into @p out: the logged value, read from the log image @p dev, or
 * zeros for a zero range. Every reader of entries (recovery, the
 * reclaimer, the hybrid runtime, the recovery audit) goes through it.
 */
void entryValue(const pmem::PmemDevice &dev, const DecodedEntry &entry,
                void *out);

/** As above, for a raw image (caller checks valuePos is in bounds). */
void entryValue(const std::uint8_t *image, const DecodedEntry &entry,
                void *out);

/** A half-open range [begin, end) of indexes into a DecodedLog array. */
struct IndexRange
{
    std::size_t begin = 0;
    std::size_t end = 0;

    std::size_t size() const { return end - begin; }
    bool empty() const { return begin == end; }
};

/** A decoded, checksum-valid segment. */
struct DecodedSegment
{
    PmOff pos = kPmNull;        ///< segment start in the log area
    TxTimestamp timestamp = 0;
    bool final = false;         ///< completes its transaction
    std::uint32_t flags = 0;    ///< raw SegHead flags
    /** On a final segment: the tx's total segment count (0 if the
     * writer predates the count encoding, e.g. hand-built fixtures). */
    std::uint32_t txSegments = 0;
    std::uint32_t sizeBytes = 0;
    /** Ordinal of the block holding the segment: its place in the
     * chain (walkChain) or in the caller's block list (walkBlocks). */
    std::size_t blockIndex = 0;
    /** Its entries, as indexes into DecodedLog::entries. */
    IndexRange entries;
};

/**
 * The decoded log: the one arena every walk appends to, segment heads
 * to @c segments and their entries to @c entries, in walk order. A
 * caller walks as many blocks and chains into one arena as it needs
 * and reads them back through indexes (DecodedSegment::entries, the
 * grouper's GroupedTx), never through pointers, so growth may move
 * the arrays at any time. clear() keeps the capacity for reuse.
 */
struct DecodedLog
{
    std::vector<DecodedSegment> segments;
    std::vector<DecodedEntry> entries;

    /** The entries of @p range. */
    std::span<const DecodedEntry>
    entriesIn(IndexRange range) const
    {
        return std::span(entries).subspan(range.begin, range.size());
    }

    void
    clear()
    {
        segments.clear();
        entries.clear();
    }
};

/** Why a walk over one thread's chain ended. */
enum class WalkEnd
{
    CleanTail,   ///< poison / end of chain: everything parsed
    TornRecord,  ///< crc mismatch: crash interrupted a commit here
};

/**
 * A CRC-failing segment the walker skipped instead of stopping at:
 * media corruption of an *interior* record, distinguishable from a
 * crash-torn tail because a checksum-valid segment follows it at the
 * position its (plausible) size header points to. Crash-torn tails
 * never look like this — nothing valid is ever appended past a torn
 * commit — so quarantining preserves the torn-tail rule exactly.
 */
struct QuarantinedSegment
{
    PmOff pos = kPmNull;        ///< segment start in the log area
    std::uint32_t sizeBytes = 0;///< size claimed by its header
    PmOff block = kPmNull;      ///< block containing the segment
    /** Index in DecodedLog::segments of the valid segment the walk
     * appended next: the quarantine fell just before it. */
    std::size_t nextSegment = 0;
};

/** Structural result of a chain walk, used to re-adopt a log. */
struct WalkResult
{
    WalkEnd end = WalkEnd::CleanTail;
    /** Every block reached by following next pointers, in order. */
    std::vector<PmOff> blocks;
    /** Absolute position right after the last valid segment. */
    PmOff tailPos = kPmNull;
    /** Block containing tailPos (the last visited block). */
    PmOff tailBlock = kPmNull;
    /** Interior CRC failures skipped as media corruption. */
    std::vector<QuarantinedSegment> quarantined;
};

/**
 * Walk one thread's block chain from @p head_block, appending every
 * checksum-valid segment to @p log in chronological order. Stops at
 * the first torn record (there cannot be fresh records beyond it —
 * Section 4.1) — unless the failing record is followed by a
 * checksum-valid segment, in which case it is quarantined (see
 * QuarantinedSegment) and the walk continues.
 */
WalkResult walkChain(const pmem::PmemDevice &dev, PmOff head_block,
                     DecodedLog &log);

/**
 * Walk the segments of each block in @p blocks (no chain following),
 * appending them to @p log tagged with the block's index in the list;
 * used by the reclaimer, which freezes an explicit block list. A
 * block's walk ends at its first invalid record.
 */
void walkBlocks(const pmem::PmemDevice &dev,
                const std::vector<PmOff> &blocks, DecodedLog &log);

// ---------------------------------------------------------------------
// Encoder. Every log writer goes through these functions, and only
// they store a BlockHeader, EntryHead or SegHead. They store and load
// only: each caller persists what it writes, with its own flush and
// fence discipline.
// ---------------------------------------------------------------------

/** The zero word that marks the chronological tail. */
constexpr std::size_t kPoisonBytes = sizeof(std::uint64_t);

/**
 * Bytes to allocate for a log block that must hold @p payload bytes of
 * records: @p default_size, or the header, the payload and a tail
 * poison rounded up to @p align when they need more.
 */
constexpr std::size_t
logBlockBytes(std::size_t payload, std::size_t default_size,
              std::size_t align)
{
    const std::size_t need = sizeof(BlockHeader) + payload + kPoisonBytes;
    return need > default_size ? (need + align - 1) & ~(align - 1)
                               : default_size;
}

/** Whether @p bytes written at block offset @p pos still leave room
 * for the tail poison in a block of @p capacity bytes. */
constexpr bool
fitsBlock(std::size_t capacity, std::size_t pos, std::size_t bytes)
{
    return pos + bytes + kPoisonBytes <= capacity;
}

/** The capacity @p block's header records (one load). */
std::size_t blockCapacity(const pmem::PmemDevice &dev, PmOff block);

/**
 * Format @p block as an empty log block of @p capacity bytes: its
 * header (no successor, predecessor @p prev), the poison in its first
 * record slot, then, unless @p prev is kPmNull, @p prev's next link to
 * it. A recycled block's old segments become unreachable, however
 * valid their checksums: the walk stops at the poison.
 */
void formatBlock(pmem::PmemDevice &dev, PmOff block, std::size_t capacity,
                 PmOff prev);

/** Point @p block's next link at @p next; returns the link's address. */
PmOff storeNext(pmem::PmemDevice &dev, PmOff block, PmOff next);

/** Point @p block's prev link at @p prev; returns the link's address. */
PmOff storePrev(pmem::PmemDevice &dev, PmOff block, PmOff prev);

/**
 * Write one entry at @p pos: a value entry holding the @p size bytes
 * at @p value, or, when @p value is null, a zero range for
 * [off, off+size). @return the bytes the entry occupies in the log.
 */
std::size_t writeEntry(pmem::PmemDevice &dev, PmOff pos, PmOff off,
                       const void *value, std::size_t size);

/**
 * Seal the segment at @p pos, whose @p num_entries entries are already
 * in place: checksum it from the device image, then store its header.
 * The segment is committed once that header persists.
 */
void sealSegment(pmem::PmemDevice &dev, PmOff pos, std::size_t size_bytes,
                 TxTimestamp ts, std::uint32_t flags,
                 std::uint32_t num_entries);

/** Store the tail poison at @p pos. */
void poisonSlot(pmem::PmemDevice &dev, PmOff pos);

} // namespace specpmt::core

#endif // SPECPMT_CORE_SPLOG_FORMAT_HH
