#include "core/splog_format.hh"

#include <cstddef>
#include <cstring>
#include <unordered_set>

#include "common/crc32.hh"
#include "common/logging.hh"

namespace specpmt::core
{

namespace
{

/** Checksum of a segment whose entry bytes @p body are in memory. */
std::uint32_t
segmentCrcOf(PmOff seg_pos, const SegHead &head, const std::uint8_t *body)
{
    std::uint32_t crc = crc32c(&seg_pos, sizeof(seg_pos));
    crc = crc32c(&head.sizeBytes, sizeof(head.sizeBytes), crc);
    crc = crc32c(&head.timestamp, sizeof(head.timestamp), crc);
    crc = crc32c(&head.flags, sizeof(head.flags), crc);
    crc = crc32c(&head.numEntries, sizeof(head.numEntries), crc);
    return crc32c(body, head.sizeBytes - sizeof(SegHead), crc);
}

} // namespace

std::uint32_t
segmentCrc(const pmem::PmemDevice &dev, PmOff seg_pos, const SegHead &head)
{
    // Entry bytes, straight from the device image.
    const std::size_t body = head.sizeBytes - sizeof(SegHead);
    std::vector<std::uint8_t> buffer(body);
    dev.load(seg_pos + sizeof(SegHead), buffer.data(), body);
    return segmentCrcOf(seg_pos, head, buffer.data());
}

std::uint32_t
epochFrontierCrc(const EpochFrontier &frontier)
{
    std::uint32_t crc = crc32c(&frontier.magic, sizeof(frontier.magic));
    crc = crc32c(&frontier.start, sizeof(frontier.start), crc);
    return crc32c(&frontier.end, sizeof(frontier.end), crc);
}

bool
epochFrontierValid(const EpochFrontier &frontier)
{
    return frontier.magic == kEpochFrontierMagic &&
           frontier.crc == epochFrontierCrc(frontier);
}

void
entryValue(const pmem::PmemDevice &dev, const DecodedEntry &entry,
           void *out)
{
    if (entry.zero)
        std::memset(out, 0, entry.size);
    else
        dev.load(entry.valuePos, out, entry.size);
}

void
entryValue(const std::uint8_t *image, const DecodedEntry &entry,
           void *out)
{
    if (entry.zero)
        std::memset(out, 0, entry.size);
    else
        std::memcpy(out, image + entry.valuePos, entry.size);
}

namespace
{

/**
 * One segment at a time, in a buffer reused across a whole walk. A
 * segment costs one load of the line(s) holding its header and one
 * load of the lines after them, so the walk touches exactly the lines
 * the segment spans (media faults surface as with any other read of
 * it) and charges each line once. Checksum and entry heads are then
 * computed from the buffer.
 */
class SegmentReader
{
  public:
    explicit SegmentReader(const pmem::PmemDevice &dev) : dev_(dev) {}

    /** Load the header at @p pos and the rest of its last line. */
    SegHead
    head(PmOff pos)
    {
        pos_ = pos;
        loaded_ = (lineIndex(pos + sizeof(SegHead) - 1) + 1) *
                      kCacheLineSize -
                  pos;
        reserve(loaded_);
        dev_.load(pos, buffer_.data(), loaded_);
        SegHead head;
        std::memcpy(&head, buffer_.data(), sizeof(head));
        return head;
    }

    /** Load the rest of the segment whose header head() returned;
     * returns its entry bytes. */
    const std::uint8_t *
    body(const SegHead &head)
    {
        if (head.sizeBytes > loaded_) {
            reserve(head.sizeBytes);
            dev_.load(pos_ + loaded_, buffer_.data() + loaded_,
                      head.sizeBytes - loaded_);
            loaded_ = head.sizeBytes;
        }
        return buffer_.data() + sizeof(SegHead);
    }

  private:
    void
    reserve(std::size_t bytes)
    {
        if (buffer_.size() < bytes)
            buffer_.resize(bytes);
    }

    const pmem::PmemDevice &dev_;
    std::vector<std::uint8_t> buffer_;
    PmOff pos_ = kPmNull;
    std::size_t loaded_ = 0; ///< bytes of the segment at pos_ in buffer_
};

/**
 * Parse the segments of one block starting at its first record slot,
 * appending each to @p log tagged with @p block_index.
 *
 * @return WalkEnd::TornRecord on a crc mismatch; WalkEnd::CleanTail on
 *         poison or block exhaustion. @p next_out receives the chain
 *         pointer for the caller to follow on CleanTail.
 */
WalkEnd
parseBlock(const pmem::PmemDevice &dev, PmOff block,
           std::size_t block_index, SegmentReader &reader,
           DecodedLog &log, PmOff *next_out, PmOff *stop_out = nullptr,
           std::vector<QuarantinedSegment> *quarantine = nullptr)
{
    const auto bh = dev.loadT<BlockHeader>(block);
    if (next_out)
        *next_out = bh.next;

    PmOff pos = block + sizeof(BlockHeader);
    // A block reached through a never-persisted chain pointer may hold
    // a torn header; treat anything implausible as a torn record.
    if (bh.capacity < sizeof(BlockHeader) + kPoisonBytes ||
        block + bh.capacity > dev.size()) {
        if (next_out)
            *next_out = kPmNull;
        if (stop_out)
            *stop_out = pos;
        return WalkEnd::TornRecord;
    }
    struct StopGuard
    {
        PmOff *out;
        PmOff *pos;
        ~StopGuard()
        {
            if (out)
                *out = *pos;
        }
    } stop_guard{stop_out, &pos};
    const PmOff end = block + bh.capacity;
    while (pos + sizeof(SegHead) <= end) {
        const SegHead head = reader.head(pos);
        if (head.sizeBytes == 0)
            return WalkEnd::CleanTail; // poison: chronological tail here
        if (head.sizeBytes < sizeof(SegHead) || pos + head.sizeBytes > end)
            return WalkEnd::TornRecord;
        const std::uint8_t *body = reader.body(head);
        if (segmentCrcOf(pos, head, body) != head.crc) {
            // Torn tail or corrupted interior record? A crash-torn
            // commit is by construction the chronologically last
            // record, so if the position this header's size points to
            // holds another checksum-valid segment, the failure is
            // media corruption of an old record: quarantine it and
            // keep walking. Anything else is the torn tail, exactly
            // as before.
            const PmOff skip =
                pos + ((head.sizeBytes + 7) & ~std::uint64_t{7});
            bool interior = false;
            if (quarantine != nullptr &&
                skip + sizeof(SegHead) <= end) {
                const SegHead next_head = reader.head(skip);
                if (next_head.sizeBytes >= sizeof(SegHead) &&
                    skip + next_head.sizeBytes <= end &&
                    segmentCrcOf(skip, next_head,
                                 reader.body(next_head)) ==
                        next_head.crc)
                    interior = true;
            }
            if (!interior)
                return WalkEnd::TornRecord;
            quarantine->push_back(
                {pos, head.sizeBytes, block, log.segments.size()});
            pos = skip;
            continue;
        }

        DecodedSegment seg;
        seg.pos = pos;
        seg.timestamp = head.timestamp;
        seg.final = (head.flags & kSegFinal) != 0;
        seg.flags = head.flags;
        seg.txSegments = segCountFromFlags(head.flags);
        seg.sizeBytes = head.sizeBytes;
        seg.blockIndex = block_index;
        seg.entries.begin = log.entries.size();
        // A segment whose entry table turns out malformed leaves
        // nothing in the log.
        auto torn = [&] {
            log.entries.resize(seg.entries.begin);
            return WalkEnd::TornRecord;
        };

        // Entry heads come from the buffer; cursor is body-relative.
        const std::size_t body_bytes = head.sizeBytes - sizeof(SegHead);
        std::size_t cursor = 0;
        for (std::uint32_t i = 0; i < head.numEntries; ++i) {
            if (cursor + sizeof(EntryHead) > body_bytes)
                return torn(); // crc matched garbage?
            EntryHead ehead;
            std::memcpy(&ehead, body + cursor, sizeof(ehead));
            if (ehead.size == 0 || (ehead.flags & ~kEntryZero) != 0)
                return torn();
            const bool zero = (ehead.flags & kEntryZero) != 0;
            // A zero range's size is not bounded by its segment, as a
            // value's is: bound it by the device instead.
            if (zero && (ehead.off > dev.size() ||
                         ehead.size > dev.size() - ehead.off))
                return torn();
            const DecodedEntry entry{
                ehead.off, ehead.size, zero,
                zero ? kPmNull
                     : pos + sizeof(SegHead) + cursor + sizeof(EntryHead)};
            if (cursor + entry.logBytes() > body_bytes)
                return torn();
            log.entries.push_back(entry);
            cursor += entry.logBytes();
        }
        seg.entries.end = log.entries.size();
        log.segments.push_back(seg);
        pos += (head.sizeBytes + 7) & ~std::uint64_t{7};
    }
    return WalkEnd::CleanTail;
}

} // namespace

WalkResult
walkChain(const pmem::PmemDevice &dev, PmOff head_block, DecodedLog &log)
{
    WalkResult result;
    std::unordered_set<PmOff> visited;
    SegmentReader reader(dev);
    PmOff block = head_block;
    while (block != kPmNull) {
        // Validate the block header before adopting the block: a block
        // reached through a chain pointer that persisted before the
        // block's own header did may be arbitrary garbage. The walk
        // ends at the previous block's tail in that case.
        if (block + sizeof(BlockHeader) > dev.size()) {
            result.end = WalkEnd::TornRecord;
            return result;
        }
        const auto bh = dev.loadT<BlockHeader>(block);
        if (bh.capacity < sizeof(BlockHeader) + kPoisonBytes ||
            bh.capacity > dev.size() ||
            block + bh.capacity > dev.size()) {
            result.end = WalkEnd::TornRecord;
            return result;
        }
        // A corrupted chain pointer aimed at an already-visited block
        // would loop forever; offline inspection of damaged images
        // must terminate on arbitrary garbage.
        if (!visited.insert(block).second) {
            result.end = WalkEnd::TornRecord;
            return result;
        }
        result.blocks.push_back(block);
        result.tailBlock = block;
        PmOff next = kPmNull;
        PmOff stop = kPmNull;
        const WalkEnd block_end =
            parseBlock(dev, block, result.blocks.size() - 1, reader, log,
                       &next, &stop, &result.quarantined);
        result.tailPos = stop;
        if (block_end == WalkEnd::TornRecord) {
            result.end = WalkEnd::TornRecord;
            return result;
        }
        block = next;
    }
    result.end = WalkEnd::CleanTail;
    return result;
}

void
walkBlocks(const pmem::PmemDevice &dev, const std::vector<PmOff> &blocks,
           DecodedLog &log)
{
    SegmentReader reader(dev);
    for (std::size_t i = 0; i < blocks.size(); ++i)
        parseBlock(dev, blocks[i], i, reader, log, nullptr);
}

std::size_t
blockCapacity(const pmem::PmemDevice &dev, PmOff block)
{
    return static_cast<std::size_t>(dev.loadT<std::uint64_t>(
        block + offsetof(BlockHeader, capacity)));
}

void
formatBlock(pmem::PmemDevice &dev, PmOff block, std::size_t capacity,
            PmOff prev)
{
    dev.storeT(block, BlockHeader{kPmNull, prev, capacity, 0});
    poisonSlot(dev, block + sizeof(BlockHeader));
    if (prev != kPmNull)
        storeNext(dev, prev, block);
}

PmOff
storeNext(pmem::PmemDevice &dev, PmOff block, PmOff next)
{
    const PmOff link = block + offsetof(BlockHeader, next);
    dev.storeT(link, next);
    return link;
}

PmOff
storePrev(pmem::PmemDevice &dev, PmOff block, PmOff prev)
{
    const PmOff link = block + offsetof(BlockHeader, prev);
    dev.storeT(link, prev);
    return link;
}

std::size_t
writeEntry(pmem::PmemDevice &dev, PmOff pos, PmOff off, const void *value,
           std::size_t size)
{
    const bool zero = value == nullptr;
    dev.storeT(pos, EntryHead{off, static_cast<std::uint32_t>(size),
                              zero ? kEntryZero : 0});
    if (!zero)
        dev.store(pos + sizeof(EntryHead), value, size);
    return entryBytes(size, zero);
}

void
sealSegment(pmem::PmemDevice &dev, PmOff pos, std::size_t size_bytes,
            TxTimestamp ts, std::uint32_t flags, std::uint32_t num_entries)
{
    SegHead head{0, static_cast<std::uint32_t>(size_bytes), ts, flags,
                 num_entries};
    head.crc = segmentCrc(dev, pos, head);
    dev.storeT(pos, head);
}

void
poisonSlot(pmem::PmemDevice &dev, PmOff pos)
{
    dev.storeT<std::uint64_t>(pos, 0);
}

} // namespace specpmt::core
