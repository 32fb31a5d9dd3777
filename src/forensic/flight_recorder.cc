#include "forensic/flight_recorder.hh"

#include <algorithm>
#include <cstring>

#include "common/crc32.hh"
#include "common/logging.hh"

namespace specpmt::forensic
{

namespace
{

/** Ring sizes beyond this are treated as header corruption. */
constexpr std::uint32_t kMaxCapacity = 1u << 20;

constexpr PmOff
slotPos(PmOff base, std::uint32_t slot)
{
    return base + sizeof(FlightHeader) +
           static_cast<PmOff>(slot) * sizeof(FlightRecord);
}

constexpr std::size_t
ringBytes(std::uint32_t capacity)
{
    return sizeof(FlightHeader) +
           static_cast<std::size_t>(capacity) * sizeof(FlightRecord);
}

// A whole page moves every later allocation by a multiple of the
// 1 KiB channel interleave, so the ring changes no modelled cost.
static_assert(ringBytes(kFlightRingSlots) == kPageSize);

} // namespace

const char *
eventTypeName(EventType type)
{
    switch (type) {
      case EventType::RecoveryBegin:
        return "recovery_begin";
      case EventType::RecoveryEnd:
        return "recovery_end";
      case EventType::MediaFault:
        return "media_fault";
      case EventType::DegradedEnter:
        return "degraded_enter";
      case EventType::None:
        break;
    }
    return "unknown";
}

std::uint32_t
FlightRecorder::recordCrc(PmOff pos, const FlightRecord &rec)
{
    std::uint32_t crc = crc32c(&pos, sizeof(pos));
    crc = crc32c(&rec.type, sizeof(rec.type), crc);
    crc = crc32c(&rec.tid, sizeof(rec.tid), crc);
    crc = crc32c(&rec.seq, sizeof(rec.seq), crc);
    crc = crc32c(&rec.timestamp, sizeof(rec.timestamp), crc);
    crc = crc32c(&rec.arg0, sizeof(rec.arg0), crc);
    return crc32c(&rec.arg1, sizeof(rec.arg1), crc);
}

void
FlightRecorder::create(pmem::PmemPool &pool, std::uint32_t capacity)
{
    SPECPMT_ASSERT(capacity > 0 && capacity <= kMaxCapacity);
    SPECPMT_ASSERT(pool.getRoot(kFlightRecorderRootSlot) == kPmNull);
    auto &dev = pool.device();

    const PmOff base =
        pool.allocAligned(ringBytes(capacity), kCacheLineSize);
    FlightHeader header{};
    header.magic = kFlightMagic;
    header.capacity = capacity;
    dev.storeT(base, header);
    FlightRecord empty{};
    for (std::uint32_t slot = 0; slot < capacity; ++slot)
        dev.storeT(slotPos(base, slot), empty);
    dev.clwbRange(base, ringBytes(capacity), pmem::TrafficClass::Meta);
    dev.sfence();
    // setRoot persists eagerly (clwb + sfence of its own).
    pool.setRoot(kFlightRecorderRootSlot, base);
}

FlightRecorder
FlightRecorder::attach(pmem::PmemPool &pool)
{
    FlightRecorder fr;
    const PmOff base = pool.getRoot(kFlightRecorderRootSlot);
    if (base == kPmNull)
        return fr;
    auto &dev = pool.device();
    if (base + sizeof(FlightHeader) > dev.size())
        return fr;
    pmem::MediaFaultSuppress suppress_media_faults;
    const auto header = dev.loadT<FlightHeader>(base);
    if (header.magic != kFlightMagic || header.capacity == 0 ||
        header.capacity > kMaxCapacity ||
        base + ringBytes(header.capacity) > dev.size()) {
        return fr;
    }
    pool.adopt(base, ringBytes(header.capacity));

    // Re-establish the append sequence from the newest valid seal so
    // post-crash records keep sorting after the surviving ones.
    std::uint64_t max_seq = 0;
    for (std::uint32_t slot = 0; slot < header.capacity; ++slot) {
        const PmOff pos = slotPos(base, slot);
        const auto rec = dev.loadT<FlightRecord>(pos);
        if (rec.seq != 0 && recordCrc(pos, rec) == rec.crc)
            max_seq = std::max(max_seq, rec.seq);
    }

    fr.dev_ = &dev;
    fr.base_ = base;
    fr.capacity_ = header.capacity;
    fr.seq_ = std::make_shared<std::atomic<std::uint64_t>>(max_seq);
    return fr;
}

void
FlightRecorder::record(EventType type, ThreadId tid,
                       std::uint64_t timestamp, std::uint64_t arg0,
                       std::uint64_t arg1)
{
    if (!enabled())
        return;
    pmem::MediaFaultSuppress suppress_media_faults;
    const std::uint64_t seq =
        seq_->fetch_add(1, std::memory_order_relaxed) + 1;
    const PmOff pos =
        slotPos(base_, static_cast<std::uint32_t>((seq - 1) % capacity_));
    FlightRecord rec{};
    rec.type = type;
    rec.tid = static_cast<std::uint16_t>(tid);
    rec.seq = seq;
    rec.timestamp = timestamp;
    rec.arg0 = arg0;
    rec.arg1 = arg1;
    rec.crc = recordCrc(pos, rec);
    dev_->storeT(pos, rec);
    // Flush only: the line rides the pool's next fence.
    dev_->clwb(pos, pmem::TrafficClass::Meta);
}

std::uint64_t
FlightRecorder::sequence() const
{
    return seq_ ? seq_->load(std::memory_order_relaxed) : 0;
}

DecodedFlightRing
FlightRecorder::decode(const pmem::PmemDevice &dev, PmOff pool_root)
{
    DecodedFlightRing ring;
    if (pool_root == kPmNull)
        return ring;
    ring.present = true;
    ring.base = pool_root;
    if (pool_root + sizeof(FlightHeader) > dev.size()) {
        ring.error = "ring header out of device bounds";
        return ring;
    }
    const auto header = dev.loadT<FlightHeader>(pool_root);
    if (header.magic != kFlightMagic) {
        ring.error = "bad ring magic";
        return ring;
    }
    if (header.capacity == 0 || header.capacity > kMaxCapacity ||
        pool_root + ringBytes(header.capacity) > dev.size()) {
        ring.error = "implausible ring capacity " +
                     std::to_string(header.capacity);
        return ring;
    }
    ring.capacity = header.capacity;
    for (std::uint32_t slot = 0; slot < header.capacity; ++slot) {
        const PmOff pos = slotPos(pool_root, slot);
        const auto rec = dev.loadT<FlightRecord>(pos);
        if (rec.seq == 0 && rec.crc == 0 &&
            rec.type == EventType::None) {
            continue; // never written
        }
        if (rec.seq == 0 || recordCrc(pos, rec) != rec.crc) {
            ++ring.invalidSlots; // torn append (or bit rot)
            continue;
        }
        DecodedFlightRecord out;
        out.seq = rec.seq;
        out.type = rec.type;
        out.tid = rec.tid;
        out.timestamp = rec.timestamp;
        out.arg0 = rec.arg0;
        out.arg1 = rec.arg1;
        out.slot = slot;
        ring.records.push_back(out);
    }
    std::sort(ring.records.begin(), ring.records.end(),
              [](const DecodedFlightRecord &a,
                 const DecodedFlightRecord &b) { return a.seq < b.seq; });
    return ring;
}

} // namespace specpmt::forensic
