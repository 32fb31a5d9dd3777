/**
 * @file
 * Persistent flight recorder: a small, bounded, crash-consistent ring
 * journal of the rare events a post-mortem needs, allocated inside the
 * pmem pool so it survives the crash it is meant to explain.
 *
 * Every record is one sealed cache line, borrowing the speculative
 * log's trick (splog_format): a CRC32C seeded by the record's
 * location doubles as the validity flag, so a torn ring-slot
 * overwrite is self-identifying and an offline reader never needs a
 * separate index. Appends store the line and clwb it with *no* fence
 * — the record becomes durable with the pool's next fence (the next
 * commit or recovery fence). A record appended after the final
 * pre-crash fence may be lost or torn; both read back as an invalid
 * seal and are reported as such, never as a wrong event.
 *
 * kv::KvService is the only writer. It creates one page-sized ring in
 * every fresh shard pool before it builds the runtime, so the pool's
 * later allocations keep their XPLine and channel phase, and appends
 * recovery phases, media faults and entries into read-only mode. No
 * transaction runtime appends: commits, tears and quarantined
 * segments are in the logs themselves. A pool that was not created
 * with a ring has none; attach() then returns a disabled handle.
 *
 * Event semantics (what arg0/arg1 carry) are documented per EventType
 * member; KvService leaves the timestamp field 0.
 */

#ifndef SPECPMT_FORENSIC_FLIGHT_RECORDER_HH
#define SPECPMT_FORENSIC_FLIGHT_RECORDER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "pmem/pmem_device.hh"
#include "pmem/pmem_pool.hh"

namespace specpmt::forensic
{

/** Root directory slot publishing the ring (last slot, clear of the
 * per-thread log heads at 1+tid, the hybrid sequence cells at 20+tid
 * and the application roots from 40 up). */
constexpr unsigned kFlightRecorderRootSlot =
    pmem::PmemPool::kRootSlots - 1;

/** Ring header magic ("SPMTFLT1", little-endian). */
constexpr std::uint64_t kFlightMagic = 0x31544C46544D5053ull;

/** Record slots of a KvService ring: with the header, one page. */
constexpr std::uint32_t kFlightRingSlots = 63;

/** Journaled events; the values are the on-media type codes. */
enum class EventType : std::uint16_t
{
    None = 0,
    /** A shard's recovery is about to run: arg0 = 0. */
    RecoveryBegin = 6,
    /** The shard's recovery finished: arg0 = log segments it
     * quarantined as media-corrupt. */
    RecoveryEnd = 7,
    /** A device MediaError aborted a transaction or failed a get:
     * arg0 = the faulting media offset, arg1 = MediaErrorKind. */
    MediaFault = 9,
    /** The pool entered read-only degraded mode (log-space
     * exhaustion, or forced): arg0 = bytes the failing allocation
     * needed (0 when unknown or forced). */
    DegradedEnter = 11,
};

/** Printable name of @p type ("recovery_end", ...). */
const char *eventTypeName(EventType type);

/** On-media ring header (one cache line). */
struct FlightHeader
{
    std::uint64_t magic;
    std::uint32_t capacity; ///< record slots in the ring
    std::uint32_t pad0;
    std::uint64_t pad[6];
};
static_assert(sizeof(FlightHeader) == 64);

/** On-media record (one cache line; crc seeded by its location). */
struct FlightRecord
{
    std::uint32_t crc;   ///< covers type..arg1, seeded by position
    EventType type;
    std::uint16_t tid;
    std::uint64_t seq;   ///< global append sequence, 1-based
    std::uint64_t timestamp;
    std::uint64_t arg0;
    std::uint64_t arg1;
    std::uint64_t pad[3];
};
static_assert(sizeof(FlightRecord) == 64);

/** A ring record decoded offline (valid seal, in-bounds fields). */
struct DecodedFlightRecord
{
    std::uint64_t seq = 0;
    EventType type = EventType::None;
    unsigned tid = 0;
    std::uint64_t timestamp = 0;
    std::uint64_t arg0 = 0;
    std::uint64_t arg1 = 0;
    unsigned slot = 0; ///< ring slot the record was read from
};

/** Offline view of a ring found in an image. */
struct DecodedFlightRing
{
    /** False when the root slot is null (recorder never enabled). */
    bool present = false;
    /** Non-empty when the root points at garbage (corrupt header). */
    std::string error;
    PmOff base = kPmNull;
    std::uint32_t capacity = 0;
    /** Valid records, sorted by seq (ascending = chronological). */
    std::vector<DecodedFlightRecord> records;
    /** Slots whose seal did not validate (torn or never written). */
    unsigned invalidSlots = 0;
};

/**
 * The writer's handle; see file comment. Default-constructed handles
 * are disabled and every record() is a no-op branch.
 */
class FlightRecorder
{
  public:
    FlightRecorder() = default;

    /**
     * Allocate and persist an empty ring of @p capacity records in
     * @p pool and publish it in the root directory. Call once per
     * fresh pool, before constructing any runtime: a re-opened pool's
     * bump pointer does not know where its live data ends. Idempotent
     * re-creation is not supported: the slot must be unset.
     */
    static void create(pmem::PmemPool &pool,
                       std::uint32_t capacity = kFlightRingSlots);

    /**
     * Attach to the ring published in @p pool's root directory.
     * Returns a disabled handle when the root is null or the header
     * does not validate. Re-adopts the ring's allocation (idempotent)
     * and re-establishes the append sequence by scanning the ring for
     * the newest valid seal, so recording continues monotonically
     * across crashes. A poisoned ring line reads as its bytes (an
     * invalid seal at worst), never as a MediaError.
     */
    static FlightRecorder attach(pmem::PmemPool &pool);

    bool enabled() const { return dev_ != nullptr; }

    /**
     * Append one record (no-op when disabled). The stored line is
     * flushed (TrafficClass::Meta) but not fenced — it rides the
     * pool's next fence. Thread-safe, and never raises a MediaError:
     * a faulty ring line must not fail the operation being journaled.
     */
    void record(EventType type, ThreadId tid, std::uint64_t timestamp = 0,
                std::uint64_t arg0 = 0, std::uint64_t arg1 = 0);

    /** Sequence number of the newest appended record (0 = none). */
    std::uint64_t sequence() const;

    /**
     * Decode the ring referenced by @p pool_root (the value of the
     * flight-recorder root slot) from @p dev without mutating
     * anything — the offline reader pminspect builds on. Tolerates
     * arbitrary garbage.
     */
    static DecodedFlightRing decode(const pmem::PmemDevice &dev,
                                    PmOff pool_root);

  private:
    static std::uint32_t recordCrc(PmOff pos, const FlightRecord &rec);

    pmem::PmemDevice *dev_ = nullptr;
    PmOff base_ = kPmNull;     ///< ring area (header at base_)
    std::uint32_t capacity_ = 0;
    std::shared_ptr<std::atomic<std::uint64_t>> seq_;
};

} // namespace specpmt::forensic

#endif // SPECPMT_FORENSIC_FLIGHT_RECORDER_HH
