#include "txn/spht_tx.hh"

#include <algorithm>
#include <cstring>

#include "common/crc32.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace specpmt::txn
{

namespace
{

/** SPHT runtime counters, registered once per process. */
struct SphtMetrics
{
    obs::Counter &begins;
    obs::Counter &commits;
    obs::Counter &replayedSegments;
    obs::Counter &recoveries;

    static SphtMetrics &
    get()
    {
        auto &reg = obs::Registry::global();
        const obs::Labels labels{{"runtime", "spht"}};
        static SphtMetrics m{
            reg.counter("specpmt_txn_begins_total",
                        "transactions started, by runtime", labels),
            reg.counter("specpmt_txn_commits_total",
                        "transactions committed, by runtime", labels),
            reg.counter("specpmt_spht_replayed_segments_total",
                        "log segments applied by the SPHT replayer"),
            reg.counter("specpmt_txn_recoveries_total",
                        "post-crash recoveries, by runtime", labels),
        };
        return m;
    }
};

struct RecHead
{
    std::uint32_t crc;
    std::uint32_t sizeBytes;
    std::uint64_t timestamp;
};

struct EntryHead
{
    std::uint64_t off;
    std::uint32_t size;
    std::uint32_t pad;
};

constexpr std::size_t
paddedPayload(std::size_t size)
{
    return (size + 7) & ~std::size_t{7};
}

std::uint32_t
seedCrc(std::uint64_t generation, unsigned tid, std::uint64_t pos)
{
    std::uint32_t crc = crc32c(&generation, sizeof(generation));
    const std::uint64_t id = (static_cast<std::uint64_t>(tid) << 48) | pos;
    return crc32c(&id, sizeof(id), crc);
}

} // namespace

SphtTx::SphtTx(pmem::PmemPool &pool, unsigned num_threads,
               bool start_replayer)
    : TxRuntime(pool, num_threads)
{
    logs_.reserve(num_threads);
    for (unsigned tid = 0; tid < num_threads; ++tid) {
        logs_.push_back(std::make_unique<ThreadLog>());
        initThreadLog(tid);
    }
    mirror_.assign(dev_.raw(), dev_.raw() + dev_.size());
    if (start_replayer)
        replayer_ = std::thread([this] { replayerMain(); });
}

SphtTx::~SphtTx()
{
    if (replayer_.joinable()) {
        {
            std::lock_guard<std::mutex> guard(queueMutex_);
            stop_ = true;
        }
        queueCv_.notify_all();
        replayer_.join();
    }
}

void
SphtTx::initThreadLog(unsigned tid)
{
    auto &log = *logs_[tid];
    const PmOff root = pool_.getRoot(logHeadSlot(tid));
    if (root != kPmNull) {
        // Re-opening an existing pool (e.g. after a crash): adopt the
        // surviving log area; recover() decides what is in it.
        log.headerOff = root;
        log.recordsOff = root + kCacheLineSize;
        log.generation = dev_.loadT<std::uint64_t>(root);
        return;
    }
    log.headerOff = pool_.allocAligned(kCacheLineSize + kLogCapacity,
                                       kCacheLineSize);
    log.recordsOff = log.headerOff + kCacheLineSize;
    log.generation = 1;
    dev_.storeT<std::uint64_t>(log.headerOff, log.generation);
    dev_.clwb(log.headerOff, pmem::TrafficClass::Log);
    dev_.sfence();
    pool_.setRoot(logHeadSlot(tid), log.headerOff);
}

void
SphtTx::txBegin(ThreadId tid)
{
    auto &log = *logs_.at(tid);
    SPECPMT_ASSERT(!log.inTx);
    log.inTx = true;
    log.staged.clear();
    SphtMetrics::get().begins.add();
}

void
SphtTx::txStore(ThreadId tid, PmOff off, const void *src,
                std::size_t size)
{
    auto &log = *logs_.at(tid);
    SPECPMT_ASSERT(log.inTx);
    SPECPMT_ASSERT(off + size <= mirror_.size());

    // Update the volatile working copy and stage the write intent.
    // The factor over a plain store reflects SPHT's instrumentation:
    // the snapshot write plus redo-buffer staging and bookkeeping.
    std::memcpy(mirror_.data() + off, src, size);
    dev_.compute(3 * timingParams_.storeNs * lineSpan(off, size));

    Entry entry;
    entry.off = off;
    entry.size = static_cast<std::uint32_t>(size);
    entry.value.assign(static_cast<const std::uint8_t *>(src),
                       static_cast<const std::uint8_t *>(src) + size);
    log.staged.push_back(std::move(entry));
}

void
SphtTx::txLoad(ThreadId tid, PmOff off, void *dst, std::size_t size)
{
    (void)tid;
    SPECPMT_ASSERT(off + size <= mirror_.size());
    std::memcpy(dst, mirror_.data() + off, size);
    dev_.compute(2 * timingParams_.loadNs * lineSpan(off, size));
}

void
SphtTx::ensureSpace(ThreadLog &log, std::size_t bytes)
{
    if (log.tailBytes + bytes <= kLogCapacity)
        return;

    // The log is full; it can be recycled once the replayer has
    // persisted everything in it.
    if (!replayer_.joinable())
        drainReplayer();
    {
        std::unique_lock<std::mutex> lock(queueMutex_);
        spaceCv_.wait(lock, [&] {
            return log.appliedBytes.load() >= log.tailBytes;
        });
    }

    // Recycle: a new generation invalidates every stale record byte.
    ++log.generation;
    dev_.storeT<std::uint64_t>(log.headerOff, log.generation);
    dev_.clwb(log.headerOff, pmem::TrafficClass::Log);
    dev_.sfence();
    log.tailBytes = 0;
    log.appliedBytes.store(0);

    if (bytes > kLogCapacity)
        SPECPMT_FATAL("spht: transaction larger than the log area");
}

void
SphtTx::txCommit(ThreadId tid)
{
    auto &log = *logs_.at(tid);
    SPECPMT_ASSERT(log.inTx);
    log.inTx = false;
    if (log.staged.empty())
        return;

    // SPHT serializes commits through its global log: claiming the
    // log position and writing the forward link is a shared,
    // contended path charged here as fixed commit work.
    dev_.compute(400);

    std::size_t record_bytes = sizeof(RecHead);
    for (const auto &entry : log.staged)
        record_bytes += sizeof(EntryHead) + paddedPayload(entry.size);
    ensureSpace(log, record_bytes);

    const PmOff pos = log.recordsOff + log.tailBytes;
    const TxTimestamp ts = nextTimestamp();

    // Serialize entries after the header slot.
    PmOff cursor = pos + sizeof(RecHead);
    std::uint32_t crc = seedCrc(log.generation, tid, log.tailBytes);
    crc = crc32c(&ts, sizeof(ts), crc);
    for (const auto &entry : log.staged) {
        EntryHead head{entry.off, entry.size, 0};
        dev_.storeT(cursor, head);
        dev_.store(cursor + sizeof(EntryHead), entry.value.data(),
                   entry.size);
        crc = crc32c(&head, sizeof(head), crc);
        crc = crc32c(entry.value.data(), entry.size, crc);
        cursor += sizeof(EntryHead) + paddedPayload(entry.size);
    }

    RecHead head;
    head.crc = crc;
    head.sizeBytes = static_cast<std::uint32_t>(record_bytes);
    head.timestamp = ts;
    dev_.storeT(pos, head);

    // Poison the next header position so recovery cannot misparse
    // stale bytes as a fresh record.
    if (log.tailBytes + record_bytes + sizeof(std::uint32_t) <=
        kLogCapacity) {
        dev_.storeT<std::uint32_t>(pos + record_bytes, 0);
    }

    // SPHT forward-linked commit: one flush batch, one fence.
    {
        SPECPMT_TRACE_SPAN("flush_batch", "flush");
        dev_.clwbRange(pos, record_bytes + sizeof(std::uint32_t),
                       pmem::TrafficClass::Log);
        dev_.sfence();
    }
    SphtMetrics::get().commits.add();

    log.tailBytes += record_bytes;

    Segment segment;
    segment.tid = tid;
    segment.endBytes = log.tailBytes;
    segment.entries = std::move(log.staged);
    log.staged.clear();

    if (replayer_.joinable()) {
        {
            std::lock_guard<std::mutex> guard(queueMutex_);
            queue_.push_back(std::move(segment));
        }
        queueCv_.notify_one();
    } else {
        std::lock_guard<std::mutex> guard(queueMutex_);
        queue_.push_back(std::move(segment));
    }
}

void
SphtTx::applySegment(const Segment &segment)
{
    for (const auto &entry : segment.entries) {
        dev_.store(entry.off, entry.value.data(), entry.size);
        dev_.clwbRange(entry.off, entry.size, pmem::TrafficClass::Data);
    }
    dev_.sfence();
    logs_[segment.tid]->appliedBytes.store(segment.endBytes);
    SphtMetrics::get().replayedSegments.add();
}

void
SphtTx::replayerMain()
{
    for (;;) {
        Segment segment;
        {
            std::unique_lock<std::mutex> lock(queueMutex_);
            queueCv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
            if (queue_.empty()) {
                if (stop_)
                    return;
                continue;
            }
            segment = std::move(queue_.front());
            queue_.pop_front();
        }
        applySegment(segment);
        spaceCv_.notify_all();
    }
}

void
SphtTx::drainReplayer()
{
    for (;;) {
        Segment segment;
        {
            std::lock_guard<std::mutex> guard(queueMutex_);
            if (queue_.empty())
                return;
            segment = std::move(queue_.front());
            queue_.pop_front();
        }
        applySegment(segment);
        spaceCv_.notify_all();
    }
}

void
SphtTx::shutdown()
{
    if (replayer_.joinable()) {
        // Wait for the queue to drain, then stop the thread.
        for (;;) {
            {
                std::lock_guard<std::mutex> guard(queueMutex_);
                if (queue_.empty())
                    break;
            }
            std::this_thread::yield();
        }
        {
            std::lock_guard<std::mutex> guard(queueMutex_);
            stop_ = true;
        }
        queueCv_.notify_all();
        replayer_.join();
    } else {
        drainReplayer();
    }
    dev_.drainAll();
}

void
SphtTx::recover()
{
    SPECPMT_TRACE_SPAN("spht_recover", "recovery");
    SphtMetrics::get().recoveries.add();
    struct PendingRecord
    {
        TxTimestamp ts;
        unsigned tid;
        std::vector<Entry> entries;
    };
    std::vector<PendingRecord> records;

    for (unsigned tid = 0; tid < numThreads_; ++tid) {
        auto &log = *logs_[tid];
        log.headerOff = pool_.getRoot(logHeadSlot(tid));
        if (log.headerOff == kPmNull)
            continue;
        log.recordsOff = log.headerOff + kCacheLineSize;
        log.generation = dev_.loadT<std::uint64_t>(log.headerOff);

        std::uint64_t cursor = 0;
        while (cursor + sizeof(RecHead) <= kLogCapacity) {
            const PmOff pos = log.recordsOff + cursor;
            const auto head = dev_.loadT<RecHead>(pos);
            if (head.sizeBytes < sizeof(RecHead) ||
                cursor + head.sizeBytes > kLogCapacity) {
                break;
            }
            // Re-parse the entries and validate the checksum.
            std::uint32_t crc = seedCrc(log.generation, tid, cursor);
            crc = crc32c(&head.timestamp, sizeof(head.timestamp), crc);
            std::vector<Entry> entries;
            PmOff entry_pos = pos + sizeof(RecHead);
            const PmOff end = pos + head.sizeBytes;
            bool ok = true;
            while (entry_pos + sizeof(EntryHead) <= end) {
                const auto ehead = dev_.loadT<EntryHead>(entry_pos);
                if (ehead.size == 0 ||
                    entry_pos + sizeof(EntryHead) +
                            paddedPayload(ehead.size) > end) {
                    ok = false;
                    break;
                }
                Entry entry;
                entry.off = ehead.off;
                entry.size = ehead.size;
                entry.value.resize(ehead.size);
                dev_.load(entry_pos + sizeof(EntryHead),
                          entry.value.data(), ehead.size);
                crc = crc32c(&ehead, sizeof(ehead), crc);
                crc = crc32c(entry.value.data(), ehead.size, crc);
                entries.push_back(std::move(entry));
                entry_pos += sizeof(EntryHead) + paddedPayload(ehead.size);
            }
            if (!ok || crc != head.crc)
                break; // torn or stale tail: no fresh records beyond
            seedTimestamp(head.timestamp);
            records.push_back({head.timestamp, tid, std::move(entries)});
            cursor += head.sizeBytes;
        }
        log.tailBytes = 0;
        log.appliedBytes.store(0);
        log.inTx = false;
        log.staged.clear();
    }

    // Apply and *persist* every committed record before retiring the
    // logs: bumping the generation first would invalidate the only
    // durable copy of unreplayed committed data, so a crash between
    // the two steps would lose transactions.
    std::sort(records.begin(), records.end(),
              [](const PendingRecord &a, const PendingRecord &b) {
                  return a.ts < b.ts;
              });
    for (const auto &record : records) {
        for (const auto &entry : record.entries) {
            dev_.store(entry.off, entry.value.data(), entry.size);
            dev_.clwbRange(entry.off, entry.size,
                           pmem::TrafficClass::Data);
        }
    }
    dev_.sfence();

    // Now retire the surviving logs under fresh generations.
    for (unsigned tid = 0; tid < numThreads_; ++tid) {
        auto &log = *logs_[tid];
        if (log.headerOff == kPmNull)
            continue;
        ++log.generation;
        dev_.storeT<std::uint64_t>(log.headerOff, log.generation);
        dev_.clwb(log.headerOff, pmem::TrafficClass::Log);
    }
    dev_.sfence();

    mirror_.assign(dev_.raw(), dev_.raw() + dev_.size());
}

} // namespace specpmt::txn
