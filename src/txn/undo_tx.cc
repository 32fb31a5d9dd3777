#include "txn/undo_tx.hh"

#include <cstring>

#include "common/crc32.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace specpmt::txn
{

namespace
{

/** Per-runtime tx lifecycle counters, labeled by runtime name. */
struct RuntimeMetrics
{
    obs::Counter &begins;
    obs::Counter &commits;
    obs::Counter &aborts;
    obs::Counter &recoveries;

    static RuntimeMetrics
    make(const char *runtime)
    {
        auto &reg = obs::Registry::global();
        const obs::Labels labels{{"runtime", runtime}};
        return RuntimeMetrics{
            reg.counter("specpmt_txn_begins_total",
                        "transactions started, by runtime", labels),
            reg.counter("specpmt_txn_commits_total",
                        "transactions committed, by runtime", labels),
            reg.counter("specpmt_txn_aborts_total",
                        "transactions aborted, by runtime", labels),
            reg.counter("specpmt_txn_recoveries_total",
                        "post-crash recoveries, by runtime", labels),
        };
    }
};

RuntimeMetrics &
undoMetrics()
{
    static RuntimeMetrics m = RuntimeMetrics::make("pmdk-undo");
    return m;
}

RuntimeMetrics &
kaminoMetrics()
{
    static RuntimeMetrics m = RuntimeMetrics::make("kamino");
    return m;
}

/** On-log record header preceding the old-value payload. */
struct RecordHead
{
    std::uint32_t crc;
    std::uint32_t pad;
    std::uint64_t off;
    std::uint64_t size;
};

constexpr std::size_t
paddedPayload(std::size_t size)
{
    return (size + 7) & ~std::size_t{7};
}

std::uint32_t
recordCrc(std::uint64_t tx_seq, std::uint64_t off, std::uint64_t size,
          const std::uint8_t *payload)
{
    std::uint32_t crc = crc32c(&tx_seq, sizeof(tx_seq));
    crc = crc32c(&off, sizeof(off), crc);
    crc = crc32c(&size, sizeof(size), crc);
    return crc32c(payload, size, crc);
}

} // namespace

PmdkUndoTx::PmdkUndoTx(pmem::PmemPool &pool, unsigned num_threads)
    : TxRuntime(pool, num_threads), logs_(num_threads)
{
    for (unsigned tid = 0; tid < num_threads; ++tid) {
        auto &log = logs_[tid];
        const PmOff root = pool_.getRoot(logHeadSlot(tid));
        if (root != kPmNull) {
            // Re-opening a surviving pool: adopt the old log area so
            // recover() can read it.
            log.headerOff = root;
            log.recordsOff = root + kCacheLineSize;
            log.txSeq = dev_.loadT<Header>(root).txSeq;
            continue;
        }
        log.headerOff = pool_.allocAligned(
            kCacheLineSize + kLogCapacity, kCacheLineSize);
        log.recordsOff = log.headerOff + kCacheLineSize;

        Header header{0, 0, 0, 0};
        dev_.storeT(log.headerOff, header);
        dev_.clwb(log.headerOff, pmem::TrafficClass::Log);
        dev_.sfence();
        pool_.setRoot(logHeadSlot(tid), log.headerOff);
    }
}

void
PmdkUndoTx::txBegin(ThreadId tid)
{
    auto &log = logs_.at(tid);
    SPECPMT_ASSERT(!log.inTx);
    log.inTx = true;
    log.numBytes = 0;
    ++log.txSeq;
    log.writeSet.clear();
    log.loggedSet.clear();

    Header header{log.txSeq, 1, 0, 0};
    dev_.storeT(log.headerOff, header);
    dev_.clwb(log.headerOff, pmem::TrafficClass::Log);
    dev_.sfence();
    undoMetrics().begins.add();
}

void
PmdkUndoTx::appendRecord(ThreadLog &log, PmOff off, std::size_t size)
{
    // libpmemobj's tx_add_range maintains a range tree and allocator
    // metadata per snapshotted range; that software path is a large,
    // well-documented part of PMDK's overhead on top of the barriers.
    dev_.compute(250);

    const std::size_t record_bytes =
        sizeof(RecordHead) + paddedPayload(size);
    if (log.numBytes + record_bytes > kLogCapacity) {
        SPECPMT_FATAL("undo log overflow: tx writes more than %zu bytes",
                      kLogCapacity);
    }

    // Read the pre-update value straight from the device image.
    std::vector<std::uint8_t> old_value(size);
    dev_.load(off, old_value.data(), size);

    RecordHead head;
    head.off = off;
    head.size = size;
    head.pad = 0;
    head.crc = recordCrc(log.txSeq, off, size, old_value.data());

    const PmOff pos = log.recordsOff + log.numBytes;
    dev_.storeT(pos, head);
    dev_.store(pos + sizeof(RecordHead), old_value.data(), size);
    log.numBytes += record_bytes;

    // libpmemobj's tx_add_range persists the snapshot payload and
    // then publishes it through the ulog metadata in a second barrier;
    // this double barrier per first-touch range is a large part of
    // PMDK's measured gap to leaner designs like Kamino-Tx.
    dev_.clwbRange(pos, record_bytes, pmem::TrafficClass::Log);
    dev_.sfence();
    Header header{log.txSeq, 1, log.numBytes, 0};
    dev_.storeT(log.headerOff, header);
    dev_.clwb(log.headerOff, pmem::TrafficClass::Log);
    dev_.sfence();
}

void
PmdkUndoTx::txStore(ThreadId tid, PmOff off, const void *src,
                    std::size_t size)
{
    auto &log = logs_.at(tid);
    SPECPMT_ASSERT(log.inTx);

    // Undo-log only the first update of each byte range (write-set
    // indexing); the persist barrier orders the record before the
    // in-place update below.
    for (const auto &[gap_off, gap_size] : log.loggedSet.uncovered(off,
                                                                   size)) {
        appendRecord(log, gap_off, gap_size);
        log.loggedSet.add(gap_off, gap_size);
    }

    dev_.store(off, src, size);
    log.writeSet.add(off, size);
}

void
PmdkUndoTx::txCommit(ThreadId tid)
{
    auto &log = logs_.at(tid);
    SPECPMT_ASSERT(log.inTx);

    // Persist the data write set, then retire the log.
    SPECPMT_TRACE_SPAN("undo_commit", "flush");
    log.writeSet.forEachLine([&](std::uint64_t line) {
        dev_.clwb(line * kCacheLineSize, pmem::TrafficClass::Data);
    });
    dev_.sfence();

    // libpmemobj additionally processes a metadata redo log at commit
    // (allocator state, lane metadata) under its own persist barrier.
    dev_.storeT<std::uint64_t>(log.headerOff + 24, log.txSeq);
    dev_.clwb(log.headerOff + 24, pmem::TrafficClass::Meta);
    dev_.sfence();

    Header header{log.txSeq, 0, 0, 0};
    dev_.storeT(log.headerOff, header);
    dev_.clwb(log.headerOff, pmem::TrafficClass::Log);
    dev_.sfence();

    log.inTx = false;
    log.numBytes = 0;
    log.writeSet.clear();
    log.loggedSet.clear();
    undoMetrics().commits.add();
}

void
PmdkUndoTx::txAbort(ThreadId tid)
{
    auto &log = logs_.at(tid);
    SPECPMT_ASSERT(log.inTx);
    rollbackThread(tid);
    log.inTx = false;
    log.numBytes = 0;
    log.writeSet.clear();
    log.loggedSet.clear();
    undoMetrics().aborts.add();
}

void
PmdkUndoTx::rollbackThread(unsigned tid)
{
    auto &log = logs_[tid];
    const Header header = dev_.loadT<Header>(log.headerOff);
    if (!header.active)
        return;

    // Parse forward (records are variable length), validate, then
    // apply in reverse order.
    struct Parsed
    {
        PmOff dataOff;
        PmOff payloadPos;
        std::uint64_t size;
    };
    std::vector<Parsed> records;
    std::uint64_t cursor = 0;
    while (cursor + sizeof(RecordHead) <= header.numBytes) {
        const PmOff pos = log.recordsOff + cursor;
        const auto head = dev_.loadT<RecordHead>(pos);
        if (head.size == 0 ||
            cursor + sizeof(RecordHead) + paddedPayload(head.size) >
                header.numBytes) {
            break;
        }
        std::vector<std::uint8_t> payload(head.size);
        dev_.load(pos + sizeof(RecordHead), payload.data(), head.size);
        if (recordCrc(header.txSeq, head.off, head.size,
                      payload.data()) != head.crc) {
            break; // torn record: it never guarded a data update
        }
        records.push_back({head.off, pos + sizeof(RecordHead),
                           head.size});
        cursor += sizeof(RecordHead) + paddedPayload(head.size);
    }

    for (auto it = records.rbegin(); it != records.rend(); ++it) {
        std::vector<std::uint8_t> payload(it->size);
        dev_.load(it->payloadPos, payload.data(), it->size);
        dev_.store(it->dataOff, payload.data(), it->size);
        dev_.clwbRange(it->dataOff, it->size, pmem::TrafficClass::Data);
    }
    dev_.sfence();

    Header cleared{header.txSeq, 0, 0, 0};
    dev_.storeT(log.headerOff, cleared);
    dev_.clwb(log.headerOff, pmem::TrafficClass::Log);
    dev_.sfence();
    log.numBytes = 0;
}

void
PmdkUndoTx::recover()
{
    SPECPMT_TRACE_SPAN("undo_recover", "recovery");
    undoMetrics().recoveries.add();
    for (unsigned tid = 0; tid < numThreads_; ++tid) {
        auto &log = logs_[tid];
        log.headerOff = pool_.getRoot(logHeadSlot(tid));
        if (log.headerOff == kPmNull)
            continue;
        log.recordsOff = log.headerOff + kCacheLineSize;
        log.txSeq = dev_.loadT<Header>(log.headerOff).txSeq;
        log.inTx = false;
        rollbackThread(tid);
    }
    dev_.sfence();
}

// ---------------------------------------------------------------------
// Kamino-Tx (upper bound)
// ---------------------------------------------------------------------

KaminoTx::KaminoTx(pmem::PmemPool &pool, unsigned num_threads)
    : TxRuntime(pool, num_threads), logs_(num_threads)
{
    for (unsigned tid = 0; tid < num_threads; ++tid) {
        auto &log = logs_[tid];
        const PmOff root = pool_.getRoot(logHeadSlot(tid));
        if (root != kPmNull) {
            log.headerOff = root;
            log.recordsOff = root + kCacheLineSize;
            continue;
        }
        log.headerOff = pool_.allocAligned(
            kCacheLineSize + kLogCapacity, kCacheLineSize);
        log.recordsOff = log.headerOff + kCacheLineSize;
        pool_.setRoot(logHeadSlot(tid), log.headerOff);
    }
}

void
KaminoTx::txBegin(ThreadId tid)
{
    auto &log = logs_.at(tid);
    SPECPMT_ASSERT(!log.inTx);
    log.inTx = true;
    log.numBytes = 0;
    log.writeSet.clear();
    log.loggedSet.clear();

    dev_.storeT<std::uint64_t>(log.headerOff, 0);
    dev_.clwb(log.headerOff, pmem::TrafficClass::Log);
    dev_.sfence();
    kaminoMetrics().begins.add();
}

void
KaminoTx::txStore(ThreadId tid, PmOff off, const void *src,
                  std::size_t size)
{
    auto &log = logs_.at(tid);
    SPECPMT_ASSERT(log.inTx);

    // Log (address, size) of each first-touch write intent and persist
    // it before updating the main copy in place — Kamino-Tx needs the
    // address list to know which backup locations to restore from.
    for (const auto &[gap_off, gap_size] : log.loggedSet.uncovered(off,
                                                                   size)) {
        const PmOff pos = log.recordsOff + log.numBytes;
        if (log.numBytes + 16 > kLogCapacity)
            SPECPMT_FATAL("kamino address log overflow");
        dev_.storeT<std::uint64_t>(pos, gap_off);
        dev_.storeT<std::uint64_t>(pos + 8,
                                   static_cast<std::uint64_t>(gap_size));
        log.numBytes += 16;
        dev_.clwbRange(pos, 16, pmem::TrafficClass::Log);
        dev_.storeT<std::uint64_t>(log.headerOff, log.numBytes);
        dev_.clwb(log.headerOff, pmem::TrafficClass::Log);
        dev_.sfence();
        log.loggedSet.add(gap_off, gap_size);
    }

    dev_.store(off, src, size);
    log.writeSet.add(off, size);
}

void
KaminoTx::txCommit(ThreadId tid)
{
    auto &log = logs_.at(tid);
    SPECPMT_ASSERT(log.inTx);

    log.writeSet.forEachLine([&](std::uint64_t line) {
        dev_.clwb(line * kCacheLineSize, pmem::TrafficClass::Data);
    });
    dev_.sfence();

    dev_.storeT<std::uint64_t>(log.headerOff, 0);
    dev_.clwb(log.headerOff, pmem::TrafficClass::Log);
    dev_.sfence();

    log.inTx = false;
    log.writeSet.clear();
    log.loggedSet.clear();
    kaminoMetrics().commits.add();
}

void
KaminoTx::recover()
{
    SPECPMT_WARN("KaminoTx runs in its upper-bound configuration "
                 "(no backup copy, per the paper's methodology); "
                 "crash recovery is not available");
}

} // namespace specpmt::txn
