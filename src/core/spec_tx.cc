#include "core/spec_tx.hh"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <string>

#include "common/hash.hh"
#include "common/logging.hh"
#include "core/splog_walk.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "obs/trace_context.hh"

namespace specpmt::core
{

namespace
{

/** Dedup key for a logged (address, size) pair. */
std::uint64_t
entryKey(PmOff off, std::size_t size)
{
    SPECPMT_ASSERT(off < (1ull << 32));
    SPECPMT_ASSERT(size < (1ull << 32));
    return (off << 32) | static_cast<std::uint64_t>(size);
}

/** Skip compaction when it would save less than this fraction. */
constexpr double kCompactionMinSavings = 0.10;

/**
 * A cycle starts only once the live log has grown to this multiple of
 * what the previous cycle left: a log whose records are mostly fresh
 * cannot be compacted, and re-walking it every poll would only burn
 * the reclaimer's core.
 */
constexpr std::size_t kReclaimGrowthFactor = 2;

/** SpecSPMT runtime counters, registered once per process. */
struct SpecTxMetrics
{
    obs::Counter &begins;
    obs::Counter &commits;
    obs::Counter &readonlyCommits;
    obs::Counter &aborts;
    obs::Counter &dedupHits;
    obs::Counter &segmentsSealed;
    obs::Counter &logBytesWritten;
    obs::Counter &reclaimCycles;
    obs::Counter &reclaimBytesFreed;
    obs::Counter &reclaimBlocksWalked;
    obs::Counter &reclaimFailures;
    obs::Histogram &reclaimCycleNs;
    obs::Counter &recoveries;
    obs::Counter &recoveryReplayedTxs;
    obs::Gauge &logBytesInUse;
    obs::Counter &epochSeals;
    obs::Counter &epochRelaxedCommits;
    obs::Counter &epochTxsSealed;
    obs::Counter &epochDroppedTxs;
    obs::Gauge &epochPendingTxs;
    obs::Gauge &epochLastSealed;
    obs::Histogram &epochTxsPerSeal;
    obs::Counter &quarantinedSegments;

    static SpecTxMetrics &
    get()
    {
        auto &reg = obs::Registry::global();
        static SpecTxMetrics m{
            reg.counter("specpmt_spec_tx_begins_total",
                        "SpecSPMT transactions started"),
            reg.counter("specpmt_spec_tx_commits_total",
                        "SpecSPMT transactions committed (update txs)"),
            reg.counter("specpmt_spec_tx_readonly_commits_total",
                        "SpecSPMT read-only commits (no fence needed)"),
            reg.counter("specpmt_spec_tx_aborts_total",
                        "SpecSPMT transactions aborted"),
            reg.counter("specpmt_spec_tx_dedup_hits_total",
                        "txStores absorbed by an existing log entry"),
            reg.counter("specpmt_spec_tx_segments_sealed_total",
                        "log segments sealed at commit"),
            reg.counter("specpmt_spec_tx_log_bytes_written_total",
                        "bytes appended to speculative logs"),
            reg.counter("specpmt_reclaim_cycles_total",
                        "log reclamation cycles completed"),
            reg.counter("specpmt_reclaim_bytes_freed_total",
                        "log bytes freed by reclamation"),
            reg.counter("specpmt_reclaim_blocks_walked_total",
                        "frozen log blocks walked by reclamation "
                        "cycles"),
            reg.counter("specpmt_reclaim_failures_total",
                        "background reclamation cycles abandoned on "
                        "pool exhaustion or a media error"),
            reg.histogram("specpmt_reclaim_cycle_ns",
                          "wall-clock duration of completed "
                          "reclamation cycles"),
            reg.counter("specpmt_recoveries_total",
                        "SpecSPMT post-crash recoveries"),
            reg.counter("specpmt_recovery_replayed_txs_total",
                        "committed transactions replayed in recovery"),
            reg.gauge("specpmt_spec_tx_log_bytes_in_use",
                      "live speculative-log bytes across all threads"),
            reg.counter("specpmt_epoch_seals_total",
                        "epoch group-commit fences (one per sealed "
                        "epoch)"),
            reg.counter("specpmt_epoch_relaxed_commits_total",
                        "transactions committed relaxed into an epoch"),
            reg.counter("specpmt_epoch_txs_sealed_total",
                        "transactions made durable by epoch seals"),
            reg.counter("specpmt_epoch_dropped_txs_total",
                        "committed-in-DRAM transactions dropped by "
                        "recovery as beyond the durable epoch frontier"),
            reg.gauge("specpmt_epoch_pending_txs",
                      "relaxed commits awaiting the next epoch seal"),
            reg.gauge("specpmt_epoch_last_sealed",
                      "highest sealed epoch ticket"),
            reg.histogram("specpmt_epoch_txs_per_seal",
                          "epoch size in transactions at seal time"),
            reg.counter("specpmt_pm_media_quarantined_segments_total",
                        "CRC-failing log segments quarantined by "
                        "recovery walks instead of stopping them"),
        };
        return m;
    }
};

/**
 * PM cost accounting (the specpmt_pm_* family): how much persistence
 * work commits buy per byte of user data. Commits charge their
 * thread-local PmCost delta into the cumulative counters; the ratio
 * gauges are recomputed on each charge so a scrape always sees
 * write-amp / flush-per-tx figures consistent with the counters it
 * reads alongside them.
 */
struct PmMetrics
{
    obs::Counter &txs;
    obs::Counter &userBytes;
    obs::Counter &logBytes;
    obs::Counter &dedupHits;
    obs::Counter &flushes;
    obs::Counter &flushBytes;
    obs::Counter &fences;
    obs::FloatGauge &writeAmp;
    obs::FloatGauge &flushesPerTx;
    obs::FloatGauge &fencesPerTx;
    obs::Gauge &logBytesPeak;
    obs::Gauge &reclaimDebt;

    static PmMetrics &
    get()
    {
        auto &reg = obs::Registry::global();
        static PmMetrics m{
            reg.counter("specpmt_pm_txs_total",
                        "update transactions charged to the PM cost "
                        "accounting counters"),
            reg.counter("specpmt_pm_user_bytes_total",
                        "bytes transactions asked to persist (txStore "
                        "payloads)"),
            reg.counter("specpmt_pm_log_bytes_total",
                        "log bytes those transactions appended "
                        "(entries + headers)"),
            reg.counter("specpmt_pm_dedup_hits_total",
                        "txStores absorbed in place by the dedup "
                        "index (no log append)"),
            reg.counter("specpmt_pm_flushes_total",
                        "cache-line flushes charged to transactions "
                        "and their epoch seals"),
            reg.counter("specpmt_pm_flush_bytes_total",
                        "bytes covered by those flushes"),
            reg.counter("specpmt_pm_fences_total",
                        "store fences charged to transactions and "
                        "their epoch seals"),
            reg.floatGauge("specpmt_pm_write_amp",
                           "cumulative log bytes / user bytes (log "
                           "write amplification)"),
            reg.floatGauge("specpmt_pm_flushes_per_tx",
                           "cumulative flushes / committed update "
                           "transactions"),
            reg.floatGauge("specpmt_pm_fences_per_tx",
                           "cumulative fences / committed update "
                           "transactions"),
            reg.gauge("specpmt_pm_log_bytes_peak",
                      "high watermark of live speculative-log bytes"),
            reg.gauge("specpmt_pm_reclaim_debt_bytes",
                      "live log bytes beyond the reclaim threshold "
                      "(0 when under it)"),
        };
        return m;
    }

    /** Add a cost delta to the counters; ratios follow. */
    void
    charge(const obs::PmCost &d)
    {
        if (d.userBytes != 0)
            userBytes.add(d.userBytes);
        if (d.logBytes != 0)
            logBytes.add(d.logBytes);
        if (d.dedupHits != 0)
            dedupHits.add(d.dedupHits);
        if (d.flushes != 0)
            flushes.add(d.flushes);
        if (d.flushBytes != 0)
            flushBytes.add(d.flushBytes);
        if (d.fences != 0)
            fences.add(d.fences);
        const double ub = static_cast<double>(userBytes.value());
        if (ub > 0)
            writeAmp.set(static_cast<double>(logBytes.value()) / ub);
        const double n = static_cast<double>(txs.value());
        if (n > 0) {
            flushesPerTx.set(static_cast<double>(flushes.value()) / n);
            fencesPerTx.set(static_cast<double>(fences.value()) / n);
        }
    }

    /** One committed update transaction's delta. */
    void
    chargeCommit(const obs::PmCost &d)
    {
        txs.add();
        charge(d);
    }
};

} // namespace

SpecTx::SpecTx(pmem::PmemPool &pool, unsigned num_threads,
               const SpecTxConfig &config)
    : TxRuntime(pool, num_threads), config_(config)
{
    logs_.reserve(num_threads);
    for (unsigned tid = 0; tid < num_threads; ++tid)
        logs_.push_back(std::make_unique<ThreadLog>());

    if (pool_.getRoot(txn::logHeadSlot(0)) != kPmNull) {
        // A previous incarnation's logs survive in this pool; the
        // caller must run recover() before the first transaction.
        needsRecovery_ = true;
    } else {
        for (unsigned tid = 0; tid < num_threads; ++tid)
            initFreshLog(tid);
        if (config_.groupCommit)
            initEpochFrontier(/*adopt_existing=*/false);
    }

    if (config_.backgroundReclaim)
        reclaimer_ = std::thread([this] { reclaimerMain(); });
}

SpecTx::~SpecTx()
{
    if (reclaimer_.joinable()) {
        {
            std::lock_guard<std::mutex> guard(reclaimMutex_);
            stopReclaimer_ = true;
        }
        reclaimCv_.notify_all();
        reclaimer_.join();
    }
}

void
SpecTx::noteLogBytes(std::ptrdiff_t delta)
{
    const std::size_t now = logBytes_.fetch_add(delta) + delta;
    std::size_t peak = peakLogBytes_.load();
    while (now > peak && !peakLogBytes_.compare_exchange_weak(peak, now)) {
    }
    SpecTxMetrics::get().logBytesInUse.set(
        static_cast<std::int64_t>(now));
    auto &pm = PmMetrics::get();
    pm.logBytesPeak.set(
        static_cast<std::int64_t>(peakLogBytes_.load()));
    pm.reclaimDebt.set(static_cast<std::int64_t>(
        now > config_.reclaimThresholdBytes
            ? now - config_.reclaimThresholdBytes
            : 0));
}

PmOff
SpecTx::newBlock(PmOff prev, std::size_t payload)
{
    const PmOff block = pool_.allocAligned(
        logBlockBytes(payload, config_.logBlockSize, kCacheLineSize),
        kCacheLineSize);
    const std::size_t size = pool_.allocationSize(block);
    formatBlock(dev_, block, size, prev);
    noteLogBytes(static_cast<std::ptrdiff_t>(size));
    return block;
}

void
SpecTx::initFreshLog(unsigned tid)
{
    auto &log = *logs_[tid];
    const PmOff block = newBlock(kPmNull, 0);
    dev_.clwbRange(block, sizeof(BlockHeader) + kPoisonBytes,
                   pmem::TrafficClass::Log);
    dev_.sfence();
    pool_.setRoot(txn::logHeadSlot(tid), block);

    {
        std::lock_guard<std::mutex> guard(log.mutex);
        log.blocks.assign(1, block);
        log.tailBlock = block;
        log.tailPos = sizeof(BlockHeader);
    }
    endTx(log);
    log.pendingFlush.clear();
}

void
SpecTx::attachBlock(ThreadLog &log, std::size_t min_bytes)
{
    const PmOff old_tail = log.tailBlock;
    const PmOff block = newBlock(old_tail, min_bytes);
    // The header and the chain link persist with the next commit fence.
    log.pendingFlush.emplace_back(block, sizeof(BlockHeader) + kPoisonBytes);
    log.pendingFlush.emplace_back(old_tail + offsetof(BlockHeader, next),
                                  sizeof(PmOff));

    std::lock_guard<std::mutex> guard(log.mutex);
    log.blocks.push_back(block);
    log.tailBlock = block;
    log.tailPos = sizeof(BlockHeader);
}

void
SpecTx::openSegment(ThreadLog &log)
{
    if (log.retireTailOnBegin) {
        // The previous transaction aborted mid-append. If the abort
        // was a media fault (e.g. a write-EIO line under the tail),
        // re-serving the rewound bytes would hit the same line on
        // every retry forever; burn the rest of the block and carry
        // on in a fresh one. A genuinely dead region thus costs pool
        // space — degrading to read-only via PoolExhausted — instead
        // of wedging the shard in an abort loop.
        attachBlock(log, sizeof(SegHead));
        log.retireTailOnBegin = false;
    }
    if (!fitsBlock(blockCapacity(dev_, log.tailBlock), log.tailPos,
                   sizeof(SegHead)))
        attachBlock(log, sizeof(SegHead));
    log.openSegs.push_back(
        {log.tailBlock + log.tailPos, sizeof(SegHead), 0});
    log.tailPos += sizeof(SegHead);
}

void
SpecTx::appendEntry(ThreadLog &log, PmOff off, const void *src,
                    std::size_t size)
{
    const std::size_t bytes = entryBytes(size, src == nullptr);
    if (!fitsBlock(blockCapacity(dev_, log.tailBlock), log.tailPos,
                   bytes)) {
        // The entry does not fit: start a fresh segment in a fresh
        // block; the transaction now spans multiple segments.
        attachBlock(log, sizeof(SegHead) + bytes);
        openSegment(log);
    }

    const PmOff pos = log.tailBlock + log.tailPos;
    writeEntry(dev_, pos, off, src, size);
    if (src != nullptr)
        log.entryIndex[entryKey(off, size)] = pos + sizeof(EntryHead);

    auto &seg = log.openSegs.back();
    seg.bytes += bytes;
    ++seg.numEntries;
    log.tailPos += bytes;
    SpecTxMetrics::get().logBytesWritten.add(bytes);
    obs::traceContext().cost.logBytes += bytes;
}

void
SpecTx::poisonTail(ThreadLog &log)
{
    const PmOff pos = log.tailBlock + log.tailPos;
    if (fitsBlock(blockCapacity(dev_, log.tailBlock), log.tailPos, 0)) {
        poisonSlot(dev_, pos);
        log.pendingFlush.emplace_back(pos, kPoisonBytes);
    }
}

void
SpecTx::txBegin(ThreadId tid)
{
    SPECPMT_ASSERT(!needsRecovery_);
    auto &log = threadLog(tid);
    SPECPMT_ASSERT(!log.inTx);
    log.inTx = true;
    SpecTxMetrics::get().begins.add();
    log.costAtBegin = obs::traceContext().cost;
    log.traceStartNs = SPECPMT_TRACE_BEGIN();
    openSegment(log);
    {
        std::lock_guard<std::mutex> guard(log.mutex);
        log.firstOpenBlock = log.blocks.size() - 1;
    }
}

bool
SpecTx::capturePreImages(ThreadLog &log, PmOff off, std::size_t size)
{
    // Volatile pre-images for fast abort.
    std::size_t fresh = 0;
    for (const auto &[gap_off, gap_size] : log.captured.uncovered(off,
                                                                  size)) {
        std::vector<std::uint8_t> old_value(gap_size);
        dev_.load(gap_off, old_value.data(), gap_size);
        log.preImages.emplace_back(gap_off, std::move(old_value));
        log.captured.add(gap_off, gap_size);
        fresh += gap_size;
    }
    return fresh != size;
}

void
SpecTx::txStore(ThreadId tid, PmOff off, const void *src, std::size_t size)
{
    auto &log = threadLog(tid);
    SPECPMT_ASSERT(log.inTx);
    SPECPMT_ASSERT(size > 0);

    const bool overlaps = capturePreImages(log, off, size);

    // splog: record the *new* value; a repeated update of the same
    // datum overwrites its existing log entry in place so only the
    // last update survives (Section 4).
    const auto it = config_.dedupEntries
        ? log.entryIndex.find(entryKey(off, size))
        : log.entryIndex.end();
    obs::traceContext().cost.userBytes += size;
    if (it != log.entryIndex.end()) {
        dev_.store(it->second, src, size);
        SpecTxMetrics::get().dedupHits.add();
        ++obs::traceContext().cost.dedupHits;
    } else {
        // Recovery replays entries in log order. Once an entry covers
        // bytes an earlier entry of this transaction logged under
        // another (off,size) key, rewriting that earlier entry in
        // place would replay it first and lose the rewrite: forget
        // every dedup position, so later stores append after it.
        if (overlaps)
            log.entryIndex.clear();
        appendEntry(log, off, src, size);
    }

    // In-place durable update — no flush, no fence.
    dev_.store(off, src, size);
    if (config_.dataPersistOnCommit)
        log.writeSet.add(off, size);
}

void
SpecTx::txZero(ThreadId tid, PmOff off, std::size_t size)
{
    auto &log = threadLog(tid);
    SPECPMT_ASSERT(log.inTx);
    SPECPMT_ASSERT(size > 0);
    // The bounds entryKey() enforces on a value entry at append.
    SPECPMT_ASSERT(off < (1ull << 32) && size < (1ull << 32));

    // The range entry replays after every earlier entry of this
    // transaction, so none of them may absorb a later store (see
    // txStore).
    if (capturePreImages(log, off, size))
        log.entryIndex.clear();
    appendEntry(log, off, nullptr, size);

    // Zero in place — no flush, no fence, as txStore. The zeros are
    // not user bytes: specpmt_pm_user_bytes_total counts txStore
    // payloads.
    for (std::size_t done = 0; done < size; done += sizeof(kZeroChunk))
        dev_.store(off + done, kZeroChunk,
                   std::min(sizeof(kZeroChunk), size - done));
    if (config_.dataPersistOnCommit)
        log.writeSet.add(off, size);
}

void
SpecTx::sealSegments(ThreadLog &log, TxTimestamp ts)
{
    SpecTxMetrics::get().segmentsSealed.add(log.openSegs.size());
    for (std::size_t i = 0; i < log.openSegs.size(); ++i) {
        const auto &seg = log.openSegs[i];
        // The final seal attests to the whole transaction's shape so
        // recovery can detect a missing intermediate segment.
        const std::uint32_t flags =
            i + 1 == log.openSegs.size()
                ? segFlagsWithCount(kSegFinal, static_cast<std::uint32_t>(
                                                   log.openSegs.size()))
                : 0;
        sealSegment(dev_, seg.pos, seg.bytes, ts, flags, seg.numEntries);
        log.pendingFlush.emplace_back(seg.pos, seg.bytes);
    }
    poisonTail(log);
}

void
SpecTx::endTx(ThreadLog &log)
{
    log.inTx = false;
    log.openSegs.clear();
    log.entryIndex.clear();
    log.preImages.clear();
    log.captured.clear();
    log.writeSet.clear();
    std::lock_guard<std::mutex> guard(log.mutex);
    log.firstOpenBlock = log.blocks.size() - 1;
}

std::uint64_t
SpecTx::commitStaged(ThreadId tid)
{
    auto &log = threadLog(tid);
    SPECPMT_ASSERT(log.inTx);

    // Read-only transaction: nothing to persist; rewind the header
    // space reserved at txBegin.
    if (log.openSegs.size() == 1 && log.openSegs[0].numEntries == 0) {
        log.tailPos -= sizeof(SegHead);
        endTx(log);
        SpecTxMetrics::get().readonlyCommits.add();
        SPECPMT_TRACE_END("tx_readonly", "tx", log.traceStartNs);
        return 0;
    }

    std::uint64_t ticket = 0;
    if (!config_.groupCommit) {
        const TxTimestamp ts = nextTimestamp();
        sealSegments(log, ts);
        // One flush batch + one fence persists the whole transaction:
        // the segment checksums are the commit flag (Section 4.1).
        const std::uint64_t flushStartNs = SPECPMT_TRACE_BEGIN();
        if (config_.dataPersistOnCommit) {
            log.writeSet.forEachLine([&](std::uint64_t line) {
                dev_.clwb(line * kCacheLineSize,
                          pmem::TrafficClass::Data);
            });
        }
        for (const auto &[off, size] : log.pendingFlush)
            dev_.clwbRange(off, size, pmem::TrafficClass::Log);
        dev_.sfence();
        if (flushStartNs != 0 && obs::Tracer::global().enabled()) {
            const auto &tctx = obs::traceContext();
            obs::Tracer::global().record(
                "flush_batch", "flush", flushStartNs,
                obs::Tracer::now(),
                tctx.sampled ? tctx.traceId : 0);
        }
    } else {
        // Timestamp allocation, seal stores, and flush-range
        // registration form one atomic step against concurrent
        // commits and sealers: this is what keeps epoch membership
        // timestamp-contiguous (see the header comment on
        // epochMutex_). Every allocation in this mode happens under
        // the lock, so the seal can use the next timestamp before
        // taking it: a media fault thrown by the seal stores leaves
        // no gap in the sequence and the epoch untouched.
        std::lock_guard<std::mutex> guard(epochMutex_);
        const TxTimestamp ts = currentTimestamp() + 1;
        sealSegments(log, ts);
        const TxTimestamp taken = nextTimestamp();
        SPECPMT_ASSERT(taken == ts);
        if (config_.dataPersistOnCommit) {
            log.writeSet.forEachLine([&](std::uint64_t line) {
                epochPending_.push_back({line * kCacheLineSize,
                                         kCacheLineSize,
                                         pmem::TrafficClass::Data});
            });
        }
        for (const auto &[off, size] : log.pendingFlush)
            epochPending_.push_back(
                {off, size, pmem::TrafficClass::Log});
        if (epochPendingTxs_ == 0)
            epochFirstTs_ = ts;
        epochLastTs_ = ts;
        ++epochPendingTxs_;
        ticket = epochOpenTicket_;
        SpecTxMetrics::get().epochPendingTxs.set(
            static_cast<std::int64_t>(epochPendingTxs_));
        const auto &tctx = obs::traceContext();
        if (tctx.sampled && tctx.traceId != 0 &&
            epochTraceIds_.size() < kEpochTraceMembers)
            epochTraceIds_.push_back(tctx.traceId);
    }

    // Commit point. Only past the fence (strict) or the epoch
    // registration is the transaction irrevocable; a media fault
    // thrown from the seal stores above leaves inTx set, so the
    // caller can still txAbort() — pre-images restored, tail rewound
    // and re-poisoned.
    log.pendingFlush.clear();
    endTx(log);

    SpecTxMetrics::get().commits.add();
    {
        auto &cost = obs::traceContext().cost;
        cost.logBytesPeak = peakLogBytes_.load();
        const std::size_t live = logBytes_.load();
        cost.reclaimDebt = live > config_.reclaimThresholdBytes
                               ? live - config_.reclaimThresholdBytes
                               : 0;
        PmMetrics::get().chargeCommit(
            obs::PmCost::delta(log.costAtBegin, cost));
    }
    SPECPMT_TRACE_END("tx", "tx", log.traceStartNs);

    // Implicit reclamation trigger (Section 4.2).
    if (reclaimer_.joinable() && reclaimDue()) {
        {
            std::lock_guard<std::mutex> guard(reclaimMutex_);
            reclaimRequested_ = true;
        }
        reclaimCv_.notify_one();
    }
    return ticket;
}

void
SpecTx::txCommit(ThreadId tid)
{
    // Strict commit in epoch mode seals the epoch it joined before
    // returning: one fence covers this transaction plus every earlier
    // relaxed commit, so ack-implies-durable holds.
    if (commitStaged(tid) != 0)
        sealEpoch();
}

std::uint64_t
SpecTx::txCommitRelaxed(ThreadId tid)
{
    const std::uint64_t ticket = commitStaged(tid);
    if (ticket != 0)
        SpecTxMetrics::get().epochRelaxedCommits.add();
    return ticket;
}

std::uint64_t
SpecTx::sealEpoch()
{
    if (!config_.groupCommit)
        return 0;
    std::lock_guard<std::mutex> seal_guard(epochSealMutex_);
    const obs::PmCost sealCostBefore = obs::traceContext().cost;
    const std::uint64_t sealStartNs = SPECPMT_TRACE_BEGIN();
    std::vector<EpochRange> ranges;
    std::vector<std::uint64_t> members;
    std::uint64_t ticket = 0;
    std::uint64_t txs = 0;
    {
        std::lock_guard<std::mutex> guard(epochMutex_);
        if (epochPendingTxs_ == 0)
            return epochLastSealed_.load(std::memory_order_relaxed);
        // The frontier advance rides the same flush batch as the
        // member seals. If the fence below never completes, recovery
        // treats any gap inside the announced window as proof of
        // that, and replays only the window's dense prefix — all of
        // which was unacked. Once the fence completes, frontier and
        // seals are durable together. Storing it before the epoch is
        // taken apart means a media fault on the record leaves every
        // member pending for the next seal.
        storeEpochFrontier(epochFirstTs_, epochLastTs_);
        ranges.swap(epochPending_);
        members.swap(epochTraceIds_);
        txs = epochPendingTxs_;
        epochPendingTxs_ = 0;
        epochFirstTs_ = epochLastTs_ = 0;
        ticket = epochOpenTicket_++;
        SpecTxMetrics::get().epochPendingTxs.set(0);
    }

    for (const auto &range : ranges)
        dev_.clwbRange(range.off, range.size, range.cls);
    dev_.sfence();
    if (sealStartNs != 0 && obs::Tracer::global().enabled()) {
        const std::uint64_t sealEndNs = obs::Tracer::now();
        auto &tracer = obs::Tracer::global();
        tracer.record("epoch_seal", "flush", sealStartNs, sealEndNs);
        // One linked span per sampled member, so each request's
        // waterfall shows the shared fence it rode and how many
        // transactions amortized it.
        const obs::TraceArg sealArgs[] = {{"txs", txs}};
        for (const std::uint64_t member : members)
            tracer.record("epoch_seal", "flush", sealStartNs,
                          sealEndNs, member, sealArgs, 1);
    }
    // The shared fence's flush work is charged without a tx of its
    // own: flushes_per_tx amortizes it over the member commits.
    PmMetrics::get().charge(obs::PmCost::delta(
        sealCostBefore, obs::traceContext().cost));
    epochLastSealed_.store(ticket, std::memory_order_release);

    auto &m = SpecTxMetrics::get();
    m.epochSeals.add();
    m.epochTxsSealed.add(txs);
    m.epochTxsPerSeal.record(txs);
    m.epochLastSealed.set(static_cast<std::int64_t>(ticket));
    return ticket;
}

void
SpecTx::initEpochFrontier(bool adopt_existing)
{
    const PmOff existing = pool_.getRoot(txn::kEpochFrontierSlot);
    if (adopt_existing && existing != kPmNull) {
        pool_.adopt(existing, kCacheLineSize);
        epochFrontierOff_ = existing;
        return;
    }
    epochFrontierOff_ =
        pool_.allocAligned(kCacheLineSize, kCacheLineSize);
    const TxTimestamp base = currentTimestamp();
    storeEpochFrontier(base + 1, base); // empty window: replay all
    // setRoot is durable (clwb + sfence), which also fences the
    // record's initial contents.
    pool_.setRoot(txn::kEpochFrontierSlot, epochFrontierOff_);
}

void
SpecTx::storeEpochFrontier(TxTimestamp first, TxTimestamp last)
{
    SPECPMT_ASSERT(epochFrontierOff_ != kPmNull);
    EpochFrontier frontier{kEpochFrontierMagic, first, last, 0, 0};
    frontier.crc = epochFrontierCrc(frontier);
    dev_.storeT(epochFrontierOff_, frontier);
    dev_.clwbRange(epochFrontierOff_, sizeof(EpochFrontier),
                   pmem::TrafficClass::Meta);
}

void
SpecTx::txAbort(ThreadId tid)
{
    // The rollback must complete even when the abort is *caused by* a
    // media fault: restoring pre-images and re-poisoning the tail may
    // touch the very lines whose failure is being unwound.
    pmem::MediaFaultSuppress suppress_media_faults;
    auto &log = threadLog(tid);
    // A strict epoch commit closes its transaction before its seal
    // runs; a fault thrown by that seal leaves nothing to roll back.
    if (!log.inTx)
        return;

    // Restore the captured pre-images, newest first.
    for (auto it = log.preImages.rbegin(); it != log.preImages.rend();
         ++it) {
        dev_.store(it->first, it->second.data(), it->second.size());
    }

    // A transaction that failed before its first segment opened (pool
    // exhaustion or a media fault inside txBegin) has nothing staged
    // to rewind.
    if (!log.openSegs.empty()) {
        // Rewind the log tail to where this transaction started and
        // drop any blocks attached on its behalf.
        const PmOff rewind_pos = log.openSegs.front().pos;

        std::vector<PmOff> freed;
        {
            std::lock_guard<std::mutex> guard(log.mutex);
            // Find the block containing rewind_pos.
            std::size_t keep = log.blocks.size();
            for (std::size_t i = 0; i < log.blocks.size(); ++i) {
                const PmOff base = log.blocks[i];
                const std::size_t cap = blockCapacity(dev_, base);
                if (rewind_pos >= base && rewind_pos < base + cap) {
                    keep = i;
                    break;
                }
            }
            SPECPMT_ASSERT(keep < log.blocks.size());
            for (std::size_t i = keep + 1; i < log.blocks.size(); ++i)
                freed.push_back(log.blocks[i]);
            log.blocks.resize(keep + 1);
            log.tailBlock = log.blocks.back();
            log.tailPos = rewind_pos - log.tailBlock;
        }

        // Unlink and poison; drop pending flushes that point into
        // freed blocks.
        log.pendingFlush.emplace_back(
            storeNext(dev_, log.tailBlock, kPmNull), sizeof(PmOff));
        auto in_freed = [&](PmOff off) {
            for (PmOff base : freed) {
                const std::size_t cap = pool_.allocationSize(base);
                if (off >= base && off < base + cap)
                    return true;
            }
            return false;
        };
        std::erase_if(log.pendingFlush, [&](const auto &range) {
            return in_freed(range.first);
        });
        poisonTail(log);

        // The dropped blocks are deliberately NOT returned to the
        // pool: when the abort was caused by a media fault one of
        // them may contain the failing line, and the pool's LIFO free
        // lists would hand it straight back to the next attachBlock —
        // an abort loop on the same bad line. Aborts are exceptional
        // (media faults, pool exhaustion), so the quarantined space is
        // bounded and read-only degradation remains the backstop.
        for (PmOff base : freed)
            noteLogBytes(-static_cast<std::ptrdiff_t>(
                pool_.allocationSize(base)));
    }
    // Also when no segment opened: openSegment's load of the tail
    // block's capacity may be what faulted, and the next begin would
    // load that same header line again.
    log.retireTailOnBegin = true;

    endTx(log);
    SpecTxMetrics::get().aborts.add();
    SPECPMT_TRACE_END("tx_abort", "tx", log.traceStartNs);
}

void
SpecTx::adoptExternal(ThreadId tid, PmOff off, std::size_t size)
{
    // Snapshot external data in chunks inside one transaction
    // (Section 4.3.2): afterwards every byte has a committed record.
    constexpr std::size_t kChunk = 1024;
    txBegin(tid);
    std::vector<std::uint8_t> buffer(kChunk);
    for (std::size_t done = 0; done < size; done += kChunk) {
        const std::size_t chunk = std::min(kChunk, size - done);
        dev_.load(off + done, buffer.data(), chunk);
        txStore(tid, off + done, buffer.data(), chunk);
    }
    txCommit(tid);
}

void
SpecTx::switchMechanism()
{
    for (const auto &log : logs_)
        SPECPMT_ASSERT(!log->inTx);
    // Persist every durable datum; after this the speculative logs are
    // unnecessary and another mechanism may take over (Section 4.3.1).
    dev_.drainAll();
    logBytes_.store(0);
    for (unsigned tid = 0; tid < numThreads_; ++tid) {
        auto &log = *logs_[tid];
        std::vector<PmOff> old_blocks;
        {
            std::lock_guard<std::mutex> guard(log.mutex);
            old_blocks = log.blocks;
            log.blocks.clear();
            log.tailBlock = kPmNull;
            log.tailPos = 0;
            log.firstOpenBlock = 0;
        }
        for (PmOff base : old_blocks)
            pool_.free(base);
        pool_.setRoot(txn::logHeadSlot(tid), kPmNull);
    }
    if (pool_.getRoot(txn::kEpochFrontierSlot) != kPmNull)
        pool_.setRoot(txn::kEpochFrontierSlot, kPmNull);
    // This instance is done; a successor mechanism owns the pool now.
    needsRecovery_ = true;
}

void
SpecTx::shutdown()
{
    sealEpoch();
    if (reclaimer_.joinable()) {
        {
            std::lock_guard<std::mutex> guard(reclaimMutex_);
            stopReclaimer_ = true;
        }
        reclaimCv_.notify_all();
        reclaimer_.join();
    }
    dev_.drainAll();
}

std::size_t
SpecTx::logBytesInUse() const
{
    return logBytes_.load();
}

// ---------------------------------------------------------------------
// Recovery (Section 3.1)
// ---------------------------------------------------------------------

void
SpecTx::recover()
{
    SPECPMT_TRACE_SPAN("spec_recover", "recovery");
    // Recovery reads whatever the media still yields: a poisoned line
    // inside an old record must not wedge the walk — the CRC seals
    // decide what is trustworthy, and quarantining handles the rest.
    pmem::MediaFaultSuppress suppress_media_faults;

    struct AdoptedChain
    {
        WalkResult walk;
        bool present = false;
        /** End position of the last *committed* transaction: the
         * adoption point. Trailing valid-checksum segments of a torn
         * commit are truncated, not kept — leaving them embedded
         * would let a later compaction mistake them for committed
         * records. */
        PmOff lastCommittedEnd = kPmNull;
        /** The chain's committed groups: [begin, end) of txs until
         * the merge reorders it. Epoch mode moves lastCommittedEnd
         * back to the last of them that is *replayed*. */
        IndexRange groups;
    };
    std::vector<AdoptedChain> chains(numThreads_);

    // A pool operated in group-commit mode carries an epoch frontier
    // record; its presence on media (not this incarnation's config)
    // selects the replay rule, because the previous incarnation is
    // the one whose commits are being recovered.
    const PmOff frontier_root = pool_.getRoot(txn::kEpochFrontierSlot);
    const bool epoch_media = frontier_root != kPmNull;
    EpochFrontier frontier{};
    if (epoch_media)
        frontier = dev_.loadT<EpochFrontier>(frontier_root);

    // Every chain decodes once into one arena; the committed groups
    // are views into it, so nothing below copies an entry.
    DecodedLog decoded;
    std::vector<GroupedTx> txs;
    {
        SPECPMT_TRACE_SPAN("spec_recover_walk", "recovery");
        for (unsigned tid = 0; tid < numThreads_; ++tid) {
            const PmOff root = pool_.getRoot(txn::logHeadSlot(tid));
            if (root == kPmNull)
                continue;
            auto &chain = chains[tid];
            chain.present = true;

            // Group consecutive same-timestamp segments into
            // transactions (the shared splog_walk rule): committed
            // only on a valid final seal attesting to the run's exact
            // segment count — anything else is an interrupted
            // commit's debris, undone by not replaying it.
            const std::size_t first = decoded.segments.size();
            chain.walk = walkChain(dev_, root, decoded);
            TxTimestamp newest = 0;
            for (std::size_t i = first; i < decoded.segments.size(); ++i)
                newest = std::max(newest, decoded.segments[i].timestamp);
            seedTimestamp(newest);
            TxGrouper grouper;
            grouper.group(decoded, first, chain.walk.quarantined);
            if (!chain.walk.quarantined.empty()) {
                SpecTxMetrics::get().quarantinedSegments.add(
                    chain.walk.quarantined.size());
                quarantinedSegments_ += chain.walk.quarantined.size();
            }
            chain.groups.begin = txs.size();
            txs.insert(txs.end(), grouper.committed().begin(),
                       grouper.committed().end());
            chain.groups.end = txs.size();
            chain.lastCommittedEnd = grouper.lastCommittedEnd();
        }
    }

    // Epoch replay rule (DESIGN §12): only transactions covered by the
    // durable frontier may be replayed. Everything newer belongs to an
    // epoch whose fence never completed — its commits were never acked
    // — so it is dropped exactly like a torn strict commit. The cut
    // moves each chain's adoption point to its last replayed group:
    // committed-but-unsealed records must not survive into the
    // adopted prefix, or a later reclaim cycle would compact them
    // into always-replayed records.
    TxTimestamp epoch_limit = 0;
    if (epoch_media) {
        std::vector<TxTimestamp> committed_ts;
        committed_ts.reserve(txs.size());
        for (const auto &tx : txs)
            committed_ts.push_back(tx.ts);
        epoch_limit = epochReplayLimit(frontier, std::move(committed_ts));
        for (auto &chain : chains) {
            chain.lastCommittedEnd = kPmNull;
            for (std::size_t i = chain.groups.begin; i < chain.groups.end;
                 ++i) {
                if (txs[i].ts > epoch_limit)
                    break;
                chain.lastCommittedEnd =
                    segmentEnd(decoded.segments[txs[i].segs.end - 1]);
            }
        }
    }

    // Global timestamp order. Each chain's committed groups are in
    // timestamp order already: a thread commits in timestamp order and
    // compaction keeps its groups' order. So merging the chains' runs
    // orders them all; a damaged chain whose run is out of order is
    // sorted first. Equal timestamps, which no healthy log holds, keep
    // chain order.
    {
        SPECPMT_TRACE_SPAN("spec_recover_order", "recovery");
        const auto by_ts = [](const GroupedTx &a, const GroupedTx &b) {
            return a.ts < b.ts;
        };
        for (const auto &chain : chains) {
            const auto run = txs.begin() +
                             static_cast<std::ptrdiff_t>(chain.groups.begin);
            const auto end = txs.begin() +
                             static_cast<std::ptrdiff_t>(chain.groups.end);
            if (!std::is_sorted(run, end, by_ts))
                std::sort(run, end, by_ts);
            std::inplace_merge(txs.begin(), run, end, by_ts);
        }
    }
    if (epoch_media) {
        auto it = std::remove_if(txs.begin(), txs.end(),
                                 [&](const GroupedTx &tx) {
                                     return tx.ts > epoch_limit;
                                 });
        SpecTxMetrics::get().epochDroppedTxs.add(
            static_cast<std::uint64_t>(std::distance(it, txs.end())));
        txs.erase(it, txs.end());
    }

    // Replay every fresh record in global chronological order: redo
    // for committed transactions, undo for interrupted ones. All
    // stores first, then one flush pass (a line the pass already
    // flushed is clean, so each replayed line is written back once),
    // then one fence. The log is not written before that fence, so a
    // crash in here leaves it intact and recovery simply reruns.
    {
        SPECPMT_TRACE_SPAN("spec_recover_replay", "recovery");
        std::vector<std::uint8_t> value;
        for (const auto &tx : txs) {
            for (const auto &entry : decoded.entriesIn(tx.entries)) {
                value.resize(entry.size);
                entryValue(dev_, entry, value.data());
                dev_.store(entry.dataOff, value.data(), entry.size);
            }
        }
    }
    {
        SPECPMT_TRACE_SPAN("spec_recover_flush", "recovery");
        for (const auto &tx : txs) {
            for (const auto &entry : decoded.entriesIn(tx.entries))
                dev_.clwbRange(entry.dataOff, entry.size,
                               pmem::TrafficClass::Data);
        }
    }
    {
        SPECPMT_TRACE_SPAN("spec_recover_fence", "recovery");
        dev_.sfence();
    }

    // Re-adopt each surviving chain: keep the valid prefix (its
    // records still cover the data for future interrupted updates),
    // truncate at the tail, and cut any dangling blocks.
    logBytes_.store(0);
    for (unsigned tid = 0; tid < numThreads_; ++tid) {
        if (!chains[tid].present || chains[tid].walk.blocks.empty()) {
            initFreshLog(tid);
            continue;
        }
        const auto &walk = chains[tid].walk;

        // Adopt the chain only up to the end of the last committed
        // (under the epoch rule: replayed) transaction; anything
        // beyond it is a torn commit's debris.
        PmOff adopt_pos = chains[tid].lastCommittedEnd;
        if (adopt_pos == kPmNull)
            adopt_pos = walk.blocks.front() + sizeof(BlockHeader);
        std::size_t keep = 0;
        for (std::size_t i = 0; i < walk.blocks.size(); ++i) {
            const std::size_t cap = blockCapacity(dev_, walk.blocks[i]);
            if (adopt_pos >= walk.blocks[i] &&
                adopt_pos <= walk.blocks[i] + cap) {
                keep = i;
                break;
            }
        }

        auto &log = *logs_[tid];
        {
            std::lock_guard<std::mutex> guard(log.mutex);
            log.blocks.assign(walk.blocks.begin(),
                              walk.blocks.begin() +
                                  static_cast<std::ptrdiff_t>(keep + 1));
            log.tailBlock = log.blocks.back();
            log.tailPos = adopt_pos - log.tailBlock;
        }
        endTx(log);
        log.pendingFlush.clear();

        // Cut the chain after the adopted tail and refresh the poison.
        const PmOff tail_block = log.tailBlock;
        dev_.clwb(storeNext(dev_, tail_block, kPmNull),
                  pmem::TrafficClass::Log);
        if (fitsBlock(blockCapacity(dev_, tail_block), log.tailPos, 0)) {
            poisonSlot(dev_, tail_block + log.tailPos);
            dev_.clwb(tail_block + log.tailPos, pmem::TrafficClass::Log);
        }
        std::size_t bytes = 0;
        for (PmOff base : log.blocks) {
            const std::size_t cap = blockCapacity(dev_, base);
            // Make the surviving block known to the re-opened pool's
            // (volatile) allocator.
            pool_.adopt(base, cap);
            bytes += cap;
        }
        noteLogBytes(static_cast<std::ptrdiff_t>(bytes));
    }
    // Reconcile the epoch frontier with this incarnation's config.
    // A recovered pool restarts with an *empty* window just past the
    // highest surviving timestamp: timestamps consumed by dropped
    // transactions leave permanent gaps, and parking frontier.start
    // above them keeps them below the window where the replay rule
    // never looks for density.
    if (config_.groupCommit) {
        initEpochFrontier(/*adopt_existing=*/true);
        const TxTimestamp base = currentTimestamp();
        storeEpochFrontier(base + 1, base);
    } else if (epoch_media) {
        // The pool is switching back to strict-only operation; retire
        // the frontier so future recoveries use the legacy rule.
        pool_.adopt(frontier_root, kCacheLineSize);
        pool_.setRoot(txn::kEpochFrontierSlot, kPmNull);
        pool_.free(frontier_root);
    }

    dev_.sfence();
    needsRecovery_ = false;
    SpecTxMetrics::get().recoveries.add();
    SpecTxMetrics::get().recoveryReplayedTxs.add(txs.size());
}

// ---------------------------------------------------------------------
// Background log reclamation (Section 4.2)
// ---------------------------------------------------------------------

bool
SpecTx::reclaimDue() const
{
    const std::size_t trigger =
        std::max(config_.reclaimThresholdBytes,
                 kReclaimGrowthFactor * liveAfterReclaim_.load());
    return logBytes_.load() > trigger;
}

void
SpecTx::reclaimerMain()
{
    // A commit's request only wakes the thread early: the trigger is
    // evaluated here, so a request left over from before the last
    // cycle cannot start another one.
    std::unique_lock<std::mutex> lock(reclaimMutex_);
    for (;;) {
        reclaimCv_.wait_for(lock, std::chrono::milliseconds(2), [&] {
            return stopReclaimer_ || reclaimRequested_;
        });
        if (stopReclaimer_)
            return;
        reclaimRequested_ = false;
        if (!reclaimDue())
            continue;
        lock.unlock();
        // Out of pool space or a poisoned line: the cycle has undone
        // its own allocations, the chain is unchanged, and the next
        // attempt waits until the growth trigger fires again.
        std::string failure; // a copy: the exception dies with its catch
        try {
            reclaimCycle();
        } catch (const pmem::PoolExhausted &err) {
            failure = err.what();
        } catch (const pmem::MediaError &err) {
            failure = err.what();
        }
        if (!failure.empty()) {
            liveAfterReclaim_.store(logBytes_.load());
            SpecTxMetrics::get().reclaimFailures.add();
            SPECPMT_WARN("reclaim cycle abandoned: %s", failure.c_str());
        }
        lock.lock();
    }
}

void
SpecTx::reclaimNow()
{
    reclaimCycle();
}

std::size_t
SpecTx::reclaimCycle()
{
    // Serialize explicit reclaimNow() calls against this runtime's
    // background thread; other runtimes (shards) cycle independently.
    std::lock_guard<std::mutex> cycle_guard(cycleMutex_);
    if (needsRecovery_)
        return 0;
    SPECPMT_TRACE_SPAN("reclaim_cycle", "reclaim");
    const auto cycle_start = std::chrono::steady_clock::now();

    // Phase 1: freeze the immutable prefix of every chain and build
    // the volatile freshness index: (addr,size) -> newest committed
    // timestamp (the hash table of Figure 5; volatile by design, as it
    // can be rebuilt after a crash).
    std::vector<std::vector<PmOff>> frozen(numThreads_);
    for (unsigned tid = 0; tid < numThreads_; ++tid) {
        auto &log = *logs_[tid];
        std::lock_guard<std::mutex> guard(log.mutex);
        frozen[tid].assign(log.blocks.begin(),
                           log.blocks.begin() +
                               static_cast<std::ptrdiff_t>(
                                   log.firstOpenBlock));
    }

    // Epoch mode: seal before compacting. Every group in the frozen
    // span committed before the freeze, so its epoch registration
    // happened-before this seal — after it, all of them are durable.
    // Compacting an *unsealed* relaxed commit would launder it into an
    // always-replayed compact record, silently promoting a
    // not-yet-acked transaction to durable-after-crash.
    if (config_.groupCommit)
        sealEpoch();

    // Phase 1b: group every thread's frozen segments into
    // transactions with the shared splog_walk rule. Only entries of
    // *committed* transactions may enter the freshness index or a
    // compact record — a torn multi-segment commit leaves
    // valid-checksum non-final segments embedded in the chain, and
    // treating them as committed would launder an uncommitted update
    // into recovery's replay set.
    DecodedLog decoded;
    std::vector<TxGrouper> groupers(numThreads_);
    /** Compaction covers frozen blocks [0, cutoff): never split a
     * transaction whose tail lives beyond the boundary. */
    std::vector<std::size_t> cutoff(numThreads_, 0);
    for (unsigned tid = 0; tid < numThreads_; ++tid) {
        SpecTxMetrics::get().reclaimBlocksWalked.add(frozen[tid].size());
        const std::size_t first = decoded.segments.size();
        walkBlocks(dev_, frozen[tid], decoded);
        const GroupedTx &open = groupers[tid].group(decoded, first);
        const auto block_of = [&](std::size_t seg) {
            return decoded.segments[seg].blockIndex;
        };
        // A trailing group may complete in the unfrozen tail: keep
        // its blocks out of the compacted span.
        std::size_t cut = open.segs.empty() ? frozen[tid].size()
                                            : block_of(open.segs.begin);
        const auto &groups = groupers[tid].committed();
        for (auto it = groups.rbegin(); it != groups.rend(); ++it) {
            if (block_of(it->segs.end - 1) >= cut)
                cut = std::min(cut, block_of(it->segs.begin));
            else
                break; // block indexes are monotone
        }
        cutoff[tid] = cut;
    }

    std::unordered_map<std::uint64_t, TxTimestamp> newest;
    for (unsigned tid = 0; tid < numThreads_; ++tid) {
        for (const auto &group : groupers[tid].committed()) {
            for (const auto &entry : decoded.entriesIn(group.entries)) {
                auto &ts = newest[entryKey(entry.dataOff, entry.size)];
                if (group.ts > ts)
                    ts = group.ts;
            }
        }
    }

    // Phase 2: per-thread compaction of blocks [0, cutoff).
    std::size_t freed_total = 0;
    DecodedLog fresh;
    for (unsigned tid = 0; tid < numThreads_; ++tid) {
        if (cutoff[tid] == 0)
            continue;

        // Measure span vs fresh bytes; build one compact record per
        // committed transaction that lies entirely within the span.
        std::size_t frozen_bytes = 0;
        for (std::size_t i = 0; i < cutoff[tid]; ++i)
            frozen_bytes += pool_.allocationSize(frozen[tid][i]);
        std::size_t fresh_bytes = 0;
        fresh.clear();
        for (const auto &group : groupers[tid].committed()) {
            if (decoded.segments[group.segs.end - 1].blockIndex >=
                cutoff[tid])
                continue;
            DecodedSegment compacted;
            compacted.timestamp = group.ts;
            compacted.final = true;
            compacted.entries.begin = fresh.entries.size();
            for (const auto &entry : decoded.entriesIn(group.entries)) {
                if (newest.at(entryKey(entry.dataOff, entry.size)) ==
                    group.ts) {
                    fresh.entries.push_back(entry);
                    fresh_bytes += entry.logBytes();
                }
            }
            compacted.entries.end = fresh.entries.size();
            // Epoch mode keeps a header-only tombstone even when every
            // entry is stale: deleting the whole transaction would
            // punch a hole into the timestamp sequence and stall the
            // frontier rule's dense-prefix scan below genuinely
            // durable transactions.
            if (!compacted.entries.empty() || config_.groupCommit) {
                fresh_bytes += sizeof(SegHead);
                fresh.segments.push_back(compacted);
            }
        }
        if (fresh_bytes + sizeof(BlockHeader) + kPoisonBytes >
            static_cast<std::size_t>(
                (1.0 - kCompactionMinSavings) *
                static_cast<double>(frozen_bytes))) {
            continue; // not worth rewriting
        }

        // Write the compact blocks. Nothing links to them before the
        // head switch, so a cycle that throws before it (pool
        // exhausted, media error) returns them to the pool.
        std::vector<PmOff> compact_blocks;
        struct Unspliced
        {
            SpecTx &self;
            const std::vector<PmOff> &blocks;
            bool spliced = false;
            ~Unspliced()
            {
                if (spliced)
                    return;
                for (PmOff block : blocks) {
                    self.noteLogBytes(-static_cast<std::ptrdiff_t>(
                        self.pool_.allocationSize(block)));
                    self.pool_.free(block);
                }
            }
        } unspliced{*this, compact_blocks};
        writeCompactRecords(fresh, compact_blocks);

        // The successor of the compacted span.
        PmOff successor = kPmNull;
        {
            auto &log = *logs_[tid];
            std::lock_guard<std::mutex> guard(log.mutex);
            successor = log.blocks[cutoff[tid]];
        }
        if (!compact_blocks.empty())
            storeNext(dev_, compact_blocks.back(), successor);

        // Fence 1: persist the compact blocks in full.
        for (PmOff block : compact_blocks) {
            dev_.clwbRange(block, pool_.allocationSize(block),
                           pmem::TrafficClass::Log);
        }
        dev_.sfence();

        // Fence 2: atomically splice by switching the log head; fix
        // the successor's back pointer in the same barrier.
        const PmOff new_head = compact_blocks.empty()
            ? successor
            : compact_blocks.front();
        dev_.clwb(storePrev(dev_, successor,
                            compact_blocks.empty() ? kPmNull
                                                   : compact_blocks.back()),
                  pmem::TrafficClass::Log);
        pool_.setRoot(txn::logHeadSlot(tid), new_head);
        unspliced.spliced = true;

        // Publish the new chain to the worker and free the old blocks.
        {
            auto &log = *logs_[tid];
            std::lock_guard<std::mutex> guard(log.mutex);
            std::vector<PmOff> rebuilt = compact_blocks;
            rebuilt.insert(rebuilt.end(),
                           log.blocks.begin() +
                               static_cast<std::ptrdiff_t>(
                                   cutoff[tid]),
                           log.blocks.end());
            log.firstOpenBlock = log.firstOpenBlock - cutoff[tid] +
                                 compact_blocks.size();
            log.blocks = std::move(rebuilt);
        }
        for (std::size_t i = 0; i < cutoff[tid]; ++i) {
            const PmOff block = frozen[tid][i];
            const std::size_t size = pool_.allocationSize(block);
            freed_total += size;
            noteLogBytes(-static_cast<std::ptrdiff_t>(size));
            pool_.free(block);
        }
    }
    liveAfterReclaim_.store(logBytes_.load());
    reclaimCycles_.fetch_add(1);
    auto &m = SpecTxMetrics::get();
    m.reclaimCycles.add();
    m.reclaimBytesFreed.add(freed_total);
    m.reclaimCycleNs.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - cycle_start)
            .count()));
    return freed_total;
}

void
SpecTx::writeCompactRecords(const DecodedLog &records,
                            std::vector<PmOff> &blocks)
{
    std::size_t tail_pos = 0;
    std::vector<std::uint8_t> value;
    for (const auto &seg : records.segments) {
        const auto entries = records.entriesIn(seg.entries);
        std::size_t seg_bytes = sizeof(SegHead);
        for (const auto &entry : entries)
            seg_bytes += entry.logBytes();
        const PmOff last = blocks.empty() ? kPmNull : blocks.back();
        if (last == kPmNull ||
            !fitsBlock(blockCapacity(dev_, last), tail_pos, seg_bytes)) {
            blocks.push_back(newBlock(last, seg_bytes));
            tail_pos = sizeof(BlockHeader);
        }

        const PmOff seg_pos = blocks.back() + tail_pos;
        PmOff cursor = seg_pos + sizeof(SegHead);
        for (const auto &entry : entries) {
            // A zero range moves as its head alone.
            const void *src = nullptr;
            if (!entry.zero) {
                value.resize(entry.size);
                entryValue(dev_, entry, value.data());
                src = value.data();
            }
            cursor += writeEntry(dev_, cursor, entry.dataOff, src,
                                 entry.size);
        }
        sealSegment(dev_, seg_pos, seg_bytes, seg.timestamp,
                    segFlagsWithCount(kSegFinal, 1),
                    static_cast<std::uint32_t>(entries.size()));
        tail_pos += seg_bytes;
    }
    if (!blocks.empty())
        poisonSlot(dev_, blocks.back() + tail_pos);
}

} // namespace specpmt::core
