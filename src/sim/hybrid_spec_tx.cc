#include "sim/hybrid_spec_tx.hh"

#include <algorithm>
#include <span>
#include <unordered_set>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace specpmt::sim
{

namespace
{

/** Hybrid-runtime counters, registered once per process. */
struct HybridMetrics
{
    obs::Counter &pagePromotions;
    obs::Counter &recoveries;

    static HybridMetrics &
    get()
    {
        auto &reg = obs::Registry::global();
        static HybridMetrics m{
            reg.counter("specpmt_hybrid_page_promotions_total",
                        "hybrid runtime cold->hot page snapshots"),
            reg.counter("specpmt_hybrid_recoveries_total",
                        "hybrid runtime recoveries"),
        };
        return m;
    }
};

} // namespace

using core::BlockHeader;
using core::DecodedSegment;
using core::entryBytes;
using core::kPoisonBytes;
using core::kSegFinal;
using core::kSegPage;
using core::kSegUndo;
using core::SegHead;
using core::walkChain;

// Log blocks are whole pages: a page snapshot of hot *data* must never
// cover log bytes (the hardware's log region is disjoint from
// transactional data by construction).
static_assert(core::kLogBlockSize % kPageSize == 0);

HybridSpecTx::HybridSpecTx(pmem::PmemPool &pool, unsigned num_threads,
                           const HybridConfig &config)
    : TxRuntime(pool, num_threads), config_(config), logs_(num_threads)
{
    if (pool_.getRoot(txn::logHeadSlot(0)) != kPmNull) {
        needsRecovery_ = true;
        return;
    }
    for (unsigned tid = 0; tid < num_threads; ++tid)
        initThreadLog(tid);
}

void
HybridSpecTx::initThreadLog(unsigned tid)
{
    auto &log = logs_[tid];
    log.blocks.clear();
    attachBlock(log, 0, /*persist_now=*/true);
    pool_.setRoot(txn::logHeadSlot(tid), log.blocks.front());

    log.seqSlotOff = pool_.alloc(sizeof(std::uint64_t));
    dev_.storeT<std::uint64_t>(log.seqSlotOff, 0);
    dev_.adrPersist(log.seqSlotOff, 8, pmem::TrafficClass::Meta);
    pool_.setRoot(hybridSeqSlot(tid), log.seqSlotOff);

    log.txSeq = 0;
    log.inTx = false;
    log.epochs.clear();
    log.epochs.push_back({log.nextEpochId++, 0, {}, 0});
}

void
HybridSpecTx::attachBlock(ThreadLog &log, std::size_t min_bytes,
                          bool persist_now)
{
    // Whole pages, page-aligned (see kLogBlockSize's assertion above).
    const PmOff block = pool_.allocAligned(
        core::logBlockBytes(min_bytes, core::kLogBlockSize, kPageSize),
        kPageSize);
    const std::size_t size = pool_.allocationSize(block);
    const PmOff old_tail = log.blocks.empty() ? kPmNull : log.blocks.back();
    core::formatBlock(dev_, block, size, old_tail);
    // The hardware log engine writes structure through the ordered
    // path; no fence needed.
    if (persist_now) {
        dev_.adrPersist(block, sizeof(BlockHeader) + kPoisonBytes);
        if (old_tail != kPmNull)
            dev_.adrPersist(old_tail + offsetof(BlockHeader, next),
                            sizeof(PmOff));
    }

    log.blocks.push_back(block);
    log.tailPos = sizeof(BlockHeader);
    logBytes_ += size;
}

PmOff
HybridSpecTx::reserve(ThreadLog &log, std::size_t bytes,
                      bool persist_now)
{
    if (!core::fitsBlock(core::blockCapacity(dev_, log.blocks.back()),
                         log.tailPos, bytes))
        attachBlock(log, bytes, persist_now);
    return log.blocks.back() + log.tailPos;
}

PmOff
HybridSpecTx::emitSegment(
    ThreadLog &log, std::uint32_t flags, TxTimestamp stamp,
    const std::vector<std::pair<PmOff, std::size_t>> &ranges,
    bool persist_now)
{
    std::size_t bytes = sizeof(SegHead);
    for (const auto &[off, size] : ranges)
        bytes += entryBytes(size);

    const PmOff pos = reserve(log, bytes, persist_now);
    PmOff cursor = pos + sizeof(SegHead);
    std::vector<std::uint8_t> value;
    for (const auto &[off, size] : ranges) {
        value.resize(size);
        dev_.load(off, value.data(), size);
        cursor += core::writeEntry(dev_, cursor, off, value.data(), size);
    }
    core::sealSegment(dev_, pos, bytes, stamp, flags,
                      static_cast<std::uint32_t>(ranges.size()));
    log.tailPos = pos + bytes - log.blocks.back();
    // Poison the next slot so walkers stop at the tail.
    core::poisonSlot(dev_, pos + bytes);

    if (persist_now)
        dev_.adrPersist(pos, bytes + kPoisonBytes);

    log.epochs.back().bytes += bytes;
    return pos;
}

void
HybridSpecTx::txBegin(ThreadId tid)
{
    SPECPMT_ASSERT(!needsRecovery_);
    auto &log = logs_.at(tid);
    SPECPMT_ASSERT(!log.inTx);
    log.inTx = true;
    ++log.txSeq;
    log.coldLogged.clear();
    log.coldWrites.clear();
    log.hotWrites.clear();
}

void
HybridSpecTx::txStore(ThreadId tid, PmOff off, const void *src,
                      std::size_t size)
{
    auto &log = logs_.at(tid);
    SPECPMT_ASSERT(log.inTx);
    const auto *bytes = static_cast<const std::uint8_t *>(src);

    // Process page by page: hotness is a page property.
    std::size_t done = 0;
    while (done < size) {
        const PmOff piece_off = off + done;
        const std::size_t in_page =
            std::min<std::size_t>(size - done,
                                  pageBase(piece_off) + kPageSize -
                                      piece_off);
        const std::uint64_t page = pageIndex(piece_off);
        PageState &state = pages_[page];

        if (!state.hot) {
            if (state.counter < config_.hotCounterMax)
                ++state.counter;
            if (state.counter >= config_.hotCounterMax) {
                // Cold -> hot: bulk-copy the page into the log; the
                // snapshot precedes this store, so it doubles as the
                // undo record for the rest of the transaction
                // (Section 5.1.1, invariant 2). The record carries a
                // global timestamp (for step-iii chronological replay
                // once its transaction commits) and a marker entry
                // binding it to this transaction's sequence number.
                dev_.storeT<std::uint64_t>(log.seqSlotOff, log.txSeq);
                emitSegment(log, kSegPage, nextTimestamp(),
                            {{log.seqSlotOff, sizeof(std::uint64_t)},
                             {pageBase(piece_off), kPageSize}},
                            /*persist_now=*/true);
                ++pageCopies_;
                HybridMetrics::get().pagePromotions.add();
                state.hot = true;
                state.epoch = log.epochs.back().id;
                log.epochs.back().pages.push_back(page);
            }
        }

        if (state.hot) {
            log.hotWrites.add(piece_off, in_page);
        } else {
            // Undo-log the first update of each cold byte range
            // through the ordered no-fence path, then update in
            // place; the data itself persists at commit.
            const auto gaps = log.coldLogged.uncovered(piece_off,
                                                       in_page);
            if (!gaps.empty()) {
                emitSegment(log, kSegUndo, log.txSeq, gaps,
                            /*persist_now=*/true);
                for (const auto &[gap_off, gap_size] : gaps)
                    log.coldLogged.add(gap_off, gap_size);
            }
            log.coldWrites.add(piece_off, in_page);
        }

        dev_.store(piece_off, bytes + done, in_page);
        done += in_page;
    }
}

void
HybridSpecTx::txCommit(ThreadId tid)
{
    auto &log = logs_.at(tid);
    SPECPMT_ASSERT(log.inTx);
    log.inTx = false;

    // Publish the committed sequence number through the commit
    // record itself (its replay rebuilds the cell).
    dev_.storeT<std::uint64_t>(log.seqSlotOff, log.txSeq);

    // The commit record carries the new values of the hot write set
    // plus the sequence-cell update.
    std::vector<std::pair<PmOff, std::size_t>> hot_ranges;
    log.hotWrites.forEachInterval([&](PmOff start, std::size_t len) {
        hot_ranges.emplace_back(start, len);
    });
    std::vector<std::pair<PmOff, std::size_t>> ranges = hot_ranges;
    ranges.emplace_back(log.seqSlotOff, sizeof(std::uint64_t));
    std::size_t seg_bytes = sizeof(SegHead);
    for (const auto &[off, size] : ranges)
        seg_bytes += entryBytes(size);

    const TxTimestamp ts = nextTimestamp();
    const PmOff pos =
        emitSegment(log, core::segFlagsWithCount(kSegFinal, 1), ts,
                    ranges, /*persist_now=*/false);

    // One flush batch + one fence: the commit record (checksum = the
    // commit flag) plus the cold write set's data lines.
    dev_.clwbRange(pos, seg_bytes + kPoisonBytes, pmem::TrafficClass::Log);
    log.coldWrites.forEachLine([&](std::uint64_t line) {
        dev_.clwb(line * kCacheLineSize, pmem::TrafficClass::Data);
    });
    dev_.sfence();

    // Epoch bookkeeping: note the pages this commit's records cover.
    auto &epoch = log.epochs.back();
    std::unordered_set<std::uint64_t> touched;
    for (const auto &[off, size] : hot_ranges) {
        for (std::uint64_t page = pageIndex(off);
             page <= pageIndex(off + size - 1); ++page) {
            touched.insert(page);
        }
    }
    for (std::uint64_t page : touched)
        epoch.pages.push_back(page);

    maybeReclaim(tid);
}

void
HybridSpecTx::maybeReclaim(ThreadId tid)
{
    auto &log = logs_[tid];
    Epoch &open = log.epochs.back();
    if (open.bytes <= config_.epochMaxBytes &&
        open.pages.size() <= config_.epochMaxPages) {
        return;
    }
    // startepoch: close the open epoch, begin a fresh one at the
    // current tail block.
    log.epochs.push_back(
        {log.nextEpochId++, 0, {}, log.blocks.size() - 1});
    while (log.epochs.size() > 2)
        reclaimOldestEpoch(tid);
}

void
HybridSpecTx::reclaimOldestEpoch(ThreadId tid)
{
    auto &log = logs_[tid];
    SPECPMT_ASSERT(log.epochs.size() >= 2);
    Epoch epoch = log.epochs.front();
    log.epochs.erase(log.epochs.begin());

    // Step 1: persist every page the epoch's records cover, so no
    // datum depends on the records afterwards.
    for (std::uint64_t page : epoch.pages)
        dev_.clwbRange(page * kPageSize, kPageSize,
                       pmem::TrafficClass::Data);
    dev_.sfence();

    // Step 2: clearepoch — pages whose EID matches go cold.
    for (std::uint64_t page : epoch.pages) {
        auto it = pages_.find(page);
        if (it != pages_.end() && it->second.hot &&
            it->second.epoch == epoch.id) {
            it->second = PageState{};
        }
    }

    // Step 3: release the epoch's log blocks (the chain prefix up to
    // where the successor epoch begins).
    const std::size_t cut = log.epochs.front().startBlockIndex;
    if (cut == 0) {
        ++epochsReclaimed_;
        return; // successor shares the tail block: nothing to free
    }
    const PmOff new_head = log.blocks[cut];
    dev_.adrPersist(core::storePrev(dev_, new_head, kPmNull),
                    sizeof(PmOff));
    pool_.setRoot(txn::logHeadSlot(tid), new_head);
    for (std::size_t i = 0; i < cut; ++i) {
        logBytes_ -= pool_.allocationSize(log.blocks[i]);
        pool_.free(log.blocks[i]);
    }
    log.blocks.erase(log.blocks.begin(),
                     log.blocks.begin() + static_cast<std::ptrdiff_t>(
                                              cut));
    for (auto &remaining : log.epochs)
        remaining.startBlockIndex -= cut;
    ++epochsReclaimed_;
}

std::size_t
HybridSpecTx::hotPageCount() const
{
    std::size_t count = 0;
    for (const auto &[page, state] : pages_) {
        if (state.hot)
            ++count;
    }
    return count;
}

void
HybridSpecTx::recover()
{
    SPECPMT_TRACE_SPAN("hybrid_recover", "recovery");
    HybridMetrics::get().recoveries.add();
    struct CommitRecord
    {
        TxTimestamp ts;
        core::IndexRange entries; ///< in decoded.entries
    };
    std::vector<CommitRecord> commits;
    core::DecodedLog decoded; // every chain, decoded once

    // A segment's kind, by the flags the hybrid log writes.
    const auto is_undo = [](const DecodedSegment &seg) {
        return (seg.flags & kSegUndo) != 0;
    };
    const auto is_page = [](const DecodedSegment &seg) {
        return (seg.flags & (kSegUndo | kSegPage)) == kSegPage;
    };
    const auto is_commit = [](const DecodedSegment &seg) {
        return (seg.flags & (kSegUndo | kSegPage)) == 0 &&
               (seg.flags & kSegFinal) != 0;
    };

    for (unsigned tid = 0; tid < numThreads_; ++tid) {
        const PmOff root = pool_.getRoot(txn::logHeadSlot(tid));
        const PmOff seq_slot = pool_.getRoot(hybridSeqSlot(tid));
        if (root == kPmNull)
            continue;

        const std::size_t first = decoded.segments.size();
        walkChain(dev_, root, decoded);
        const auto segs = std::span(decoded.segments).subspan(first);

        // A sequence-cell entry's value: a sequence number.
        const auto seq_value = [&](const core::DecodedEntry &entry) {
            std::uint64_t seq = 0;
            core::entryValue(dev_, entry, &seq);
            return seq;
        };

        // Committed sequence numbers are the values the commit
        // records wrote into this thread's sequence cell.
        std::unordered_set<std::uint64_t> committed_seqs;
        for (const auto &seg : segs) {
            if (!is_commit(seg))
                continue;
            seedTimestamp(seg.timestamp);
            for (const auto &entry : decoded.entriesIn(seg.entries)) {
                if (entry.dataOff == seq_slot && entry.size == 8)
                    committed_seqs.insert(seq_value(entry));
            }
        }

        // A page record's owning transaction is named by its marker
        // entry (the sequence-cell snapshot taken at creation).
        const auto page_seg_seq = [&](const DecodedSegment &seg) {
            for (const auto &entry : decoded.entriesIn(seg.entries)) {
                if (entry.dataOff == seq_slot && entry.size == 8)
                    return seq_value(entry);
            }
            return ~std::uint64_t{0};
        };

        std::vector<std::uint8_t> value;
        const auto apply = [&](const DecodedSegment &seg) {
            for (const auto &entry : decoded.entriesIn(seg.entries)) {
                value.resize(entry.size);
                core::entryValue(dev_, entry, value.data());
                dev_.store(entry.dataOff, value.data(), entry.size);
            }
        };

        // Step (i): uncommitted page records restore whole pages.
        for (const auto &seg : segs) {
            if (is_page(seg) && !committed_seqs.count(page_seg_seq(seg)))
                apply(seg);
        }
        // Step (ii): uncommitted undo records, newest first.
        for (auto it = segs.rbegin(); it != segs.rend(); ++it) {
            if (is_undo(*it) && !committed_seqs.count(it->timestamp))
                apply(*it);
        }
        // Committed speculative records — page snapshots and commit
        // records alike — replay chronologically in step (iii).
        for (const auto &seg : segs) {
            if (is_page(seg) && committed_seqs.count(page_seg_seq(seg)))
                commits.push_back({seg.timestamp, seg.entries});
        }
        for (const auto &seg : segs) {
            if (is_commit(seg))
                commits.push_back({seg.timestamp, seg.entries});
        }
    }

    // Step (iii): committed speculative records, chronologically,
    // across all threads.
    std::sort(commits.begin(), commits.end(),
              [](const CommitRecord &a, const CommitRecord &b) {
                  return a.ts < b.ts;
              });
    std::vector<std::uint8_t> value;
    for (const auto &commit : commits) {
        for (const auto &entry : decoded.entriesIn(commit.entries)) {
            value.resize(entry.size);
            core::entryValue(dev_, entry, value.data());
            dev_.store(entry.dataOff, value.data(), entry.size);
        }
    }

    // Make the recovered state durable, then start over with fresh
    // logs and all pages cold: the cold path undo-logs before any
    // future update, so coverage is re-established on demand.
    dev_.drainAll();
    pages_.clear();
    logBytes_ = 0;
    for (unsigned tid = 0; tid < numThreads_; ++tid)
        initThreadLog(tid);
    needsRecovery_ = false;
}

} // namespace specpmt::sim
