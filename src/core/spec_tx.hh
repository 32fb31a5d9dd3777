/**
 * @file
 * Software SpecPMT (the paper's SpecSPMT): speculatively persistent
 * memory transactions, Sections 3 and 4.
 *
 * Inside a transaction every durable update is performed in place and
 * *speculatively logged* — the new value is appended to a per-thread
 * log with no flush or fence. Commit persists the transaction's log
 * segments with one flush batch and a single sfence; the checksum
 * written into each segment header is the commit flag. Data cache
 * lines are never explicitly persisted (the log doubles as a redo log
 * for committed and an undo log for interrupted transactions); the
 * SpecSPMT-DP variant additionally flushes the data write set at
 * commit to isolate the benefit of eliding data persistence
 * (Section 7.1.2).
 *
 * A background reclaimer (Section 4.2) keeps log memory bounded: it
 * freezes the immutable prefix of every thread's block chain, builds
 * a volatile address->newest-timestamp hash index, copies only fresh
 * entries into compact blocks, splices them in with exactly two
 * fences, and frees the stale blocks.
 */

#ifndef SPECPMT_CORE_SPEC_TX_HH
#define SPECPMT_CORE_SPEC_TX_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/splog_format.hh"
#include "obs/trace_context.hh"
#include "txn/tx_runtime.hh"
#include "txn/write_set.hh"

namespace specpmt::core
{

/** Tunables for the SpecSPMT runtime. */
struct SpecTxConfig
{
    /** Also persist the data write set at commit (SpecSPMT-DP). */
    bool dataPersistOnCommit = false;
    /** Log block size in bytes. */
    std::size_t logBlockSize = kLogBlockSize;
    /** Start the background reclamation thread. */
    bool backgroundReclaim = true;
    /**
     * Implicit reclamation trigger (Section 4.2's tunable threshold):
     * run a cycle when the live log exceeds this many bytes and
     * twice what the previous cycle left.
     */
    std::size_t reclaimThresholdBytes = 1u << 20;
    /**
     * Overwrite a datum's existing in-transaction log entry instead
     * of appending a new one (Section 4's "only the last update needs
     * a record"). Disabled only by the ablation benchmark.
     */
    bool dedupEntries = true;
    /**
     * Epoch group commit: txCommitRelaxed() defers the commit's flush
     * batch and fence into a runtime-wide epoch that sealEpoch()
     * persists with one shared fence. DRAM keeps serving the latest
     * view; the persistent image advances one sealed epoch at a time,
     * and recovery replays only transactions covered by the durable
     * epoch frontier. txCommit() keeps its ack-implies-durable
     * contract by sealing the epoch it joins before returning.
     */
    bool groupCommit = false;
};

/** Speculative-logging transaction runtime (SpecSPMT / SpecSPMT-DP). */
class SpecTx : public txn::TxRuntime
{
  public:
    SpecTx(pmem::PmemPool &pool, unsigned num_threads,
           const SpecTxConfig &config = {});
    ~SpecTx() override;

    const char *
    name() const override
    {
        return config_.dataPersistOnCommit ? "spec-spmt-dp" : "spec-spmt";
    }

    void txBegin(ThreadId tid) override;
    void txStore(ThreadId tid, PmOff off, const void *src,
                 std::size_t size) override;
    /** Zero in place and log one head-only zero range (DESIGN §19). */
    void txZero(ThreadId tid, PmOff off, std::size_t size) override;
    void txCommit(ThreadId tid) override;

    /** @name Epoch group commit (Section: DESIGN §12) */
    /// @{
    bool
    groupCommitSupported() const override
    {
        return config_.groupCommit;
    }
    std::uint64_t txCommitRelaxed(ThreadId tid) override;
    std::uint64_t sealEpoch() override;
    std::uint64_t
    lastSealedEpoch() const override
    {
        return epochLastSealed_.load(std::memory_order_acquire);
    }
    /// @}

    /**
     * Abort the open transaction during normal execution
     * (Section 5.3.2): restore the captured pre-images and drop the
     * staged log segments. Runs with media faults suppressed so the
     * rollback that recovers from a MediaError cannot itself be
     * interrupted by one.
     */
    void txAbort(ThreadId tid) override;

    /** Segments quarantined by this incarnation's recovery walks. */
    std::uint64_t
    quarantinedSegments() const override
    {
        return quarantinedSegments_;
    }

    /**
     * Post-crash recovery (Section 3.1): discard records of
     * uncommitted transactions, replay all fresh records in global
     * timestamp order, then re-initialize the log areas.
     */
    void recover() override;

    /** Drain background work, persist all data, stop the reclaimer. */
    void shutdown() override;

    /**
     * Adopt external durable data (Section 4.3.2): create a committed
     * snapshot record of [off, off+size) so later transactions on it
     * are revocable even though no prior transaction logged it.
     */
    void adoptExternal(ThreadId tid, PmOff off, std::size_t size);

    /**
     * Switch away from speculative logging (Section 4.3.1): persist
     * all durable data, then truncate the logs; afterwards another
     * crash-consistency mechanism may manage this pool. No transaction
     * may be running.
     */
    void switchMechanism();

    /** Run one synchronous reclamation/compaction cycle (all threads). */
    void reclaimNow();

    /** Bytes currently held by log blocks across all threads. */
    std::size_t logBytesInUse() const;

    /** High-water mark of logBytesInUse(). */
    std::size_t peakLogBytes() const { return peakLogBytes_.load(); }

    /** Number of completed reclamation cycles. */
    std::uint64_t reclaimCycles() const { return reclaimCycles_.load(); }

  private:
    /** An in-progress (uncommitted) segment of the open transaction. */
    struct OpenSeg
    {
        PmOff pos;          ///< SegHead location
        std::size_t bytes;  ///< segment size so far (incl. header)
        std::uint32_t numEntries;
    };

    struct ThreadLog
    {
        mutable std::mutex mutex; ///< guards blocks/tail vs reclaimer
        std::vector<PmOff> blocks; ///< chain, oldest -> newest
        /** blocks.back(). The owning thread reads it without the
         * mutex; the reclaimer rebuilds blocks under the mutex but
         * never changes its last element. */
        PmOff tailBlock = kPmNull;
        std::size_t tailPos = 0;   ///< append offset in tailBlock
        bool inTx = false;
        std::vector<OpenSeg> openSegs;
        /** (off,size) -> logged value position, for last-update dedup. */
        std::unordered_map<std::uint64_t, PmOff> entryIndex;
        /** Flush set accumulated since the last commit fence. */
        std::vector<std::pair<PmOff, std::size_t>> pendingFlush;
        /** Pre-images for fast abort (volatile, Section 5.3.2). */
        std::vector<std::pair<PmOff, std::vector<std::uint8_t>>> preImages;
        txn::WriteSet captured;  ///< bytes with a pre-image this tx
        txn::WriteSet writeSet;  ///< data bytes updated this tx (DP)
        /** Index of the first block containing an open segment. */
        std::size_t firstOpenBlock = 0;
        /** Set by txAbort: the rewound tail bytes may sit on a
         * permanently failing media line, so the next transaction
         * must open in a fresh block instead of re-serving them. */
        bool retireTailOnBegin = false;
        /** Trace-span start for the open transaction (0 = tracing off). */
        std::uint64_t traceStartNs = 0;
        /** Thread PM-cost snapshot at txBegin; commit publishes the
         * delta into the specpmt_pm_* accounting metrics. */
        obs::PmCost costAtBegin;
    };

    ThreadLog &threadLog(ThreadId tid) { return *logs_.at(tid); }

    /** Allocate and format a block with room for @p payload bytes of
     * records, chained after @p prev unless it is kPmNull (stores
     * only); the bytes count as live log. */
    PmOff newBlock(PmOff prev, std::size_t payload);

    /** Chain a fresh tail block (>= min_bytes room) for the next
     * commit fence to persist. */
    void attachBlock(ThreadLog &log, std::size_t min_bytes);

    /** Open a new segment at the tail (attaching a block if needed). */
    void openSegment(ThreadLog &log);

    /** Append one entry (assumes a segment is open); a null @p src
     * appends a zero range, the head alone. */
    void appendEntry(ThreadLog &log, PmOff off, const void *src,
                     std::size_t size);

    /**
     * Capture the pre-images of [off, off+size) this transaction has
     * not yet captured. @return true when it had already stored some
     * of those bytes.
     */
    bool capturePreImages(ThreadLog &log, PmOff off, std::size_t size);

    /** Write zero poison at the tail so walkers stop there. */
    void poisonTail(ThreadLog &log);

    void initFreshLog(unsigned tid);

    /** One reclamation cycle; returns bytes freed. */
    std::size_t reclaimCycle();

    /**
     * Compaction's writer: each segment of @p records becomes one
     * final single-segment record in fresh blocks, chained in order
     * and pushed onto the empty @p blocks as they are formatted (so a
     * throw leaves every one there for the caller to free); the last
     * record is followed by the tail poison. Stores only.
     */
    void writeCompactRecords(const DecodedLog &records,
                             std::vector<PmOff> &blocks);

    /** The reclamation trigger shared by commits and the poll. */
    bool reclaimDue() const;

    void reclaimerMain();

    void noteLogBytes(std::ptrdiff_t delta);

    /** A flush range deferred into the open epoch. */
    struct EpochRange
    {
        PmOff off;
        std::size_t size;
        pmem::TrafficClass cls;
    };

    /** Checksum-seal the open segments (stores only) + tail poison. */
    void sealSegments(ThreadLog &log, TxTimestamp ts);

    /**
     * The one commit path behind txCommit() and txCommitRelaxed():
     * rewind a read-only transaction, else seal the segments and
     * either fence them now (strict mode) or register them in the
     * open epoch (group-commit mode). inTx is cleared at a single
     * commit point after every device access that can throw, so a
     * MediaError leaves the transaction open for txAbort() and, in
     * epoch mode, the epoch untouched. Returns the epoch ticket
     * joined (0 = read-only or already durable).
     */
    std::uint64_t commitStaged(ThreadId tid);

    /** Close the open transaction: drop its per-transaction state.
     * pendingFlush survives (an abort's unlink and poison stores ride
     * the next commit's flush batch). */
    void endTx(ThreadLog &log);

    /** Create (or reuse) the persistent frontier record; epoch mode. */
    void initEpochFrontier(bool adopt_existing);

    /** Durably note the window of the epoch being sealed. */
    void storeEpochFrontier(TxTimestamp first, TxTimestamp last);

    SpecTxConfig config_;
    std::vector<std::unique_ptr<ThreadLog>> logs_;
    /** Set when the constructor found a pre-existing (crashed) pool. */
    bool needsRecovery_ = false;
    /** Media-corrupted segments quarantined by recover(). */
    std::uint64_t quarantinedSegments_ = 0;

    std::atomic<std::size_t> logBytes_{0};
    std::atomic<std::size_t> peakLogBytes_{0};
    std::atomic<std::uint64_t> reclaimCycles_{0};

    /** Live log bytes the last completed (or failed) cycle left. */
    std::atomic<std::size_t> liveAfterReclaim_{0};
    /** Serializes this runtime's cycles (reclaimer vs reclaimNow). */
    std::mutex cycleMutex_;
    std::mutex reclaimMutex_;
    std::condition_variable reclaimCv_;
    bool reclaimRequested_ = false;
    bool stopReclaimer_ = false;
    std::thread reclaimer_;

    /**
     * Epoch state (group-commit mode only). epochMutex_ makes
     * {timestamp allocation, seal stores, flush-range registration}
     * one atomic step, which is what keeps allocated timestamps dense
     * and epoch membership timestamp-contiguous — the invariants the
     * recovery frontier rule rests on. epochSealMutex_ serializes
     * sealers and is always taken first.
     */
    std::mutex epochMutex_;
    std::mutex epochSealMutex_;
    std::vector<EpochRange> epochPending_;
    std::uint64_t epochPendingTxs_ = 0;
    TxTimestamp epochFirstTs_ = 0;
    TxTimestamp epochLastTs_ = 0;
    std::uint64_t epochOpenTicket_ = 1;
    /** Trace ids of sampled members of the open epoch (guarded by
     * epochMutex_, capped at kEpochTraceMembers); the sealer emits one
     * epoch_seal span per id so a sampled request's waterfall shows
     * the shared fence it rode. */
    static constexpr std::size_t kEpochTraceMembers = 64;
    std::vector<std::uint64_t> epochTraceIds_;
    std::atomic<std::uint64_t> epochLastSealed_{0};
    /** Device offset of the persistent frontier record (epoch mode). */
    PmOff epochFrontierOff_ = kPmNull;
};

} // namespace specpmt::core

#endif // SPECPMT_CORE_SPEC_TX_HH
