/**
 * @file
 * Functional model of hardware SpecPMT's hybrid logging protocol
 * (Section 5) — the *correctness* counterpart of the timing model in
 * spec_hpmt_hw: it executes real transactions against the emulated
 * persistence domain so the Section 5.1.1 recoverability argument and
 * the Section 5.2 epoch reclamation protocol can be crash-tested like
 * the software runtimes.
 *
 * Protocol summary:
 *  - cold lines are undo-logged before their first in-transaction
 *    update, and their data is persisted at commit;
 *  - a page crossing the hotness threshold is bulk-copied into the
 *    log (the page record doubles as the undo log for later updates);
 *  - hot-line new values are logged at commit with one fence, and hot
 *    data is never explicitly persisted;
 *  - undo and page records reach the persistence domain through the
 *    hardware's dependency-ordered path (PmemDevice::adrPersist): no
 *    fence, but never later than a dependent data write;
 *  - recovery applies, in order: uncommitted page records,
 *    uncommitted undo records (newest first), then committed
 *    speculative records in global timestamp order;
 *  - epochs are reclaimed oldest-first after persisting the epoch's
 *    speculatively logged data (Section 5.2.1's three steps).
 *
 * One deliberate simplification: page hotness is tracked in an
 * unbounded volatile map rather than a TLB-capacity-bounded one (the
 * timing model covers TLB effects); hotness still uses the 3-bit
 * saturating counter and epoch IDs.
 */

#ifndef SPECPMT_SIM_HYBRID_SPEC_TX_HH
#define SPECPMT_SIM_HYBRID_SPEC_TX_HH

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "core/splog_format.hh"
#include "txn/tx_runtime.hh"
#include "txn/write_set.hh"

namespace specpmt::sim
{

/** Tunables for the hybrid-logging functional model. */
struct HybridConfig
{
    unsigned hotCounterMax = 7;
    std::size_t epochMaxBytes = 64 * 1024;
    unsigned epochMaxPages = 16;
};

/** Root slot holding thread @p tid's committed-sequence cell. */
constexpr unsigned
hybridSeqSlot(ThreadId tid)
{
    return 20 + tid;
}

/** Hybrid undo/speculative logging runtime (hardware protocol). */
class HybridSpecTx : public txn::TxRuntime
{
  public:
    HybridSpecTx(pmem::PmemPool &pool, unsigned num_threads,
                 const HybridConfig &config = {});

    const char *name() const override { return "hybrid-spec"; }

    void txBegin(ThreadId tid) override;
    void txStore(ThreadId tid, PmOff off, const void *src,
                 std::size_t size) override;
    void txCommit(ThreadId tid) override;

    /** Post-crash recovery: Section 5.1.1's three steps. */
    void recover() override;

    /** Live log bytes across all threads. */
    std::size_t logBytesInUse() const { return logBytes_; }

    /** Pages currently tracked as hot. */
    std::size_t hotPageCount() const;

    /** Completed epoch reclamations. */
    std::uint64_t epochsReclaimed() const { return epochsReclaimed_; }

    /** Bulk page copies performed. */
    std::uint64_t pageCopies() const { return pageCopies_; }

  private:
    /** Volatile page hotness state (cnt/EID of Figure 9). */
    struct PageState
    {
        bool hot = false;
        std::uint8_t counter = 0;
        EpochId epoch = 0;
    };

    /** An epoch: a chronological span of the log. */
    struct Epoch
    {
        EpochId id = 0;
        std::size_t bytes = 0;
        std::vector<std::uint64_t> pages; ///< pages logged in it
        std::size_t startBlockIndex = 0;  ///< first block it occupies
    };

    struct ThreadLog
    {
        std::vector<PmOff> blocks;
        std::size_t tailPos = 0;
        std::uint64_t txSeq = 0;
        bool inTx = false;
        txn::WriteSet coldLogged; ///< undo-covered bytes this tx
        txn::WriteSet coldWrites; ///< cold data to persist at commit
        txn::WriteSet hotWrites;  ///< hot data to spec-log at commit
        /** Epochs, oldest first; back() is open. */
        std::vector<Epoch> epochs;
        EpochId nextEpochId = 1;
        PmOff seqSlotOff = kPmNull; ///< committed-seq cell in PM
    };

    void initThreadLog(unsigned tid);
    /** Format a block (>= min_bytes room) at the tail of the chain, or
     * as its head when the chain is empty. */
    void attachBlock(ThreadLog &log, std::size_t min_bytes,
                     bool persist_now);
    /** Reserve @p bytes at the tail (chains a block if needed). */
    PmOff reserve(ThreadLog &log, std::size_t bytes, bool persist_now);

    /**
     * Write a sealed segment whose entries copy current device bytes
     * from the given ranges; returns its position.
     */
    PmOff emitSegment(ThreadLog &log, std::uint32_t flags,
                      TxTimestamp stamp,
                      const std::vector<std::pair<PmOff, std::size_t>>
                          &ranges,
                      bool persist_now);

    void maybeReclaim(ThreadId tid);
    void reclaimOldestEpoch(ThreadId tid);

    HybridConfig config_;
    std::vector<ThreadLog> logs_;
    std::unordered_map<std::uint64_t, PageState> pages_;
    std::size_t logBytes_ = 0;
    std::uint64_t epochsReclaimed_ = 0;
    std::uint64_t pageCopies_ = 0;
    bool needsRecovery_ = false;
};

} // namespace specpmt::sim

#endif // SPECPMT_SIM_HYBRID_SPEC_TX_HH
