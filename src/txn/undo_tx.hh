/**
 * @file
 * PMDK-style undo logging transactions — the paper's software baseline.
 *
 * Before each first-in-transaction update of a location, the old value
 * is appended to a per-thread persistent undo log and persisted with a
 * full persist barrier (clwb + sfence) *before* the in-place data
 * store executes. Commit flushes the data write set, fences, then
 * invalidates the log. This is the fence-per-update pattern whose cost
 * (~460% overhead on STAMP, Figure 1) motivates SpecPMT.
 */

#ifndef SPECPMT_TXN_UNDO_TX_HH
#define SPECPMT_TXN_UNDO_TX_HH

#include <cstdint>
#include <vector>

#include "txn/tx_runtime.hh"
#include "txn/write_set.hh"

namespace specpmt::txn
{

/**
 * Undo-logging runtime (PMDK analog).
 *
 * Per-thread persistent log area layout:
 *   [UndoLogHeader (one cache line)] [record bytes ...]
 * Record: [crc32:4][pad:4][off:8][size:8][old bytes, 8-aligned].
 * The crc is seeded with the header's transaction sequence number so
 * records left over from earlier transactions can never validate.
 */
class PmdkUndoTx : public TxRuntime
{
  public:
    /** Per-thread log area capacity (generous for STAMP-scale txs). */
    static constexpr std::size_t kLogCapacity = 1u << 22;

    PmdkUndoTx(pmem::PmemPool &pool, unsigned num_threads);

    const char *name() const override { return "pmdk"; }

    void txBegin(ThreadId tid) override;
    void txStore(ThreadId tid, PmOff off, const void *src,
                 std::size_t size) override;
    void txCommit(ThreadId tid) override;

    /** Abort the open transaction by applying its undo log. */
    void txAbort(ThreadId tid);

    void recover() override;

  private:
    struct Header
    {
        std::uint64_t txSeq;
        std::uint64_t active;
        std::uint64_t numBytes;
        std::uint64_t pad;
    };
    static_assert(sizeof(Header) <= kCacheLineSize);

    struct ThreadLog
    {
        PmOff headerOff = kPmNull; ///< header location in PM
        PmOff recordsOff = kPmNull; ///< first record byte
        std::uint64_t txSeq = 0;   ///< cached header.txSeq
        std::uint64_t numBytes = 0; ///< cached header.numBytes
        bool inTx = false;
        WriteSet writeSet;  ///< data bytes updated this tx
        WriteSet loggedSet; ///< data bytes already undo-logged this tx
    };

    /** Append and persist one undo record; returns bytes consumed. */
    void appendRecord(ThreadLog &log, PmOff off, std::size_t size);

    /** Parse + apply a thread's undo records in reverse; clear log. */
    void rollbackThread(unsigned tid);

    std::vector<ThreadLog> logs_;
};

/**
 * Kamino-Tx in its *upper bound* configuration, exactly as the paper
 * evaluates it (Section 7.1.2): every write intent's address is logged
 * and persisted (clwb + sfence) before the in-place update, but the
 * backup-copy maintenance that real Kamino-Tx needs for recovery is
 * omitted. Consequently this runtime is NOT recoverable — it exists to
 * reproduce the performance comparison, and recover() warns.
 */
class KaminoTx : public TxRuntime
{
  public:
    static constexpr std::size_t kLogCapacity = 1u << 21;

    KaminoTx(pmem::PmemPool &pool, unsigned num_threads);

    const char *name() const override { return "kamino-tx"; }

    void txBegin(ThreadId tid) override;
    void txStore(ThreadId tid, PmOff off, const void *src,
                 std::size_t size) override;
    void txCommit(ThreadId tid) override;
    void recover() override;

  private:
    struct ThreadLog
    {
        PmOff headerOff = kPmNull;
        PmOff recordsOff = kPmNull;
        std::uint64_t numBytes = 0;
        bool inTx = false;
        WriteSet writeSet;
        WriteSet loggedSet;
    };

    std::vector<ThreadLog> logs_;
};

} // namespace specpmt::txn

#endif // SPECPMT_TXN_UNDO_TX_HH
