/**
 * @file
 * The persistent transaction runtime interface shared by every crash
 * consistency mechanism in this repository: the paper's SpecPMT, the
 * baselines it compares against (PMDK-style undo, Kamino-Tx, SPHT),
 * the no-consistency baseline, and the trace recorder that feeds the
 * hardware simulator.
 *
 * The API mirrors the classical persistent memory transaction model
 * (Figure 3): tx_begin / in-place updates / tx_commit, plus a
 * post-crash recover() entry point. Concurrency control (isolation)
 * is the application's job, as in the paper (Section 4.3.3): callers
 * must de-conflict transactions with their own locking.
 */

#ifndef SPECPMT_TXN_TX_RUNTIME_HH
#define SPECPMT_TXN_TX_RUNTIME_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "common/types.hh"
#include "pmem/pmem_pool.hh"

namespace specpmt::txn
{

/** Root directory slot holding thread @p tid 's log-area head. */
constexpr unsigned
logHeadSlot(ThreadId tid)
{
    return 1 + tid;
}

/**
 * Root directory slot pointing at the epoch frontier record of a pool
 * operated in group-commit mode (kPmNull on strict-only pools). The
 * slot doubles as the persistent "this pool uses epochs" flag that
 * recovery and the offline inspector consult to pick the replay rule.
 */
constexpr unsigned kEpochFrontierSlot = 39;

/** First root directory slot free for application data roots. */
constexpr unsigned kAppRootSlotBase = 40;

/**
 * Abstract atomic-durability runtime.
 *
 * All persistent writes performed between txBegin(tid) and
 * txCommit(tid) on the same thread are crash-atomic: after recover(),
 * either all or none of them are observable (DirectTx and the
 * Kamino-Tx upper-bound variant intentionally break this — see their
 * headers).
 */
class TxRuntime
{
  public:
    /**
     * @param pool         Pool the runtime logs into / operates on.
     * @param num_threads  Number of worker threads that will run
     *                     transactions (thread ids 0..n-1).
     */
    TxRuntime(pmem::PmemPool &pool, unsigned num_threads)
        : pool_(pool), dev_(pool.device()), numThreads_(num_threads)
    {}

    virtual ~TxRuntime() = default;

    TxRuntime(const TxRuntime &) = delete;
    TxRuntime &operator=(const TxRuntime &) = delete;

    /** Short scheme name, e.g. "pmdk", "spec-spmt". */
    virtual const char *name() const = 0;

    /** Open a transaction on thread @p tid. */
    virtual void txBegin(ThreadId tid) = 0;

    /** Transactional in-place store of @p size bytes at @p off. */
    virtual void txStore(ThreadId tid, PmOff off, const void *src,
                         std::size_t size) = 0;

    /**
     * Transactional zeroing of @p size bytes at @p off: crash-atomic
     * with the transaction's other stores, like txStore of that many
     * zero bytes. Default: zeros stored through txStore in chunks.
     * SpecTx overrides it to log one head-only zero range instead of
     * the zeros themselves (DESIGN §19).
     */
    virtual void
    txZero(ThreadId tid, PmOff off, std::size_t size)
    {
        for (std::size_t done = 0; done < size;
             done += sizeof(kZeroChunk)) {
            txStore(tid, off + done, kZeroChunk,
                    std::min(sizeof(kZeroChunk), size - done));
        }
    }

    /** Transactional load (redirectable by out-of-place schemes). */
    virtual void
    txLoad(ThreadId tid, PmOff off, void *dst, std::size_t size)
    {
        (void)tid;
        dev_.load(off, dst, size);
    }

    /** Commit the open transaction on thread @p tid. */
    virtual void txCommit(ThreadId tid) = 0;

    /**
     * Abort the open transaction on thread @p tid, rolling back its
     * speculative writes where the scheme supports rollback. This is
     * the error boundary the serving tier unwinds through when a
     * media fault (pmem::MediaError) or log-space exhaustion
     * (pmem::PoolExhausted) surfaces mid-transaction. Default: no-op
     * for schemes without abort support.
     */
    virtual void txAbort(ThreadId tid) { (void)tid; }

    /**
     * Log segments quarantined by this runtime's recovery walks as
     * media-corrupted (CRC-failing but provably not a torn tail).
     * Surfaces in /healthz and pminspect; 0 for schemes without a
     * quarantining walker.
     */
    virtual std::uint64_t quarantinedSegments() const { return 0; }

    /** @name Epoch group commit (optional capability) */
    /// @{

    /** True if this runtime can defer durability into epochs. */
    virtual bool groupCommitSupported() const { return false; }

    /**
     * Commit the open transaction on thread @p tid *without* waiting
     * for durability: the transaction is immediately visible (DRAM
     * latest view) and joins the current epoch, which a later
     * sealEpoch() makes durable with one shared flush+fence batch.
     *
     * @return The epoch ticket the commit joined; the transaction is
     *         durable once lastSealedEpoch() >= ticket. Runtimes
     *         without group-commit support fall back to a strict
     *         commit and return 0 (already durable).
     */
    virtual std::uint64_t
    txCommitRelaxed(ThreadId tid)
    {
        txCommit(tid);
        return 0;
    }

    /**
     * Flush and fence every relaxed commit not yet sealed (the epoch
     * fence). Safe to call from any thread, including one that never
     * runs transactions.
     *
     * @return The highest sealed epoch ticket.
     */
    virtual std::uint64_t sealEpoch() { return 0; }

    /** Highest epoch ticket whose members are durable. */
    virtual std::uint64_t lastSealedEpoch() const { return 0; }

    /// @}

    /**
     * Post-crash recovery: restore the pool's data to the most recent
     * prefix-consistent committed state using the persistent logs.
     * Called on a freshly re-opened pool.
     */
    virtual void recover() {}

    /**
     * Clean shutdown: drain background threads and persist all durable
     * data (the Section 4.3.1 mechanism-switch flush).
     */
    virtual void shutdown() { dev_.drainAll(); }

    /** Charge non-memory computation on the virtual clock. */
    virtual void
    compute(ThreadId tid, SimNs ns)
    {
        (void)tid;
        dev_.compute(ns);
    }

    /** @name Typed convenience wrappers */
    /// @{
    template <typename T>
    void
    txStoreT(ThreadId tid, PmOff off, const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        txStore(tid, off, &value, sizeof(T));
    }

    template <typename T>
    T
    txLoadT(ThreadId tid, PmOff off)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T value;
        txLoad(tid, off, &value, sizeof(T));
        return value;
    }
    /// @}

    pmem::PmemPool &pool() { return pool_; }
    pmem::PmemDevice &device() { return dev_; }
    unsigned numThreads() const { return numThreads_; }

  protected:
    /** Zeros that txZero implementations store from, a chunk at a time. */
    static constexpr std::uint8_t kZeroChunk[4096] = {};

    /** Monotonic commit timestamp source (the rdtscp analog). */
    TxTimestamp
    nextTimestamp()
    {
        return timestampCounter_.fetch_add(1, std::memory_order_relaxed)
            + 1;
    }

    /**
     * Advance the timestamp source past @p seen. The real hardware
     * timestamp counter is monotonic across process restarts; recovery
     * re-establishes that invariant for this software analog so that
     * post-recovery records always sort after surviving ones.
     */
    /** Highest timestamp handed out (or seeded) so far. */
    TxTimestamp
    currentTimestamp() const
    {
        return timestampCounter_.load(std::memory_order_relaxed);
    }

    void
    seedTimestamp(TxTimestamp seen)
    {
        TxTimestamp current = timestampCounter_.load();
        while (seen > current &&
               !timestampCounter_.compare_exchange_weak(current, seen)) {
        }
    }

    pmem::PmemPool &pool_;
    pmem::PmemDevice &dev_;
    unsigned numThreads_;

  private:
    std::atomic<TxTimestamp> timestampCounter_{0};
};

/**
 * The crash-consistency-free baseline: plain in-place stores, no
 * logging, no flushing. This is the "version without persistent
 * memory transactions" that Figure 1's overheads are measured
 * against.
 */
class DirectTx : public TxRuntime
{
  public:
    using TxRuntime::TxRuntime;

    const char *name() const override { return "direct"; }

    void txBegin(ThreadId) override {}

    void
    txStore(ThreadId, PmOff off, const void *src,
            std::size_t size) override
    {
        dev_.store(off, src, size);
    }

    void txCommit(ThreadId) override {}
};

} // namespace specpmt::txn

#endif // SPECPMT_TXN_TX_RUNTIME_HH
