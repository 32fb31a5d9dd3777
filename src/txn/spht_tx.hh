/**
 * @file
 * SPHT-style redo logging transactions (Castro et al., FAST'21), the
 * state-of-the-art software comparator in the paper's Figure 12.
 *
 * Transactions execute against a *volatile working copy* of the data
 * (SPHT's "volatile data snapshot"); each commit persists one redo
 * record — the write intents plus a checksummed, timestamped header —
 * with a single persist barrier (SPHT's forward-linking commit). A
 * background replayer thread applies committed records to the
 * persistent data copy off the critical path and recycles log space.
 *
 * The differences from SpecPMT that the paper calls out are visible
 * in this implementation: every load/store is indirected through the
 * working copy, data reaches PM only via the replayer (out-of-place),
 * and log records cannot be reclaimed until the replayer has persisted
 * the data they describe.
 */

#ifndef SPECPMT_TXN_SPHT_TX_HH
#define SPECPMT_TXN_SPHT_TX_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "txn/tx_runtime.hh"

namespace specpmt::txn
{

/** Redo-logging runtime with a background log replayer (SPHT analog). */
class SphtTx : public TxRuntime
{
  public:
    /** Per-thread persistent log area capacity. */
    static constexpr std::size_t kLogCapacity = 1u << 22;

    /**
     * @param pool          Pool to operate on.
     * @param num_threads   Worker thread count.
     * @param start_replayer  Set false in unit tests that drive the
     *                        replayer synchronously via drainReplayer().
     */
    SphtTx(pmem::PmemPool &pool, unsigned num_threads,
           bool start_replayer = true);

    ~SphtTx() override;

    const char *name() const override { return "spht"; }

    void txBegin(ThreadId tid) override;
    void txStore(ThreadId tid, PmOff off, const void *src,
                 std::size_t size) override;
    void txLoad(ThreadId tid, PmOff off, void *dst,
                std::size_t size) override;
    void txCommit(ThreadId tid) override;

    void recover() override;
    void shutdown() override;

    /** Synchronously apply every queued committed record (tests). */
    void drainReplayer();

  private:
    struct Entry
    {
        PmOff off;
        std::uint32_t size;
        std::vector<std::uint8_t> value;
    };

    struct Segment
    {
        unsigned tid;
        std::uint64_t endBytes; ///< log tail after this record
        std::vector<Entry> entries;
    };

    struct ThreadLog
    {
        PmOff headerOff = kPmNull;
        PmOff recordsOff = kPmNull;
        std::uint64_t generation = 0;
        std::uint64_t tailBytes = 0;
        std::atomic<std::uint64_t> appliedBytes{0};
        bool inTx = false;
        std::vector<Entry> staged;
    };

    void replayerMain();
    void applySegment(const Segment &segment);
    void initThreadLog(unsigned tid);
    /** Recycle the log area when fully applied; may wait for space. */
    void ensureSpace(ThreadLog &log, std::size_t bytes);

    std::vector<std::unique_ptr<ThreadLog>> logs_;

    std::mutex queueMutex_;
    std::condition_variable queueCv_;
    std::condition_variable spaceCv_;
    std::deque<Segment> queue_;
    bool stop_ = false;
    std::thread replayer_;

    /** The volatile working copy of the whole pool. */
    std::vector<std::uint8_t> mirror_;
    /** The device's latency model, read once: timing() takes the
     * device lock to fold pending load charges. */
    const pmem::TimingParams timingParams_ = dev_.timing().params();
};

} // namespace specpmt::txn

#endif // SPECPMT_TXN_SPHT_TX_HH
