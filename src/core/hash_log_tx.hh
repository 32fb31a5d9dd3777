/**
 * @file
 * The hash-table speculative log alternative that Section 4 evaluates
 * and rejects: one log record per datum, located by an address-indexed
 * persistent hash table and overwritten in place on every update.
 *
 * This conserves memory (no stale records) but replaces the sequential
 * log-append pattern with random persistent-memory writes, which the
 * paper measures at a 3.2x slowdown versus the sequential design.
 * `specfig seq-vs-hash` reproduces that comparison. The class is a
 * *performance* strawman, faithful to the paper's framing; it is not
 * part of the recoverable-runtime set (in-place record overwrites are
 * not crash-atomic across a transaction without further machinery).
 */

#ifndef SPECPMT_CORE_HASH_LOG_TX_HH
#define SPECPMT_CORE_HASH_LOG_TX_HH

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "txn/tx_runtime.hh"

namespace specpmt::core
{

/** Hash-table-log variant of speculative logging (Section 4). */
class HashLogTx : public txn::TxRuntime
{
  public:
    /** One bucket is exactly one cache line. */
    struct Bucket
    {
        std::uint64_t off;   ///< chunk address, 0 = empty
        std::uint32_t size;
        std::uint32_t flags;
        std::uint64_t timestamp;
        std::uint8_t value[40];
    };
    static_assert(sizeof(Bucket) == kCacheLineSize);

    /** Value bytes stored per bucket. */
    static constexpr std::size_t kChunk = 40;

    HashLogTx(pmem::PmemPool &pool, unsigned num_threads,
              std::size_t num_buckets = 1u << 16);

    const char *name() const override { return "hash-splog"; }

    void txBegin(ThreadId tid) override;
    void txStore(ThreadId tid, PmOff off, const void *src,
                 std::size_t size) override;
    void txCommit(ThreadId tid) override;

  private:
    /** Find or claim the bucket for @p chunk_off (linear probing). */
    PmOff bucketFor(PmOff chunk_off);

    PmOff tableOff_;
    std::size_t numBuckets_;
    /** Volatile occupancy mirror to keep probing cheap and honest. */
    std::vector<std::uint64_t> keys_;
    struct TxState
    {
        bool inTx = false;
        std::unordered_set<PmOff> touched; ///< bucket lines to flush
    };
    std::vector<TxState> txs_;
};

} // namespace specpmt::core

#endif // SPECPMT_CORE_HASH_LOG_TX_HH
