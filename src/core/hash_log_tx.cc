#include "core/hash_log_tx.hh"

#include <cstring>

#include "common/hash.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "obs/trace_context.hh"

namespace specpmt::core
{

namespace
{

/** Hash-log runtime counters, registered once per process. */
struct HashLogMetrics
{
    obs::Counter &begins;
    obs::Counter &commits;
    obs::Counter &bucketWrites;

    static HashLogMetrics &
    get()
    {
        auto &reg = obs::Registry::global();
        static HashLogMetrics m{
            reg.counter("specpmt_hash_log_tx_begins_total",
                        "hash-log transactions started"),
            reg.counter("specpmt_hash_log_tx_commits_total",
                        "hash-log transactions committed"),
            reg.counter("specpmt_hash_log_bucket_writes_total",
                        "in-place hash-log bucket records written"),
        };
        return m;
    }
};

} // namespace

HashLogTx::HashLogTx(pmem::PmemPool &pool, unsigned num_threads,
                     std::size_t num_buckets)
    : TxRuntime(pool, num_threads), numBuckets_(num_buckets),
      keys_(num_buckets, 0), txs_(num_threads)
{
    SPECPMT_ASSERT((num_buckets & (num_buckets - 1)) == 0);
    tableOff_ = pool_.allocAligned(num_buckets * sizeof(Bucket),
                                   kCacheLineSize);
}

PmOff
HashLogTx::bucketFor(PmOff chunk_off)
{
    std::size_t index = mix64(chunk_off) & (numBuckets_ - 1);
    for (std::size_t probe = 0; probe < numBuckets_; ++probe) {
        if (keys_[index] == chunk_off || keys_[index] == 0) {
            keys_[index] = chunk_off;
            return tableOff_ + index * sizeof(Bucket);
        }
        index = (index + 1) & (numBuckets_ - 1);
    }
    SPECPMT_FATAL("hash log table full (%zu buckets)", numBuckets_);
}

void
HashLogTx::txBegin(ThreadId tid)
{
    auto &tx = txs_.at(tid);
    SPECPMT_ASSERT(!tx.inTx);
    tx.inTx = true;
    tx.touched.clear();
    HashLogMetrics::get().begins.add();
}

void
HashLogTx::txStore(ThreadId tid, PmOff off, const void *src,
                   std::size_t size)
{
    auto &tx = txs_.at(tid);
    SPECPMT_ASSERT(tx.inTx);

    // One in-place record per kChunk-sized piece of the datum: the
    // memory-thrifty but locality-hostile layout from Section 4.
    const auto *bytes = static_cast<const std::uint8_t *>(src);
    for (std::size_t done = 0; done < size; done += kChunk) {
        const std::size_t piece = std::min(kChunk, size - done);
        const PmOff bucket_off = bucketFor(off + done);

        Bucket bucket;
        std::memset(&bucket, 0, sizeof(bucket));
        bucket.off = off + done;
        bucket.size = static_cast<std::uint32_t>(piece);
        std::memcpy(bucket.value, bytes + done, piece);
        dev_.storeT(bucket_off, bucket);
        tx.touched.insert(bucket_off);
        HashLogMetrics::get().bucketWrites.add();
        obs::traceContext().cost.logBytes += sizeof(Bucket);
    }
    obs::traceContext().cost.userBytes += size;

    dev_.store(off, src, size);
}

void
HashLogTx::txCommit(ThreadId tid)
{
    auto &tx = txs_.at(tid);
    SPECPMT_ASSERT(tx.inTx);
    tx.inTx = false;
    if (tx.touched.empty())
        return;

    // Persist the touched buckets — scattered lines, so unlike the
    // sequential log they see no XPLine write combining.
    {
        const std::uint64_t flushStartNs = SPECPMT_TRACE_BEGIN();
        const TxTimestamp ts = nextTimestamp();
        for (PmOff bucket_off : tx.touched) {
            dev_.storeT(bucket_off + offsetof(Bucket, timestamp), ts);
            dev_.clwb(bucket_off, pmem::TrafficClass::Log);
        }
        dev_.sfence();
        if (flushStartNs != 0 && obs::Tracer::global().enabled()) {
            const auto &tctx = obs::traceContext();
            obs::Tracer::global().record(
                "flush_batch", "flush", flushStartNs,
                obs::Tracer::now(),
                tctx.sampled ? tctx.traceId : 0);
        }
    }
    tx.touched.clear();
    HashLogMetrics::get().commits.add();
}

} // namespace specpmt::core
