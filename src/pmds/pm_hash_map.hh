/**
 * @file
 * A crash-consistent open-addressing hash map over the TxRuntime API.
 *
 * Keys and values are trivially copyable; each mutation is one
 * transaction (or joins the caller's open transaction via the *InTx
 * variants), so multi-word bucket updates are crash-atomic under any
 * recoverable runtime in this repository. Capacity is fixed at
 * creation; the map header lives in persistent memory so a re-opened
 * pool can attach() by base offset.
 */

#ifndef SPECPMT_PMDS_PM_HASH_MAP_HH
#define SPECPMT_PMDS_PM_HASH_MAP_HH

#include <optional>
#include <type_traits>

#include "common/hash.hh"
#include "common/logging.hh"
#include "txn/tx_runtime.hh"

namespace specpmt::pmds
{

/** Fixed-capacity persistent hash map; see file comment. */
template <typename Key, typename Value>
class PmHashMap
{
    static_assert(std::is_trivially_copyable_v<Key>);
    static_assert(std::is_trivially_copyable_v<Value>);

  public:
    /** Persistent header at the map's base offset. */
    struct Header
    {
        std::uint64_t magic;
        std::uint64_t buckets;
        std::uint64_t pad[2];
    };

    struct Bucket
    {
        std::uint8_t state; ///< 0 empty, 1 live, 2 tombstone
        std::uint8_t pad[7];
        Key key;
        Value value;
    };

    static constexpr std::uint64_t kMagic = 0x504D4D4150ull; // "PMMAP"

    /**
     * Allocate and initialize a map with @p buckets slots (a power of
     * two) through committed transactions of @p rt. Every bucket
     * starts empty (all zero bytes), zeroed by txZero in batches: one
     * transaction must fit the per-thread log areas of the PMDK and
     * SPHT runtimes, and under SpecTx each batch logs one head-only
     * zero range that guards its buckets until they are written.
     */
    static PmHashMap
    create(txn::TxRuntime &rt, std::uint64_t buckets)
    {
        SPECPMT_ASSERT((buckets & (buckets - 1)) == 0);
        auto &pool = rt.pool();
        const PmOff base = pool.alloc(sizeof(Header) +
                                      buckets * sizeof(Bucket));
        rt.txBegin(0);
        rt.txStoreT<Header>(0, base, {kMagic, buckets, {0, 0}});
        rt.txCommit(0);

        PmHashMap map(rt, base, buckets);
        constexpr std::uint64_t kBatch = 128;
        for (std::uint64_t start = 0; start < buckets;
             start += kBatch) {
            rt.txBegin(0);
            rt.txZero(0, map.bucketOff(start),
                      std::min(kBatch, buckets - start) * sizeof(Bucket));
            rt.txCommit(0);
        }
        return map;
    }

    /** Attach to an existing map at @p base (e.g. after recovery). */
    static PmHashMap
    attach(txn::TxRuntime &rt, PmOff base)
    {
        const auto header = rt.txLoadT<Header>(0, base);
        SPECPMT_ASSERT(header.magic == kMagic);
        return PmHashMap(rt, base, header.buckets);
    }

    /** The base offset (publish it via a pool root). */
    PmOff base() const { return base_; }

    /**
     * Insert or update inside its own transaction on thread @p tid
     * (concurrent callers must de-conflict with their own locking, as
     * everywhere else on the TxRuntime API).
     */
    bool
    put(ThreadId tid, const Key &key, const Value &value)
    {
        rt_->txBegin(tid);
        const bool ok = putInTx(tid, key, value);
        rt_->txCommit(tid);
        return ok;
    }

    /** Single-threaded convenience overload (thread 0). */
    bool put(const Key &key, const Value &value)
    {
        return put(0, key, value);
    }

    /** Insert or update inside the caller's open transaction. */
    bool
    putInTx(ThreadId tid, const Key &key, const Value &value)
    {
        const auto slot = findSlot(tid, key, true);
        if (!slot)
            return false;
        // Zeroed, pad included: the whole bucket reaches PM, and a
        // crash image must not depend on stale stack bytes.
        Bucket bucket{};
        bucket.state = 1;
        bucket.key = key;
        bucket.value = value;
        rt_->txStoreT<Bucket>(tid, bucketOff(slot->index), bucket);
        return true;
    }

    /** Single-threaded convenience overload (thread 0). */
    bool putInTx(const Key &key, const Value &value)
    {
        return putInTx(0, key, value);
    }

    /** Point lookup (usable inside or outside a transaction). */
    std::optional<Value>
    get(ThreadId tid, const Key &key)
    {
        const auto slot = findSlot(tid, key, false);
        if (!slot)
            return std::nullopt;
        return slot->bucket.value;
    }

    /** Single-threaded convenience overload (thread 0). */
    std::optional<Value> get(const Key &key) { return get(0, key); }

    /** Remove inside its own transaction; true if it was present. */
    bool
    erase(ThreadId tid, const Key &key)
    {
        rt_->txBegin(tid);
        const bool erased = eraseInTx(tid, key);
        rt_->txCommit(tid);
        return erased;
    }

    /** Single-threaded convenience overload (thread 0). */
    bool erase(const Key &key) { return erase(0, key); }

    /** Remove inside the caller's open transaction. */
    bool
    eraseInTx(ThreadId tid, const Key &key)
    {
        auto slot = findSlot(tid, key, false);
        if (!slot)
            return false;
        slot->bucket.state = 2;
        rt_->txStoreT<Bucket>(tid, bucketOff(slot->index), slot->bucket);
        return true;
    }

    /** Single-threaded convenience overload (thread 0). */
    bool eraseInTx(const Key &key) { return eraseInTx(0, key); }

    /** Visit every live (key, value) pair. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (std::uint64_t i = 0; i < buckets_; ++i) {
            const auto bucket = rt_->txLoadT<Bucket>(0, bucketOff(i));
            if (bucket.state == 1)
                fn(bucket.key, bucket.value);
        }
    }

    /** Number of live entries (linear scan). */
    std::uint64_t
    size()
    {
        std::uint64_t count = 0;
        forEach([&](const Key &, const Value &) { ++count; });
        return count;
    }

  private:
    PmHashMap(txn::TxRuntime &rt, PmOff base, std::uint64_t buckets)
        : rt_(&rt), base_(base), buckets_(buckets)
    {}

    PmOff
    bucketOff(std::uint64_t index) const
    {
        return base_ + sizeof(Header) + index * sizeof(Bucket);
    }

    /** A probed bucket: its index and the bytes the probe loaded. */
    struct Slot
    {
        std::uint64_t index;
        Bucket bucket;
    };

    /**
     * The live bucket holding @p key, or, with @p for_insert, the
     * first free one its probe passed, each with the bucket as loaded;
     * a hit costs one load.
     */
    std::optional<Slot>
    findSlot(ThreadId tid, const Key &key, bool for_insert)
    {
        std::uint64_t index = mix64(hashKey(key)) & (buckets_ - 1);
        std::optional<Slot> first_free;
        for (std::uint64_t probe = 0; probe < buckets_; ++probe) {
            const auto bucket = rt_->txLoadT<Bucket>(tid,
                                                     bucketOff(index));
            if (bucket.state == 1 && bucket.key == key)
                return Slot{index, bucket};
            if (bucket.state == 2 && !first_free)
                first_free = Slot{index, bucket};
            if (bucket.state == 0) {
                return for_insert
                    ? (first_free ? first_free
                                  : std::optional(Slot{index, bucket}))
                    : std::nullopt;
            }
            index = (index + 1) & (buckets_ - 1);
        }
        return for_insert ? first_free : std::nullopt;
    }

    static std::uint64_t
    hashKey(const Key &key)
    {
        // Byte-wise hash of the trivially copyable key.
        const auto *bytes = reinterpret_cast<const unsigned char *>(
            &key);
        std::uint64_t hash = 0;
        for (std::size_t i = 0; i < sizeof(Key); ++i)
            hash = hashCombine(hash, bytes[i]);
        return hash;
    }

    txn::TxRuntime *rt_;
    PmOff base_;
    std::uint64_t buckets_;
};

} // namespace specpmt::pmds

#endif // SPECPMT_PMDS_PM_HASH_MAP_HH
