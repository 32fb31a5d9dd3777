/**
 * @file
 * A sharded, multi-threaded, crash-consistent key-value service — the
 * first serving-shaped layer over the transaction runtimes.
 *
 * The keyspace is hash-partitioned across N independent shards. Each
 * shard owns a full persistence stack: an emulated PmemDevice, a
 * PmemPool, a pluggable TxRuntime (any name the runtime factory
 * accepts: SpecTx, PMDK-style undo, SPHT, ...) and a PmHashMap
 * backing store. Every mutation is one shard-local transaction, so it
 * is crash-atomic under any recoverable runtime; multiPut() spans
 * shards as one transaction per touched shard, committed shard-
 * locally in ascending shard order. put(), erase() and multiPut() are
 * thin wrappers over executeShardBatch(), the one path that locks,
 * opens, applies and commits a transaction, so a media fault or an
 * exhausted pool degrades every entry point the same way (Io /
 * read-only mode) instead of escaping to the caller.
 *
 * Isolation follows the paper's Section 4.3.3 contract (the runtime
 * provides atomic durability, the application de-conflicts): each
 * shard has a striped LockTable, and every mutation holds the stripes
 * of the keys it touches. Because the backing store is open-
 * addressing, a probe chain can cross stripe boundaries, so mutations
 * that claim a new bucket (inserts) additionally serialize on a
 * per-shard structure lock; pure updates and tombstoning deletes only
 * ever write the key's own live bucket, which no other stripe holder
 * touches, so they need just their stripe. Reads probe without locks:
 * bucket loads and stores are individually atomic at the device
 * level, so a racing get() observes each bucket entirely before or
 * entirely after a concurrent mutation.
 *
 * The constructor builds (or reattaches) the shards, and recover()
 * rebuilds them after a simulated power failure, in parallel: one
 * thread per shard, the shards' logs being fully independent. A shard
 * that fails there does not take the process down; its exception
 * reaches the caller once every shard's thread has finished.
 *
 * The service is the flight recorder's only writer (DESIGN §10): every
 * fresh shard pool gets a one-page ring before its runtime exists,
 * and the shard journals its recoveries, its media-fault aborts and
 * its entry into read-only mode there. A reattached pool keeps the
 * ring it was created with; a pool created without one stays without.
 */

#ifndef SPECPMT_KV_KV_SERVICE_HH
#define SPECPMT_KV_KV_SERVICE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "forensic/flight_recorder.hh"
#include "pmds/pm_hash_map.hh"
#include "pmem/crash_policy.hh"
#include "pmem/pmem_device.hh"
#include "pmem/pmem_pool.hh"
#include "txn/lock_table.hh"
#include "txn/runtime_factory.hh"

namespace specpmt::obs
{
class Gauge;
} // namespace specpmt::obs

namespace specpmt::kv
{

/** Keys are 64-bit; key 0 is valid. */
using KvKey = std::uint64_t;

/** Fixed-size value payload: one cache line. */
struct KvValue
{
    std::uint64_t words[8];

    bool
    operator==(const KvValue &other) const
    {
        for (unsigned i = 0; i < 8; ++i) {
            if (words[i] != other.words[i])
                return false;
        }
        return true;
    }

    /**
     * A self-describing value: word 0 ties the value to its key so
     * verification can detect cross-key corruption, the rest derive
     * from @p payload so torn values are detectable too.
     */
    static KvValue tagged(KvKey key, std::uint64_t payload);

    /** True if this value was built by tagged() for @p key. */
    bool checkTag(KvKey key) const;
};

/** Service construction parameters. */
struct KvServiceConfig
{
    /** Number of independent shards (each with its own pool+runtime). */
    unsigned shards = 4;
    /** Client threads that will call the service (thread ids 0..n-1). */
    unsigned threads = 4;
    /** Runtime scheme name (see txn::runtimeNames()). */
    std::string runtime = "spec";
    /** Buckets per shard hash map (a power of two). */
    std::uint64_t bucketsPerShard = 1u << 14;
    /** Emulated device capacity per shard. */
    std::size_t shardPoolBytes = 64u << 20;
    /**
     * put()'s group-commit auto-seal threshold: a relaxed put seals
     * its shard's epoch once this many relaxed mutations have
     * committed on the shard since the service last sealed it (0 =
     * never). Only meaningful when runtimeOptions.groupCommit is on.
     */
    unsigned epochMaxOps = 64;
    /** Options forwarded to the runtime factory. */
    txn::RuntimeOptions runtimeOptions;
    /**
     * When non-empty, every shard's emulated device is backed by an
     * mmap'ed file `<pmDir>/shard-<n>.pm` so its persistent image
     * survives the PROCESS (SIGKILL included), not just a simulated
     * crash. Opening a directory that already holds matching images
     * reattaches them: the constructor runs each shard's recovery and
     * re-adopts the hash map instead of creating a fresh one — the
     * restart path a chaos harness drives.
     */
    std::string pmDir;
};

/**
 * Durability contract of a mutating call. Strict = the call returns
 * only after its transaction's commit fence (ack implies durable).
 * Relaxed = the call returns once the transaction is visible in the
 * DRAM-latest view and enrolled in its shard's open epoch; it is
 * durable once the shard's sealed epoch reaches the returned ticket.
 */
enum class Durability : std::uint8_t
{
    Strict,
    Relaxed,
};

/** One operation in a shard batch (see executeShardBatch). */
struct BatchOp
{
    enum class Kind : std::uint8_t
    {
        Get,
        Put,
        Erase,
    };

    Kind kind = Kind::Get;
    KvKey key = 0;
    /** Put payload (ignored for Get/Erase). */
    KvValue value{};
};

/** Outcome of one BatchOp. */
struct BatchOpResult
{
    /** Get: found; Put: stored (false = map full); Erase: removed. */
    bool ok = false;
    /** The mutation was refused because its shard is in read-only
     * degraded mode (ok is false; nothing was staged). */
    bool rejectedReadOnly = false;
    /** The value read (Get with ok == true only). */
    KvValue value{};
};

/** Outcome of one executeShardBatch call. */
enum class BatchStatus : std::uint8_t
{
    /** Ops executed; per-op results are valid (mutations on a
     * read-only shard report rejectedReadOnly individually). */
    Ok,
    /** A key did not map to the shard; nothing executed. */
    BadRoute,
    /** A media fault (poisoned read / write EIO) interrupted the
     * run. Any open transaction was aborted cleanly — nothing the
     * run staged was applied — and per-op results are meaningless.
     * Exception: a strict run on a group-commit runtime whose epoch
     * seal faulted has committed; the next seal makes it durable. */
    Io,
    /** The shard ran out of log space mid-run: the transaction was
     * aborted cleanly and the shard flipped into read-only degraded
     * mode. Nothing was applied; reads keep working on retry. */
    ReadOnly,
};

/**
 * The key-to-shard map every routing layer (service internals, network
 * clients doing shard-affine routing) must agree on.
 */
unsigned shardOfKey(KvKey key, unsigned shards);

/** Point-in-time per-shard accounting. */
struct ShardSnapshot
{
    pmem::DeviceStats device;       ///< stores/clwbs/fences since clear
    std::uint64_t pmLineWrites = 0; ///< media line writes
    SimNs simNs = 0;                ///< shard device virtual clock
    std::uint64_t committedTxs = 0; ///< transactions committed
};

/** The sharded KV service; see file comment. */
class KvService
{
  public:
    explicit KvService(const KvServiceConfig &config);

    KvService(const KvService &) = delete;
    KvService &operator=(const KvService &) = delete;

    unsigned numShards() const { return config_.shards; }
    unsigned numThreads() const { return config_.threads; }
    const KvServiceConfig &config() const { return config_; }

    /** Shard responsible for @p key. */
    unsigned shardOf(KvKey key) const;

    /**
     * Point lookup on client thread @p tid. nullopt means the key is
     * absent or unreadable: a media fault on its probe counts as a
     * media abort (no transaction is open), marks the shard degraded
     * and journals media_fault.
     */
    std::optional<KvValue> get(ThreadId tid, KvKey key);

    /**
     * Insert or update; a one-op executeShardBatch(). Returns false
     * (without staging anything) when the shard map is full — size
     * bucketsPerShard for the keyspace — or when the batch did not
     * return Ok: a media fault aborted it (Io) or the shard is, or
     * just went, read-only.
     *
     * With Durability::Relaxed on a group-commit runtime the commit
     * fence is deferred into the shard's epoch; the put seals it once
     * sealShardEpochIfDue(shard, config().epochMaxOps) says so. When
     * @p epoch_ticket is non-null it receives the epoch ticket the
     * transaction joined (0 = already durable).
     */
    bool put(ThreadId tid, KvKey key, const KvValue &value,
             Durability durability = Durability::Strict,
             std::uint64_t *epoch_ticket = nullptr);

    /** Delete; a one-op executeShardBatch(). True if it removed a
     * present key (false on Io or a read-only shard too). */
    bool erase(ThreadId tid, KvKey key);

    /**
     * Write a batch of pairs: one transaction per touched shard,
     * committed shard-locally in ascending shard order. Each shard's
     * part is all-or-nothing under a crash; the batch as a whole is
     * not atomic across shards (a crash can persist a prefix of the
     * shard commits). Each shard's part is one executeShardBatch();
     * returns false if any part failed (map full, Io, read-only).
     */
    bool multiPut(ThreadId tid,
                  const std::vector<std::pair<KvKey, KvValue>> &items);

    /**
     * Execute an ordered batch of operations whose keys all map to
     * @p shard, with every mutation in ONE crash-atomic shard
     * transaction — the group-commit primitive the network event
     * loops amortize the commit fence with: N pipelined mutations
     * cost one flush+fence instead of N. It is also the only code
     * path that locks and runs a transaction: put(), erase() and
     * multiPut() call it. Mutations hold their keys' lock stripes;
     * the shard structure lock is added only when a Put may claim a
     * bucket (its key is absent at probe time, or the run also
     * erases).
     *
     * Ops run strictly in order inside the transaction, so a Get
     * issued after a Put of the same key in the same batch observes
     * the new value (pipelined read-your-writes); results are only
     * reported to the caller after the commit fence, so acking them
     * never races durability. A batch with no mutations skips the
     * transaction entirely (zero fences).
     *
     * Returns false (executing nothing) if any key does not map to
     * @p shard. @p results is resized to ops.size().
     *
     * With Durability::Relaxed on a group-commit runtime the batch's
     * transaction joins the shard's open epoch instead of fencing;
     * @p epoch_ticket (when non-null) receives the ticket to wait on
     * before acking the results (0 = already durable / read-only).
     * A relaxed run that got a ticket adds its mutations to the
     * shard's relaxed count but does not seal: the caller owns the
     * seal policy, via sealShardEpochIfDue() and sealShardEpoch().
     *
     * Faults never escape: a pmem::MediaError aborts the transaction
     * and returns Io; pmem::PoolExhausted aborts it, flips the shard
     * into read-only mode and returns ReadOnly. SimulatedCrash
     * propagates (the process is gone).
     */
    BatchStatus executeShardBatch(
        ThreadId tid, unsigned shard,
        const std::vector<BatchOp> &ops,
        std::vector<BatchOpResult> &results,
        Durability durability = Durability::Strict,
        std::uint64_t *epoch_ticket = nullptr);

    /** @name Degraded-mode state (media faults, log exhaustion) */
    /// @{

    /** True once @p shard refuses mutations (log space exhausted or
     * forced via setShardReadOnly). Reads keep working. */
    bool shardReadOnly(unsigned shard) const;

    /** Operator/test hook: force @p shard in or out of read-only
     * degraded mode. */
    void setShardReadOnly(unsigned shard, bool read_only);

    /** True when @p shard is read-only, has aborted transactions on
     * media faults, or recovered past quarantined log segments —
     * anything /healthz should surface as degraded. */
    bool shardDegraded(unsigned shard) const;

    /** Log segments @p shard's recovery quarantined as media-corrupt. */
    std::uint64_t shardQuarantined(unsigned shard) const;

    /** Transactions of @p shard aborted cleanly on a media fault. */
    std::uint64_t shardMediaAborts(unsigned shard) const;

    /// @}

    /** @name Epoch group commit */
    /// @{

    /** True if the shard runtimes defer durability into epochs. */
    bool groupCommitEnabled() const;

    /** Seal @p shard 's open epoch and zero its relaxed count;
     * returns the sealed ticket. */
    std::uint64_t sealShardEpoch(unsigned shard);

    /**
     * The size trigger: seal @p shard 's epoch when at least
     * @p max_ops relaxed mutations have committed on it, from any
     * client thread, since the service last sealed it. Of concurrent
     * callers that see the count reach @p max_ops, one seals. True if
     * this call sealed.
     */
    bool sealShardEpochIfDue(unsigned shard, std::uint64_t max_ops);

    /** Highest sealed (durable) epoch ticket of @p shard. */
    std::uint64_t shardSealedEpoch(unsigned shard) const;

    /**
     * Seal lag of @p shard: relaxed epoch tickets issued but not yet
     * covered by a sealed epoch (0 when fully durable or when group
     * commit is off). This is the health metric /healthz bounds —
     * unbounded lag means acks are parking forever.
     */
    std::uint64_t shardEpochLag(unsigned shard) const;

    /** Seal every shard's open epoch (run drain / quiesce points). */
    void sealAllEpochs();

    /// @}

    /**
     * Simulated power failure on every shard: drops the runtimes,
     * collapses each device to its crash image under @p policy, and
     * re-opens the pools. Call recover() before serving again.
     */
    void crash(const pmem::CrashPolicy &policy);

    /**
     * Post-crash recovery: rebuild every shard's runtime and replay
     * its logs, one recovery thread per shard. Rethrows the first
     * failure in shard order (e.g. pmem::MediaError from a poisoned
     * map header) after every shard's thread has been joined.
     */
    void recover();

    /** Clean shutdown of every shard runtime. */
    void shutdown();

    /**
     * Arm one crash countdown *shared by every shard device* for the
     * calling thread, so @p ops indexes the service-global
     * persistence-event sequence. Negative disarms.
     */
    void armCrashAll(long ops);

    /** Per-shard accounting snapshot. */
    ShardSnapshot shardSnapshot(unsigned shard) const;

    /** Zero every shard's device counters and virtual clock. */
    void clearStats();

    /** Direct device access (tests arm crashes / inspect images). */
    pmem::PmemDevice &shardDevice(unsigned shard);
    const pmem::PmemDevice &shardDevice(unsigned shard) const;

    /** Direct runtime access (tests drain background helpers). */
    txn::TxRuntime &shardRuntime(unsigned shard);

  private:
    using Map = pmds::PmHashMap<KvKey, KvValue>;

    struct Shard
    {
        std::unique_ptr<pmem::PmemDevice> device;
        std::unique_ptr<pmem::PmemPool> pool;
        std::unique_ptr<txn::TxRuntime> runtime;
        std::optional<Map> map;
        txn::LockTable locks;
        /** Serializes bucket-claiming mutations (see file comment). */
        std::mutex structureLock;
        std::atomic<std::uint64_t> committedTxs{0};
        /** Relaxed mutations committed since the service last sealed
         * this shard (see sealShardEpochIfDue). */
        std::atomic<std::uint64_t> relaxedSinceSeal{0};
        /** Highest relaxed epoch ticket issued (shardEpochLag). */
        std::atomic<std::uint64_t> lastRelaxedTicket{0};
        /** Cached `specpmt_epoch_seal_lag{shard=}` gauge. */
        obs::Gauge *sealLagGauge = nullptr;
        /** Mutations refused: read-only degraded mode (see
         * executeShardBatch / PoolExhausted). */
        std::atomic<bool> readOnly{false};
        /** Transactions aborted cleanly on pmem::MediaError. */
        std::atomic<std::uint64_t> mediaAborts{0};
        /** The shard's journal (see file comment); disabled when the
         * pool was created without a ring. */
        forensic::FlightRecorder flight;
    };

    /** Pseudo-address used to stripe-lock @p key. */
    static PmOff lockAddr(KvKey key);

    /** Rebuild @p shard from its pool: the journal re-attached, a
     * fresh runtime, recovery between two journal records, and the
     * map re-attached (post-crash and pm-dir reattach). */
    void recoverShard(Shard &shard);

    /** Media-fault catch path: abort the open tx (if @p in_tx) with
     * faults suppressed, journal the event, bump the abort
     * accounting. */
    void noteMediaAbort(unsigned shard_index, Shard &shard,
                        ThreadId tid, std::uint64_t fault_off,
                        std::uint64_t fault_kind, bool in_tx);

    /** Flip @p shard into read-only degraded mode (idempotent). */
    void enterReadOnly(unsigned shard_index, Shard &shard,
                       ThreadId tid, std::uint64_t bytes_needed);

    /** Track the highest relaxed ticket + publish the seal-lag gauge. */
    void noteTicket(unsigned shard_index, Shard &shard,
                    std::uint64_t ticket);

    /** Refresh shard's `specpmt_epoch_seal_lag{shard=}` gauge. */
    void publishSealLag(unsigned shard_index) const;

    KvServiceConfig config_;
    std::vector<std::unique_ptr<Shard>> shards_;
};

} // namespace specpmt::kv

#endif // SPECPMT_KV_KV_SERVICE_HH
