/**
 * @file
 * Exhaustive crash-schedule exploration ("crashmatrix").
 *
 * The crash-consistency claim of every runtime here — the speculative
 * log is a redo log for committed transactions and an undo log for
 * interrupted ones — is only as strong as the set of crash points
 * actually tested. Hand-picked crash_after sweeps miss crashes inside
 * block-chain splices, mid-compaction and commit-fence races. This
 * module enumerates *every* persistence-event crash point of a
 * deterministic workload run instead of sampling a few:
 *
 *  1. a counting pass runs the workload once with a sentinel
 *     countdown and reads back how many persistence events the run
 *     consumed — that bounds the crash-point space [0, E);
 *  2. a sharded parallel driver replays the workload once per crash
 *     point k (the k-th persistence event throws SimulatedCrash),
 *     pruning points whose post-crash state — persistent image plus
 *     acknowledged-transaction shadow — is bit-identical to an
 *     already-explored point (recovery is deterministic, so equal
 *     inputs cannot produce new outcomes);
 *  3. every surviving point is power-cycled, recovered, and checked
 *     to land on a committed-transaction prefix.
 *
 * Each point is described by a *replay token*: one string carrying the
 * full cell (runtime x workload x crash policy x RNG seed x sizing)
 * plus the event id, so any failing schedule reproduces
 * deterministically from the token alone.
 *
 * The slot-array scenario formerly private to tests/crash_harness.hh
 * lives here as SlotScenario; KvService and the STAMP-analog workloads
 * plug in through the CrashWorkload interface.
 */

#ifndef SPECPMT_SIM_CRASH_EXPLORER_HH
#define SPECPMT_SIM_CRASH_EXPLORER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "pmem/crash_policy.hh"
#include "pmem/pmem_device.hh"
#include "pmem/pmem_pool.hh"
#include "txn/runtime_factory.hh"
#include "txn/tx_runtime.hh"

namespace specpmt::sim
{

/**
 * One cell of the crash matrix: everything needed to re-create a
 * workload run bit-for-bit. A cell plus an event id is a replay token.
 */
struct CrashCell
{
    std::string runtime = "spec";   ///< makeCrashRuntime() name
    std::string workload = "slots"; ///< workload factory name
    std::string policy = "nothing"; ///< crashModeName()
    double persistProbability = 0.5;
    std::uint64_t seed = 42;
    std::string fault = "none"; ///< "none" | "drop-fences"

    /** @name slots workload sizing (slots, maxStoresPerTx >= 1) */
    /// @{
    unsigned slots = 64;
    unsigned txCount = 16;
    unsigned maxStoresPerTx = 4;
    unsigned reclaimEvery = 0;
    /// @}

    /** @name kv workload sizing (kvShards, kvKeys >= 1) */
    /// @{
    unsigned kvShards = 2;
    std::uint64_t kvKeys = 48;
    unsigned kvOps = 24;
    /**
     * Nonzero = epoch group commit: mutations commit relaxed and the
     * workload seals every shard's epoch after this many mutations
     * (and at run end). Crash points then fall on epoch boundaries,
     * mid-epoch, and mid-seal; verification accepts the sealed state
     * plus any per-shard prefix of the unsealed mutations. Only
     * meaningful for group-commit-capable runtimes.
     */
    unsigned kvEpochOps = 0;
    /// @}

    /** STAMP-analog workload scale. */
    double scale = 0.05;

    /** Crash policy applied at crash point @p event. */
    pmem::CrashPolicy policyAt(std::uint64_t event) const;

    /** Serialize this cell + @p event as a replay token. */
    std::string token(std::uint64_t event) const;

    /**
     * Parse a token() string. On success fills @p cell and @p event
     * and returns true; on failure returns false with @p error set.
     */
    static bool parseToken(std::string_view token, CrashCell &cell,
                           std::uint64_t &event, std::string &error);
};

/** A saved post-crash device image, ready for offline inspection. */
struct CrashImageExport
{
    std::string name;     ///< e.g. "slots", "shard0"
    unsigned threads = 1; ///< runtime thread count behind the image
    std::vector<std::uint8_t> image;
};

/**
 * A workload instance the explorer can crash once. Construction runs
 * setup (and applies the cell's injected fault); the explorer then
 * calls run() exactly once, followed by pruneKey()/powerCycle()/
 * check() for points that survive pruning.
 */
class CrashWorkload
{
  public:
    virtual ~CrashWorkload() = default;

    /**
     * Arm a crash after @p crash_after persistence events and run the
     * workload. @return true if the simulated power failure fired.
     */
    virtual bool run(long crash_after) = 0;

    /** Persistence events consumed by the last run(). */
    virtual std::uint64_t eventsConsumed() const = 0;

    /**
     * 64-bit digest of the post-crash state under @p policy: the
     * persistent image(s) combined with the acknowledged-transaction
     * shadow. Two points with equal keys recover identically, so one
     * representative exploration covers both (the pruning rule).
     */
    virtual std::uint64_t
    pruneKey(const pmem::CrashPolicy &policy) const = 0;

    /** Power-cycle under @p policy, re-open and run recovery. */
    virtual void powerCycle(const pmem::CrashPolicy &policy) = 0;

    /** Consistency check; empty string on success. */
    virtual std::string check() = 0;

    /**
     * Optional phase 2: keep using the recovered pool and re-verify
     * (including a second crash). Empty string on success.
     */
    virtual std::string checkContinuation() { return {}; }

    /**
     * The post-crash persistent image(s) under @p policy, for
     * offline forensic analysis (tools/pminspect, crashmatrix
     * --explain). Meaningful after run() fired and before
     * powerCycle() mutates the devices. Default: none.
     */
    virtual std::vector<CrashImageExport>
    exportCrashImages(const pmem::CrashPolicy &policy) const
    {
        (void)policy;
        return {};
    }
};

/** Constructs a workload instance for a cell; throws on a bad cell. */
using CrashWorkloadFactory =
    std::function<std::unique_ptr<CrashWorkload>(const CrashCell &)>;

/** 64-bit digest of a crash image (word-folded FNV-1a). */
std::uint64_t hashCrashImage(const std::vector<std::uint8_t> &image);

/**
 * Build a runtime configured for deterministic crash testing: no
 * background threads, small log blocks (to force block chaining and
 * multi-segment transactions inside the crash window). Accepts the
 * recoverable factory names plus "hybrid" (the hardware
 * hybrid-logging protocol's functional model).
 */
std::unique_ptr<txn::TxRuntime> makeCrashRuntime(std::string_view name,
                                                 pmem::PmemPool &pool,
                                                 unsigned threads);

/** Runtime names makeCrashRuntime() accepts. */
const std::vector<std::string> &crashRuntimeNames();

/** True if makeCrashRuntime() accepts @p name. */
bool isCrashRuntimeName(std::string_view name);

/**
 * The randomized slot-array transactional scenario (promoted from the
 * old test-only crash harness): a slot array published via a pool
 * root, mutated by randomized transactions, with a shadow of the
 * committed and in-flight state for atomic-durability checking.
 * Usable directly (recovery-idempotence tests drive the phases by
 * hand) or through the explorer via makeSlotCrashWorkload().
 */
class SlotScenario
{
  public:
    explicit SlotScenario(const CrashCell &cell);

    /** Pool offset of slot @p slot. */
    PmOff slotOff(unsigned slot) const;

    /**
     * Run the workload with a crash armed after @p crash_after
     * persistence events; returns true if the crash fired.
     */
    bool runWithCrash(long crash_after);

    /** Persistence events consumed by the last runWithCrash(). */
    std::uint64_t eventsConsumed() const;

    /** Power-cycle the pool and run recovery on a fresh runtime. */
    void crashAndRecover(const pmem::CrashPolicy &policy);

    /**
     * Check atomic durability of the current device state: the
     * surviving state must equal the committed prefix, or the prefix
     * plus the *entire* in-flight transaction.
     * @return empty string on success, else a failure description.
     */
    std::string verifyAtomicity() const;

    /**
     * Accept whichever legal post-crash state actually survived as
     * the new committed baseline.
     */
    void rebaseline();

    /** Run @p count crash-free transactions (post-recovery phase). */
    void runMore(unsigned count, std::uint64_t seed);

    /** Exact-state check (crash-free phases). */
    std::string verifyExact() const;

    /** Digest of the committed/staged shadow (see pruneKey()). */
    std::uint64_t shadowHash() const;

    pmem::PmemDevice &device() { return dev_; }
    const pmem::PmemDevice &device() const { return dev_; }
    pmem::PmemPool &pool() { return pool_; }
    txn::TxRuntime &runtime() { return *runtime_; }

  private:
    CrashCell cell_;
    pmem::PmemDevice dev_;
    pmem::PmemPool pool_;
    std::unique_ptr<txn::TxRuntime> runtime_;
    PmOff dataOff_ = kPmNull;
    std::map<unsigned, std::uint64_t> committed_;
    std::map<unsigned, std::uint64_t> staged_;
    std::shared_ptr<pmem::CrashCountdown> countdown_;
};

/** CrashWorkload adapter over SlotScenario. */
std::unique_ptr<CrashWorkload>
makeSlotCrashWorkload(const CrashCell &cell);

/**
 * Factory covering the workloads this library can build by itself
 * (currently "slots"); throws std::runtime_error for other names.
 * Layers that own richer workloads (kv, STAMP analogs) wrap this.
 */
CrashWorkloadFactory builtinCrashWorkloadFactory();

/** Driver knobs orthogonal to the cell (they never enter tokens). */
struct ExploreOptions
{
    /** Explore only points with event % shardCount == shardIndex. */
    unsigned shardIndex = 0;
    unsigned shardCount = 1;
    /** Worker threads; 0 = pick from hardware concurrency. */
    unsigned jobs = 1;
    /**
     * Bound on points explored per invocation (0 = exhaustive);
     * points are selected evenly across the event space so bounded
     * cells still cover setup, steady state and teardown.
     */
    std::uint64_t maxPoints = 0;
    /** Also run the post-recovery continuation check per point. */
    bool verifyContinuation = false;
};

/** One failing crash schedule. */
struct CrashFailure
{
    std::uint64_t point = 0; ///< event id of the crash
    std::string token;       ///< full replay token
    std::string message;     ///< what the consistency check saw
};

/** Exploration outcome for one cell. */
struct ExploreReport
{
    /** Non-empty if the cell could not be explored at all. */
    std::string error;
    /** Persistence events of a full run == size of the point space. */
    std::uint64_t totalEvents = 0;
    /** Points selected after shard filtering and maxPoints bounding. */
    std::uint64_t candidatePoints = 0;
    /** Points fully explored (crashed, recovered, verified). */
    std::uint64_t explored = 0;
    /** Points skipped because their post-crash state was a duplicate. */
    std::uint64_t pruned = 0;
    /** Options the exploration ran under (echoed into the report). */
    ExploreOptions options;
    std::vector<CrashFailure> failures;

    /** All candidate points accounted for and none failed. */
    bool
    ok() const
    {
        return error.empty() && failures.empty() &&
               explored + pruned == candidatePoints;
    }

    /** Machine-readable report (the CI artifact). */
    std::string toJson(const CrashCell &cell) const;
};

/** Replay outcome for a single token. */
struct ReplayResult
{
    std::string error; ///< non-empty if the token did not parse/build
    CrashCell cell;
    std::uint64_t point = 0;
    bool fired = false;  ///< the armed crash actually fired
    std::string failure; ///< consistency-check result (empty = pass)
};

/** The exploration engine; see file comment. */
class CrashExplorer
{
  public:
    CrashExplorer(CrashCell cell, CrashWorkloadFactory factory);

    /** Enumerate, prune, recover and verify; see ExploreReport. */
    ExploreReport explore(const ExploreOptions &options = {});

    /** Deterministically re-run the single crash point of @p token. */
    static ReplayResult replay(std::string_view token,
                               const CrashWorkloadFactory &factory,
                               bool verify_continuation = false);

  private:
    CrashCell cell_;
    CrashWorkloadFactory factory_;
};

} // namespace specpmt::sim

#endif // SPECPMT_SIM_CRASH_EXPLORER_HH
