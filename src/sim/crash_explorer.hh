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
 *     crashes its devices in place, and prunes points whose post-crash
 *     state — persistent image(s) plus acknowledged-transaction
 *     shadow — is bit-identical to an already-explored point
 *     (recovery is deterministic, so equal inputs cannot produce new
 *     outcomes);
 *  3. every surviving point is recovered and checked to land on a
 *     committed-transaction prefix.
 *
 * Each point is described by a *replay token*: one string carrying the
 * full cell (runtime x workload x crash policy x RNG seed x sizing)
 * plus the event id, so any failing schedule reproduces
 * deterministically from the token alone.
 *
 * Workloads (SlotScenario here, the KV service and the STAMP-analog
 * kernels in their own layers) implement CrashWorkload: they run,
 * crash in place, recover and check. Arming, catching the crash and
 * fingerprinting are crashWorkload()'s alone.
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

/** A device a crash workload persists to. */
struct CrashDevice
{
    std::string name; ///< e.g. "slots", "shard0"
    pmem::PmemDevice *device = nullptr;
    unsigned threads = 1; ///< runtime thread count behind its image
};

/**
 * A workload instance the explorer can crash once. Construction runs
 * setup (and applies the cell's injected fault); crashWorkload() then
 * arms the devices(), calls run() and crash(), and the caller
 * recover()s and check()s the points that survive pruning.
 */
class CrashWorkload
{
  public:
    virtual ~CrashWorkload() = default;

    /** The devices the workload persists to, in a fixed order. */
    virtual std::vector<CrashDevice> devices() = 0;

    /** Run the workload; a SimulatedCrash propagates to the caller. */
    virtual void run() = 0;

    /**
     * Power failure under @p policy: drop the runtimes, crash every
     * device in place and re-open the pools, without recovering.
     */
    virtual void crash(const pmem::CrashPolicy &policy) = 0;

    /** Rebuild the runtimes over the crashed pools and recover. */
    virtual void recover() = 0;

    /** Consistency check after recover(); empty string on success. */
    virtual std::string check() = 0;

    /**
     * Optional phase 2: keep using the recovered pool and re-verify
     * (including a second crash). Empty string on success.
     */
    virtual std::string checkContinuation() { return {}; }

    /**
     * Digest of the acknowledged-transaction shadow, so two points
     * with equal images but different acknowledged histories are not
     * pruned as one. 0 for workloads whose check reads only durable
     * state.
     */
    virtual std::uint64_t shadowHash() const { return 0; }
};

/** Constructs a workload instance for a cell; throws on a bad cell. */
using CrashWorkloadFactory =
    std::function<std::unique_ptr<CrashWorkload>(const CrashCell &)>;

/** 64-bit digest of @p device's persistent image (word-folded FNV-1a). */
std::uint64_t hashDeviceImage(const pmem::PmemDevice &device);

/** A workload crashed at one point, in place, not yet recovered. */
struct CrashedWorkload
{
    std::unique_ptr<CrashWorkload> workload;
    bool fired = false;       ///< the armed crash fired
    std::uint64_t events = 0; ///< persistence events the run consumed
    /**
     * The pruning key: every device's persistent image and the
     * workload's shadowHash(). Points with equal fingerprints recover
     * identically.
     */
    std::uint64_t fingerprint = 0;
};

/** A crash point beyond any bounded run: crashing there counts it. */
inline constexpr std::uint64_t kNoCrashPoint = 1ull << 40;

/**
 * The one crash step: build @p cell's workload, arm one countdown of
 * @p point events on all its devices for the calling thread, run it,
 * catch the SimulatedCrash, crash it in place under
 * cell.policyAt(@p point) and fingerprint the result. Throws what the
 * factory or the run throws.
 */
CrashedWorkload crashWorkload(const CrashCell &cell,
                              const CrashWorkloadFactory &factory,
                              std::uint64_t point);

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
 * Explored through builtinCrashWorkloadFactory(); the
 * recovery-idempotence tests drive its phases by hand.
 */
class SlotScenario final : public CrashWorkload
{
  public:
    explicit SlotScenario(const CrashCell &cell);

    std::vector<CrashDevice> devices() override;
    void run() override;
    void crash(const pmem::CrashPolicy &policy) override;
    void recover() override;

    /**
     * Check atomic durability of the current device state: the
     * surviving state must equal the committed prefix, or the prefix
     * plus the *entire* in-flight transaction.
     * @return empty string on success, else a failure description.
     */
    std::string check() override;

    std::string checkContinuation() override;

    /** Digest of the committed/staged shadow. */
    std::uint64_t shadowHash() const override;

    /**
     * Accept whichever legal post-crash state actually survived as
     * the new committed baseline.
     */
    void rebaseline();

    /** Run @p count crash-free transactions (post-recovery phase). */
    void runMore(unsigned count, std::uint64_t seed);

    /** Exact-state check (crash-free phases). */
    std::string verifyExact() const;

    pmem::PmemDevice &device() { return dev_; }
    pmem::PmemPool &pool() { return pool_; }

  private:
    /** Pool offset of slot @p slot. */
    PmOff slotOff(unsigned slot) const;

    CrashCell cell_;
    pmem::PmemDevice dev_;
    pmem::PmemPool pool_;
    std::unique_ptr<txn::TxRuntime> runtime_;
    PmOff dataOff_ = kPmNull;
    std::map<unsigned, std::uint64_t> committed_;
    std::map<unsigned, std::uint64_t> staged_;
};

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
