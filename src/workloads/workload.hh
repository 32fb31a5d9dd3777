/**
 * @file
 * STAMP-analog transactional workloads (Section 7.1.1).
 *
 * The paper evaluates on the STAMP suite ported to persistent memory
 * with libvmmalloc. STAMP itself is not available here, so each
 * workload reimplements the *transactional data-access pattern* of
 * its STAMP counterpart — the same data structures, write-set sizes
 * (Table 2), update counts, and compute/transaction ratios — as a
 * compact kernel over this repository's TxRuntime API. DESIGN.md
 * documents the substitution; `specfig table2` prints the
 * resulting per-workload statistics next to the paper's.
 *
 * Rules every workload obeys:
 *  - all durable writes flow through the runtime (so every scheme,
 *    including speculative logging, sees data enter the durable world
 *    under a committed transaction);
 *  - all durable reads use txLoad (so out-of-place schemes can
 *    redirect them);
 *  - the same seed produces the same transaction stream, so runtimes
 *    are compared on identical work and digests must match.
 */

#ifndef SPECPMT_WORKLOADS_WORKLOAD_HH
#define SPECPMT_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rand.hh"
#include "txn/tx_runtime.hh"

namespace specpmt::workloads
{

/** The nine evaluated applications. */
enum class WorkloadKind
{
    Genome,
    Intruder,
    KmeansLow,
    KmeansHigh,
    Labyrinth,
    Ssca2,
    VacationLow,
    VacationHigh,
    Yada,
};

/** Workload parameters. */
struct WorkloadConfig
{
    std::uint64_t seed = 1;
    /**
     * Transaction-count scale factor relative to the reference size
     * (1.0 for the benchmark harnesses; tests use smaller values).
     */
    double scale = 1.0;
};

/** Abstract STAMP-analog kernel. */
class Workload
{
  public:
    explicit Workload(const WorkloadConfig &config)
        : config_(config), rng_(config.seed)
    {}

    virtual ~Workload() = default;

    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** Application name as used in the paper's figures. */
    virtual const char *name() const = 0;

    /**
     * Allocate persistent structures and initialize them through
     * committed transactions (not part of the measured region).
     */
    virtual void setup(txn::TxRuntime &rt) = 0;

    /** The measured transactional phase. */
    virtual void run(txn::TxRuntime &rt) = 0;

    /**
     * Check the application-level invariant on the durable state
     * (e.g. "reserved seats equal customer bills"), reading through
     * the runtime. Returns true when consistent.
     */
    virtual bool verify(txn::TxRuntime &rt) = 0;

    /**
     * Order-independent digest of the logical durable state; equal
     * seeds must yield equal digests under every correct runtime.
     */
    virtual std::uint64_t digest(txn::TxRuntime &rt) = 0;

    /**
     * Application invariant that holds at *every* committed-state
     * boundary, checkable without this object's volatile tallies
     * (unlike verify()). Crash-injection tests call it on a freshly
     * recovered pool: if any transaction tore, it fails.
     */
    virtual bool verifyStructural(txn::TxRuntime &rt) = 0;

  protected:
    /** Scale a reference transaction count. */
    std::uint64_t
    scaled(std::uint64_t reference) const
    {
        const double value =
            static_cast<double>(reference) * config_.scale;
        return value < 1.0 ? 1 : static_cast<std::uint64_t>(value);
    }

    template <typename T>
    T
    loadT(txn::TxRuntime &rt, PmOff off)
    {
        return rt.txLoadT<T>(0, off);
    }

    template <typename T>
    void
    storeT(txn::TxRuntime &rt, PmOff off, const T &value)
    {
        rt.txStoreT<T>(0, off, value);
    }

    WorkloadConfig config_;
    Rng rng_;
};

/** Display name for a workload kind. */
const char *workloadKindName(WorkloadKind kind);

/** All workloads in the paper's figure order. */
const std::vector<WorkloadKind> &allWorkloads();

/** Factory. */
std::unique_ptr<Workload> makeWorkload(WorkloadKind kind,
                                       const WorkloadConfig &config);

} // namespace specpmt::workloads

#endif // SPECPMT_WORKLOADS_WORKLOAD_HH
