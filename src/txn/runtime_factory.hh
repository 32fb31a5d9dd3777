/**
 * @file
 * Name-based factory for transaction runtimes.
 *
 * The bench harness, the examples, the KV service and the CLIs all
 * need to turn a scheme name ("spec", "pmdk", ...) into a constructed
 * TxRuntime; this is the single place that switch lives. The header
 * sits in txn/ next to the interface it constructs, but because the
 * factory also builds the core-layer runtimes (SpecTx, HashLogTx) its
 * implementation is compiled into specpmt_core.
 */

#ifndef SPECPMT_TXN_RUNTIME_FACTORY_HH
#define SPECPMT_TXN_RUNTIME_FACTORY_HH

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "txn/tx_runtime.hh"

namespace specpmt::txn
{

/** Construction knobs shared by every scheme (unused ones ignored). */
struct RuntimeOptions
{
    /**
     * Start background helper threads (SPHT's replayer, SpecTx's
     * reclaimer). Crash-injection tests run single-threaded and turn
     * this off for determinism.
     */
    bool backgroundWorkers = true;
    /** SpecTx log block size in bytes (0 = scheme default). */
    std::size_t specLogBlockSize = 0;
    /**
     * Enable epoch group commit on runtimes that support it ("spec",
     * "spec-dp"): txCommitRelaxed() defers the commit fence into a
     * runtime-wide epoch sealed by sealEpoch(). Ignored by the other
     * schemes, whose groupCommitSupported() stays false.
     */
    bool groupCommit = false;
};

/**
 * Every scheme name makeRuntime() accepts:
 * "direct", "pmdk", "kamino", "spht", "spec", "spec-dp", "hashlog".
 */
const std::vector<std::string> &runtimeNames();

/** True if @p name is a known scheme name. */
bool isRuntimeName(std::string_view name);

/**
 * The subset of runtimeNames() whose recover() restores atomic
 * durability after a power failure: "pmdk", "spht", "spec",
 * "spec-dp". The others are performance baselines ("direct",
 * "kamino") or a rejected design strawman ("hashlog") and must not be
 * offered where crash recovery is relied upon (crash exploration,
 * serving state).
 */
const std::vector<std::string> &recoverableRuntimeNames();

/** True if @p name names a recoverable scheme. */
bool isRecoverableRuntimeName(std::string_view name);

/**
 * Construct the runtime named @p name over @p pool for
 * @p num_threads workers. Panics on an unknown name — validate user
 * input with isRuntimeName() first.
 */
std::unique_ptr<TxRuntime> makeRuntime(std::string_view name,
                                       pmem::PmemPool &pool,
                                       unsigned num_threads,
                                       const RuntimeOptions &options = {});

} // namespace specpmt::txn

#endif // SPECPMT_TXN_RUNTIME_FACTORY_HH
