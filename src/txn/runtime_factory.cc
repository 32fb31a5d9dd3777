#include "txn/runtime_factory.hh"

#include <algorithm>

#include "common/logging.hh"
#include "core/hash_log_tx.hh"
#include "core/spec_tx.hh"
#include "txn/spht_tx.hh"
#include "txn/undo_tx.hh"

namespace specpmt::txn
{

/** SpecTx implicit reclamation trigger, in live log bytes. */
constexpr std::size_t kSpecReclaimThresholdBytes = 8u << 20;
/** HashLogTx hash-table slot count. */
constexpr std::size_t kHashLogSlots = 1u << 18;

const std::vector<std::string> &
runtimeNames()
{
    static const std::vector<std::string> names = {
        "direct", "pmdk", "kamino", "spht",
        "spec",   "spec-dp", "hashlog",
    };
    return names;
}

bool
isRuntimeName(std::string_view name)
{
    const auto &names = runtimeNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

const std::vector<std::string> &
recoverableRuntimeNames()
{
    static const std::vector<std::string> names = {
        "pmdk", "spht", "spec", "spec-dp",
    };
    return names;
}

bool
isRecoverableRuntimeName(std::string_view name)
{
    const auto &names = recoverableRuntimeNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

std::unique_ptr<TxRuntime>
makeRuntime(std::string_view name, pmem::PmemPool &pool,
            unsigned num_threads, const RuntimeOptions &options)
{
    if (name == "direct")
        return std::make_unique<DirectTx>(pool, num_threads);
    if (name == "pmdk")
        return std::make_unique<PmdkUndoTx>(pool, num_threads);
    if (name == "kamino")
        return std::make_unique<KaminoTx>(pool, num_threads);
    if (name == "spht") {
        return std::make_unique<SphtTx>(pool, num_threads,
                                        options.backgroundWorkers);
    }
    if (name == "spec" || name == "spec-dp") {
        core::SpecTxConfig config;
        config.dataPersistOnCommit = (name == "spec-dp");
        config.backgroundReclaim = options.backgroundWorkers;
        if (options.specLogBlockSize != 0)
            config.logBlockSize = options.specLogBlockSize;
        config.reclaimThresholdBytes = kSpecReclaimThresholdBytes;
        config.groupCommit = options.groupCommit;
        return std::make_unique<core::SpecTx>(pool, num_threads,
                                              config);
    }
    if (name == "hashlog") {
        return std::make_unique<core::HashLogTx>(pool, num_threads,
                                                 kHashLogSlots);
    }
    SPECPMT_PANIC("unknown runtime name: %.*s",
                  static_cast<int>(name.size()), name.data());
}

} // namespace specpmt::txn
