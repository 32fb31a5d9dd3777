/**
 * @file
 * Recovery audit: run the *real* recovery on a copy of a crashed
 * image and diff the runtime's actual decisions against the offline
 * inspector's independent classification ([[inspector]]).
 *
 * The inspector and the runtime implement the commit rule twice — the
 * inspector on purpose shares only the low-level walker, not the
 * recovery code path — so agreement between them is evidence that
 * what the report *says* recovery will do is what recovery *does*.
 * The audit checks three ways:
 *
 *   1. the runtime's replayed-transaction counter
 *      (specpmt_recovery_replayed_txs_total) advanced by exactly the
 *      inspector's COMMITTED count;
 *   2. re-walking the recovered pool's chains finds exactly the
 *      inspector's committed timestamps (debris truncated, committed
 *      prefix preserved);
 *   3. every byte covered by a committed entry equals the value the
 *      inspector predicts from an independent chronological replay of
 *      the committed log records.
 *
 * Recovery runs against a throwaway device built from the image
 * (pmem/image_io); the caller's image is never mutated. The freshly
 * wrapped pool's allocator knows nothing of pre-crash allocations, so
 * the audit raises the allocation watermark (PmemPool::reserveBelow)
 * before recovery: recovery-time allocations (fresh log blocks for
 * threads whose chain is gone) must not overwrite the evidence the
 * walkers still have to read.
 *
 * Supported for the speculative-logging runtimes ("spec", "spec-dp"),
 * whose recovery the inspector models (isAuditableRuntime()). Other
 * runtimes report supported=false rather than a fake verdict.
 */

#ifndef SPECPMT_FORENSIC_RECOVERY_AUDIT_HH
#define SPECPMT_FORENSIC_RECOVERY_AUDIT_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "forensic/inspector.hh"

namespace specpmt::forensic
{

/** Outcome of one audit; agrees == supported && no disagreements. */
struct AuditResult
{
    bool supported = false;
    bool agrees = false;
    /** Committed txs the runtime's recovery actually replayed. */
    std::uint64_t runtimeReplayedTxs = 0;
    /** Committed txs the inspector classified. */
    std::size_t inspectorCommitted = 0;
    /** Human-readable descriptions of every disagreement found. */
    std::vector<std::string> disagreements;

    /** One-paragraph deterministic summary. */
    std::string toText() const;

    /** JSON object mirroring the fields above. */
    std::string toJson() const;
};

/**
 * True if the audit models @p runtime_name's recovery: the inspector
 * only models the speculative log's, so "spec" and "spec-dp".
 */
bool isAuditableRuntime(std::string_view runtime_name);

/**
 * Audit @p runtime_name's recovery of @p image against @p report
 * (the inspector's output for the same image); see file comment.
 * @p threads must match the thread count the image was produced with
 * (it sizes the runtime, exactly as a real post-crash reopen would).
 */
AuditResult auditRecovery(const std::vector<std::uint8_t> &image,
                          const std::string &runtime_name,
                          unsigned threads,
                          const InspectReport &report);

} // namespace specpmt::forensic

#endif // SPECPMT_FORENSIC_RECOVERY_AUDIT_HH
