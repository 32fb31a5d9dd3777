/**
 * @file
 * Offline forensic inspector for saved (typically just-crashed) pmem
 * pool images — the analysis half of the post-mortem layer.
 *
 * inspectImage() opens an image strictly read-only and, *without*
 * running recovery, walks every per-thread speculative-log chain
 * (shared walker: core/splog_format + core/splog_walk) and classifies
 * every transaction found in the logs:
 *
 *   COMMITTED — a run of consecutive same-timestamp segments closed
 *               by a valid final seal attesting the run's exact
 *               segment count; recovery will redo it.
 *   TORN      — debris of an interrupted commit: a run broken by a
 *               timestamp change, a final seal whose attested count
 *               disagrees with the run, or a record whose seal fails
 *               its CRC; recovery will discard it.
 *   IN-FLIGHT — a trailing run with no final seal and a clean tail:
 *               the crash hit between txBegin and the commit seal.
 *   UNSEALED  — epoch-mode images only (an epoch frontier record is
 *               published at root slot txn::kEpochFrontierSlot): a
 *               structurally committed run whose timestamp lies
 *               beyond the frontier's dense replay limit — it joined
 *               an epoch whose shared fence never completed, so it
 *               was never acknowledged and recovery drops it.
 *
 * Every verdict carries a human-readable reason string (recomputed
 * CRCs, attested vs. observed segment counts, ...) so a disagreement
 * with the runtime is diagnosable from the report alone. The report
 * also dumps segment headers, CRC seals, timestamps, segment-count
 * attestations, and the decoded flight-recorder ring when one is
 * present ([[flight_recorder]]).
 *
 * The inspector never trusts a byte: arbitrary corruption (truncated
 * image, flipped bits, garbage roots) must produce a report, never a
 * crash — and never a COMMITTED verdict for a record whose seal does
 * not validate.
 *
 * The chain interpretation is the speculative-log format, i.e. the
 * spec / spec-dp / hybrid families. Images of the undo-log baselines
 * publish different structures under the same root slots; their
 * chains simply report as unparseable (torn at the head), which is
 * accurate from the splog point of view.
 */

#ifndef SPECPMT_FORENSIC_INSPECTOR_HH
#define SPECPMT_FORENSIC_INSPECTOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/splog_format.hh"
#include "forensic/flight_recorder.hh"
#include "pmem/pmem_device.hh"

namespace specpmt::forensic
{

/** Highest thread id whose log-head root slot the inspector scans
 * (logHeadSlot(tid) = 1 + tid must stay below the hybrid sequence
 * slots at 20+). */
constexpr unsigned kMaxInspectThreads = 19;

/** Classification of one transaction found in a log chain. */
enum class TxVerdict
{
    Committed,
    Torn,
    InFlight,
    /** Committed on media but beyond the epoch frontier's replay
     * limit (never acked; recovery drops it). Epoch images only. */
    Unsealed,
};

/** "COMMITTED" / "TORN" / "IN-FLIGHT" / "UNSEALED". */
const char *txVerdictName(TxVerdict verdict);

/** One decoded, checksum-valid segment of a reported transaction. */
struct SegReport
{
    PmOff pos = kPmNull;
    std::uint32_t sizeBytes = 0;
    std::uint32_t crc = 0;       ///< the (validated) stored seal
    TxTimestamp timestamp = 0;
    bool final = false;
    std::uint32_t txSegments = 0; ///< final seal's attested count
    std::uint32_t numEntries = 0;
};

/** One transaction (run of segments) with its verdict. */
struct TxReport
{
    TxVerdict verdict = TxVerdict::InFlight;
    TxTimestamp ts = 0;
    /** Why the verdict holds, suitable for humans. */
    std::string reason;
    std::vector<SegReport> segs;
    /** Decoded entries of the run (committed txs: what recovery will
     * redo; value bytes still live in the image at valuePos, and a
     * zero range carries none). */
    std::vector<core::DecodedEntry> entries;
};

/** Everything found in one thread's log chain. */
struct ChainReport
{
    unsigned tid = 0;
    /** False when the thread's root slot is null. */
    bool present = false;
    PmOff head = kPmNull;
    std::vector<PmOff> blocks;
    /** True when the walk ended on a record whose seal failed. */
    bool tornTail = false;
    /** Where the walk stopped (start of the torn record if any). */
    PmOff tailPos = kPmNull;
    /** Forensic detail about the torn tail (recomputed CRC, ...). */
    std::string tailDetail;
    std::vector<TxReport> txs;
    /** End of the last committed tx: where recovery will re-adopt. */
    PmOff lastCommittedEnd = kPmNull;
    /** Interior CRC-failing segments the walker skipped as media
     * corruption (see core::QuarantinedSegment); empty on healthy
     * and crash-torn images alike. */
    std::vector<core::QuarantinedSegment> quarantined;
};

/** Full inspection result for one image. */
struct InspectReport
{
    std::string source;          ///< file path or caller-chosen tag
    std::size_t deviceBytes = 0;
    std::vector<ChainReport> chains;
    DecodedFlightRing flight;
    std::size_t committed = 0;
    std::size_t torn = 0;
    std::size_t inFlight = 0;
    /** Media-corrupted segments quarantined across all chains. */
    std::size_t quarantined = 0;

    /** @name Epoch group commit (root slot txn::kEpochFrontierSlot)
     * Populated only when the image publishes an epoch frontier
     * record; legacy images leave epochMedia false and the text/JSON
     * reports byte-identical to pre-epoch inspector output.
     */
    /// @{
    bool epochMedia = false;
    /** The frontier record passed its magic + CRC check. */
    bool frontierValid = false;
    TxTimestamp epochStart = 0; ///< frontier window start
    TxTimestamp epochEnd = 0;   ///< frontier window end
    /** Highest replayable timestamp (epochReplayLimit). */
    TxTimestamp epochLimit = 0;
    /** Committed-on-media runs demoted to UNSEALED. */
    std::size_t unsealed = 0;
    /// @}

    /** Deterministic human-readable report (golden-test stable:
     * depends only on the image bytes). */
    std::string toText() const;

    /**
     * JSON report. When @p metrics_json is non-empty it is embedded
     * verbatim as the "metrics" member (callers pass
     * obs::Registry::global().snapshot().toJson() to attach the
     * inspecting process's counters, e.g. after a recovery audit).
     */
    std::string toJson(const std::string &metrics_json = {}) const;
};

/**
 * Inspect @p dev read-only; see file comment. @p threads bounds the
 * root-slot scan (clamped to kMaxInspectThreads); chains whose root
 * slot is null are reported absent.
 */
InspectReport inspectImage(const pmem::PmemDevice &dev,
                           unsigned threads = kMaxInspectThreads,
                           const std::string &source = "image");

} // namespace specpmt::forensic

#endif // SPECPMT_FORENSIC_INSPECTOR_HH
