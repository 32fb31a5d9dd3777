#include "forensic/inspector.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string_view>

#include "core/splog_walk.hh"
#include "obs/metrics.hh"
#include "txn/tx_runtime.hh"

namespace specpmt::forensic
{

namespace
{

using core::DecodedSegment;
using core::SegHead;

std::string
hex(std::uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%" PRIx64, value);
    return buf;
}

std::string
hex32(std::uint32_t value)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "0x%08" PRIx32, value);
    return buf;
}

SegReport
segReport(const DecodedSegment &seg)
{
    SegReport out;
    out.pos = seg.pos;
    out.sizeBytes = seg.sizeBytes;
    out.timestamp = seg.timestamp;
    out.final = seg.final;
    out.txSegments = seg.txSegments;
    out.numEntries = static_cast<std::uint32_t>(seg.entries.size());
    // The walker only surfaces checksum-valid segments, so the stored
    // seal equals the recomputed one; report the stored value.
    return out;
}

TxReport
txFromGroup(const core::DecodedLog &decoded, const core::GroupedTx &group,
            TxVerdict verdict, std::string reason)
{
    TxReport tx;
    tx.verdict = verdict;
    tx.ts = group.ts;
    tx.reason = std::move(reason);
    for (std::size_t i = group.segs.begin; i < group.segs.end; ++i)
        tx.segs.push_back(segReport(decoded.segments[i]));
    const auto entries = decoded.entriesIn(group.entries);
    tx.entries.assign(entries.begin(), entries.end());
    return tx;
}

/** Sort key placing transactions in chronological (append) order. */
std::pair<std::size_t, PmOff>
txOrderKey(const TxReport &tx)
{
    if (tx.segs.empty())
        return {~std::size_t{0}, ~PmOff{0}};
    return {0, tx.segs.front().pos};
}

/**
 * Forensic detail for a walk that stopped on an invalid record:
 * re-read the header at the stop position and say exactly which check
 * fails, recomputing the CRC when the sizes are plausible. Tolerates
 * arbitrary garbage.
 */
std::string
describeTornTail(const pmem::PmemDevice &dev, PmOff pos)
{
    if (pos == kPmNull)
        return "chain head block header is implausible "
               "(torn allocation or foreign log format)";
    if (pos + sizeof(SegHead) > dev.size()) {
        return "segment header at " + hex(pos) +
               " exceeds device bounds";
    }
    const auto head = dev.loadT<SegHead>(pos);
    if (head.sizeBytes == 0)
        return "unexpected tail poison at " + hex(pos);
    if (head.sizeBytes < sizeof(SegHead)) {
        return "implausible segment size " +
               std::to_string(head.sizeBytes) + " at " + hex(pos);
    }
    if (pos + head.sizeBytes > dev.size()) {
        return "segment size " + std::to_string(head.sizeBytes) +
               " at " + hex(pos) + " exceeds device bounds";
    }
    const std::uint32_t computed = core::segmentCrc(dev, pos, head);
    if (computed != head.crc) {
        return "seal crc mismatch at " + hex(pos) + ": stored " +
               hex32(head.crc) + ", computed " + hex32(computed) +
               " (sizeBytes=" + std::to_string(head.sizeBytes) +
               ", ts=" + std::to_string(head.timestamp) +
               ", entries=" + std::to_string(head.numEntries) + ")";
    }
    return "segment at " + hex(pos) +
           " has a valid seal but is structurally inconsistent "
           "(overruns its block or malformed entry table)";
}

/** @p decoded: an arena to decode into, emptied first. */
ChainReport
inspectChain(const pmem::PmemDevice &dev, unsigned tid, PmOff root,
             core::DecodedLog &decoded)
{
    ChainReport chain;
    chain.tid = tid;
    chain.present = true;
    chain.head = root;

    decoded.clear();
    const auto walk = core::walkChain(dev, root, decoded);
    core::TxGrouper grouper;
    grouper.group(decoded, 0, walk.quarantined);
    chain.quarantined = walk.quarantined;
    const auto last_seg = [&](const core::GroupedTx &group)
        -> const DecodedSegment & {
        return decoded.segments[group.segs.end - 1];
    };

    chain.blocks = walk.blocks;
    chain.tornTail = walk.end == core::WalkEnd::TornRecord;
    chain.tailPos = walk.tailPos;
    if (chain.tornTail)
        chain.tailDetail = describeTornTail(dev, walk.tailPos);
    chain.lastCommittedEnd = grouper.lastCommittedEnd();

    for (const auto &group : grouper.committed()) {
        const auto &last = last_seg(group);
        chain.txs.push_back(txFromGroup(
            decoded, group, TxVerdict::Committed,
            "final seal at " + hex(last.pos) + " attests " +
                std::to_string(last.txSegments) +
                " segment(s); run has " +
                std::to_string(group.segs.size())));
    }
    for (const auto &discarded : grouper.discarded()) {
        std::string reason;
        switch (discarded.reason) {
          case core::TxDiscard::TimestampBreak:
            reason = "no final seal before the log's timestamp "
                     "changed (interrupted commit's debris, " +
                     std::to_string(discarded.tx.segs.size()) +
                     " sealed segment(s))";
            break;
          case core::TxDiscard::SegCountMismatch: {
            const auto &last = last_seg(discarded.tx);
            reason = "final seal at " + hex(last.pos) + " attests " +
                     std::to_string(last.txSegments) +
                     " segment(s) but the run has " +
                     std::to_string(discarded.tx.segs.size()) +
                     " (intermediate segment never persisted)";
            break;
          }
          case core::TxDiscard::QuarantineGap:
            reason = "a quarantined (media-corrupted) segment "
                     "interrupted the run of " +
                     std::to_string(discarded.tx.segs.size()) +
                     " sealed segment(s); committing the remainder "
                     "would apply a subset";
            break;
        }
        chain.txs.push_back(txFromGroup(decoded, discarded.tx,
                                        TxVerdict::Torn,
                                        std::move(reason)));
    }
    std::sort(chain.txs.begin(), chain.txs.end(),
              [](const TxReport &a, const TxReport &b) {
                  return txOrderKey(a) < txOrderKey(b);
              });

    // The trailing open run — and, when the walk stopped on an invalid
    // record, the torn record itself — classify last.
    const auto &open = grouper.inFlight();
    if (!open.segs.empty()) {
        if (chain.tornTail) {
            chain.txs.push_back(txFromGroup(
                decoded, open, TxVerdict::Torn,
                "run of " + std::to_string(open.segs.size()) +
                    " sealed segment(s) ends in a torn record: " +
                    chain.tailDetail));
        } else {
            chain.txs.push_back(txFromGroup(
                decoded, open, TxVerdict::InFlight,
                "no final seal; log ends in clean tail poison "
                "(crash between txBegin and the commit seal)"));
        }
    } else if (chain.tornTail) {
        TxReport tx;
        tx.verdict = TxVerdict::Torn;
        tx.reason = "torn record at chain tail: " + chain.tailDetail;
        chain.txs.push_back(std::move(tx));
    }
    return chain;
}

} // namespace

const char *
txVerdictName(TxVerdict verdict)
{
    switch (verdict) {
      case TxVerdict::Committed:
        return "COMMITTED";
      case TxVerdict::Torn:
        return "TORN";
      case TxVerdict::InFlight:
        return "IN-FLIGHT";
      case TxVerdict::Unsealed:
        return "UNSEALED";
    }
    return "?";
}

InspectReport
inspectImage(const pmem::PmemDevice &dev, unsigned threads,
             const std::string &source)
{
    InspectReport report;
    report.source = source;
    report.deviceBytes = dev.size();
    threads = std::min(threads, kMaxInspectThreads);

    core::DecodedLog decoded;
    for (unsigned tid = 0; tid < threads; ++tid) {
        const PmOff slot_off =
            txn::logHeadSlot(tid) * sizeof(PmOff);
        if (slot_off + sizeof(PmOff) > dev.size())
            break; // truncated image: no root directory beyond here
        const PmOff root = dev.loadT<PmOff>(slot_off);
        if (root == kPmNull)
            continue;
        report.chains.push_back(inspectChain(dev, tid, root, decoded));
    }

    const PmOff flight_slot_off =
        kFlightRecorderRootSlot * sizeof(PmOff);
    if (flight_slot_off + sizeof(PmOff) <= dev.size()) {
        report.flight = FlightRecorder::decode(
            dev, dev.loadT<PmOff>(flight_slot_off));
    }

    // Epoch-mode images publish a frontier record; apply the same
    // replay-limit rule recovery uses (splog_walk) and demote
    // committed runs beyond the limit: they were never acked.
    const PmOff frontier_slot_off =
        txn::kEpochFrontierSlot * sizeof(PmOff);
    PmOff frontier_root = kPmNull;
    if (frontier_slot_off + sizeof(PmOff) <= dev.size())
        frontier_root = dev.loadT<PmOff>(frontier_slot_off);
    if (frontier_root != kPmNull) {
        report.epochMedia = true;
        core::EpochFrontier frontier{};
        if (frontier_root + sizeof(frontier) <= dev.size())
            frontier = dev.loadT<core::EpochFrontier>(frontier_root);
        report.frontierValid = core::epochFrontierValid(frontier);
        report.epochStart = frontier.start;
        report.epochEnd = frontier.end;
        std::vector<TxTimestamp> committed_ts;
        for (const auto &chain : report.chains) {
            for (const auto &tx : chain.txs) {
                if (tx.verdict == TxVerdict::Committed)
                    committed_ts.push_back(tx.ts);
            }
        }
        // An invalid record replays nothing: fail closed, exactly as
        // epochReplayLimit does for a corrupt frontier.
        report.epochLimit =
            core::epochReplayLimit(frontier, std::move(committed_ts));
        for (auto &chain : report.chains) {
            bool demoted = false;
            for (auto &tx : chain.txs) {
                if (tx.verdict != TxVerdict::Committed ||
                    tx.ts <= report.epochLimit)
                    continue;
                tx.verdict = TxVerdict::Unsealed;
                tx.reason = "committed on media but ts " +
                            std::to_string(tx.ts) +
                            " exceeds the epoch replay limit " +
                            std::to_string(report.epochLimit) +
                            " (frontier window [" +
                            std::to_string(frontier.start) + ", " +
                            std::to_string(frontier.end) +
                            "]): the epoch's shared fence never "
                            "completed, so it was never acked and "
                            "recovery drops it";
                demoted = true;
            }
            if (demoted) {
                // Recovery re-adopts after the last *replayable* run.
                chain.lastCommittedEnd = kPmNull;
                for (const auto &tx : chain.txs) {
                    if (tx.verdict == TxVerdict::Committed &&
                        !tx.segs.empty()) {
                        const auto &last = tx.segs.back();
                        chain.lastCommittedEnd =
                            last.pos +
                            ((last.sizeBytes + 7) & ~std::uint32_t{7});
                    }
                }
            }
        }
    }

    for (const auto &chain : report.chains) {
        report.quarantined += chain.quarantined.size();
        for (const auto &tx : chain.txs) {
            switch (tx.verdict) {
              case TxVerdict::Committed:
                ++report.committed;
                break;
              case TxVerdict::Torn:
                ++report.torn;
                break;
              case TxVerdict::InFlight:
                ++report.inFlight;
                break;
              case TxVerdict::Unsealed:
                ++report.unsealed;
                break;
            }
        }
    }
    return report;
}

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

namespace
{

void
appendFlightText(std::string &out, const DecodedFlightRing &flight)
{
    if (!flight.present) {
        out += "flight recorder: absent\n";
        return;
    }
    if (!flight.error.empty()) {
        out += "flight recorder: unreadable (" + flight.error + ")\n";
        return;
    }
    out += "flight recorder: " +
           std::to_string(flight.records.size()) + " record(s), " +
           std::to_string(flight.invalidSlots) +
           " invalid slot(s), capacity " +
           std::to_string(flight.capacity) + "\n";
    for (const auto &rec : flight.records) {
        out += "  seq=" + std::to_string(rec.seq) + " " +
               eventTypeName(rec.type) +
               " tid=" + std::to_string(rec.tid) +
               " ts=" + std::to_string(rec.timestamp) +
               " arg0=" + std::to_string(rec.arg0) +
               " arg1=" + std::to_string(rec.arg1) + "\n";
    }
}

} // namespace

std::string
InspectReport::toText() const
{
    std::string out;
    out += "pminspect report: " + source + "\n";
    out += "device: " + std::to_string(deviceBytes) + " bytes\n";
    out += "chains: " + std::to_string(chains.size()) + "\n";
    for (const auto &chain : chains) {
        out += "chain tid=" + std::to_string(chain.tid) +
               " head=" + hex(chain.head) +
               " blocks=" + std::to_string(chain.blocks.size());
        if (chain.tornTail)
            out += " tail=torn@" + hex(chain.tailPos);
        else
            out += " tail=clean";
        out += "\n";
        for (const auto &tx : chain.txs) {
            out += std::string("  ") + txVerdictName(tx.verdict) +
                   " ts=" + std::to_string(tx.ts) +
                   " segs=" + std::to_string(tx.segs.size()) +
                   " entries=" + std::to_string(tx.entries.size());
            const auto zero_ranges = std::count_if(
                tx.entries.begin(), tx.entries.end(),
                [](const core::DecodedEntry &e) { return e.zero; });
            if (zero_ranges != 0)
                out += " zero-ranges=" + std::to_string(zero_ranges);
            if (!tx.segs.empty()) {
                const auto &first = tx.segs.front();
                const auto &last = tx.segs.back();
                out += " at=" + hex(first.pos);
                if (last.final) {
                    out += " final-seal(count=" +
                           std::to_string(last.txSegments) + ")";
                }
            }
            out += "\n    reason: " + tx.reason + "\n";
        }
        for (const auto &q : chain.quarantined) {
            out += "  QUARANTINED segment at " + hex(q.pos) +
                   " (sizeBytes=" + std::to_string(q.sizeBytes) +
                   ", block=" + hex(q.block) +
                   "): seal crc failed but a valid segment follows "
                   "(media corruption, not a torn tail)\n";
        }
    }
    if (epochMedia) {
        out += "epoch frontier: window [" +
               std::to_string(epochStart) + ", " +
               std::to_string(epochEnd) + "] " +
               (frontierValid ? "(valid seal)" : "(INVALID seal)") +
               ", replay limit " + std::to_string(epochLimit) + "\n";
    }
    appendFlightText(out, flight);
    out += "summary: committed=" + std::to_string(committed) +
           " torn=" + std::to_string(torn) +
           " in-flight=" + std::to_string(inFlight);
    if (epochMedia)
        out += " unsealed=" + std::to_string(unsealed);
    if (quarantined != 0)
        out += " quarantined=" + std::to_string(quarantined);
    out += "\n";
    return out;
}

std::string
InspectReport::toJson(const std::string &metrics_json) const
{
    std::string out = "{\n  \"image\": {\"source\": \"";
    obs::appendJsonEscaped(out, source);
    out += "\", \"bytes\": " + std::to_string(deviceBytes) + "},\n";

    out += "  \"chains\": [";
    bool first_chain = true;
    for (const auto &chain : chains) {
        if (!first_chain)
            out += ",";
        first_chain = false;
        out += "\n    {\"tid\": " + std::to_string(chain.tid) +
               ", \"head\": " + std::to_string(chain.head) +
               ", \"blocks\": [";
        for (std::size_t i = 0; i < chain.blocks.size(); ++i) {
            if (i)
                out += ", ";
            out += std::to_string(chain.blocks[i]);
        }
        out += "], \"tornTail\": ";
        out += chain.tornTail ? "true" : "false";
        out += ", \"tailPos\": " + std::to_string(chain.tailPos) +
               ", \"tailDetail\": \"";
        obs::appendJsonEscaped(out, chain.tailDetail);
        out += "\", \"lastCommittedEnd\": " +
               std::to_string(chain.lastCommittedEnd);
        if (!chain.quarantined.empty()) {
            out += ", \"quarantined\": [";
            bool first_q = true;
            for (const auto &q : chain.quarantined) {
                if (!first_q)
                    out += ", ";
                first_q = false;
                out += "{\"pos\": " + std::to_string(q.pos) +
                       ", \"sizeBytes\": " +
                       std::to_string(q.sizeBytes) +
                       ", \"block\": " + std::to_string(q.block) + "}";
            }
            out += "]";
        }
        out += ",\n     \"txs\": [";
        bool first_tx = true;
        for (const auto &tx : chain.txs) {
            if (!first_tx)
                out += ",";
            first_tx = false;
            out += "\n      {\"verdict\": \"";
            out += txVerdictName(tx.verdict);
            out += "\", \"ts\": " + std::to_string(tx.ts) +
                   ", \"reason\": \"";
            obs::appendJsonEscaped(out, tx.reason);
            out += "\", \"segments\": [";
            bool first_seg = true;
            for (const auto &seg : tx.segs) {
                if (!first_seg)
                    out += ", ";
                first_seg = false;
                out += "{\"pos\": " + std::to_string(seg.pos) +
                       ", \"sizeBytes\": " +
                       std::to_string(seg.sizeBytes) +
                       ", \"timestamp\": " +
                       std::to_string(seg.timestamp) +
                       ", \"final\": ";
                out += seg.final ? "true" : "false";
                out += ", \"txSegments\": " +
                       std::to_string(seg.txSegments) +
                       ", \"numEntries\": " +
                       std::to_string(seg.numEntries) + "}";
            }
            out += "], \"entries\": [";
            bool first_entry = true;
            for (const auto &entry : tx.entries) {
                if (!first_entry)
                    out += ", ";
                first_entry = false;
                out += "{\"off\": " + std::to_string(entry.dataOff) +
                       ", \"size\": " + std::to_string(entry.size);
                if (entry.zero)
                    out += ", \"zero\": true";
                out += "}";
            }
            out += "]}";
        }
        out += "]}";
    }
    out += "\n  ],\n";

    out += "  \"flight\": {\"present\": ";
    out += flight.present ? "true" : "false";
    out += ", \"error\": \"";
    obs::appendJsonEscaped(out, flight.error);
    out += "\", \"capacity\": " + std::to_string(flight.capacity) +
           ", \"invalidSlots\": " +
           std::to_string(flight.invalidSlots) + ", \"records\": [";
    bool first_rec = true;
    for (const auto &rec : flight.records) {
        if (!first_rec)
            out += ",";
        first_rec = false;
        out += "\n    {\"seq\": " + std::to_string(rec.seq) +
               ", \"type\": \"";
        out += eventTypeName(rec.type);
        out += "\", \"tid\": " + std::to_string(rec.tid) +
               ", \"timestamp\": " + std::to_string(rec.timestamp) +
               ", \"arg0\": " + std::to_string(rec.arg0) +
               ", \"arg1\": " + std::to_string(rec.arg1) + "}";
    }
    out += "]},\n";

    if (epochMedia) {
        out += "  \"epoch\": {\"frontierValid\": ";
        out += frontierValid ? "true" : "false";
        out += ", \"start\": " + std::to_string(epochStart) +
               ", \"end\": " + std::to_string(epochEnd) +
               ", \"replayLimit\": " + std::to_string(epochLimit) +
               "},\n";
    }
    out += "  \"summary\": {\"committed\": " +
           std::to_string(committed) +
           ", \"torn\": " + std::to_string(torn) +
           ", \"inFlight\": " + std::to_string(inFlight);
    if (epochMedia)
        out += ", \"unsealed\": " + std::to_string(unsealed);
    if (quarantined != 0)
        out += ", \"quarantined\": " + std::to_string(quarantined);
    out += "}";
    if (!metrics_json.empty())
        out += ",\n  \"metrics\": " + metrics_json;
    out += "\n}\n";
    return out;
}

} // namespace specpmt::forensic
