#include "forensic/recovery_audit.hh"

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>

#include "core/splog_walk.hh"
#include "obs/metrics.hh"
#include "pmem/image_io.hh"
#include "pmem/pmem_pool.hh"
#include "sim/crash_explorer.hh"
#include "txn/tx_runtime.hh"

namespace specpmt::forensic
{

namespace
{

constexpr const char *kReplayedCounter =
    "specpmt_recovery_replayed_txs_total";

std::uint64_t
replayedCounterValue()
{
    const auto snap = obs::Registry::global().snapshot();
    const auto it = snap.counters.find(kReplayedCounter);
    return it == snap.counters.end() ? 0 : it->second;
}

/** Committed timestamps per thread, sorted (multiset semantics). */
std::map<unsigned, std::vector<TxTimestamp>>
committedTimestamps(const InspectReport &report)
{
    std::map<unsigned, std::vector<TxTimestamp>> out;
    for (const auto &chain : report.chains) {
        auto &list = out[chain.tid];
        for (const auto &tx : chain.txs) {
            if (tx.verdict == TxVerdict::Committed)
                list.push_back(tx.ts);
        }
        std::sort(list.begin(), list.end());
    }
    return out;
}

} // namespace

bool
isAuditableRuntime(std::string_view runtime_name)
{
    return runtime_name == "spec" || runtime_name == "spec-dp";
}

AuditResult
auditRecovery(const std::vector<std::uint8_t> &image,
              const std::string &runtime_name, unsigned threads,
              const InspectReport &report)
{
    AuditResult result;
    result.inspectorCommitted = report.committed;
    if (!isAuditableRuntime(runtime_name))
        return result;
    result.supported = true;

    // The inspector's independent prediction of recovery's data
    // writes: replay every committed entry in global timestamp order
    // onto a copy of the image, values read from the *original* image
    // (recovery may truncate the log area they live in), and note the
    // byte intervals the entries touch.
    struct PendingTx
    {
        TxTimestamp ts;
        const TxReport *tx;
    };
    std::vector<PendingTx> committed;
    for (const auto &chain : report.chains) {
        for (const auto &tx : chain.txs) {
            if (tx.verdict == TxVerdict::Committed)
                committed.push_back({tx.ts, &tx});
        }
    }
    std::sort(committed.begin(), committed.end(),
              [](const PendingTx &a, const PendingTx &b) {
                  return a.ts < b.ts;
              });
    const auto in_image = [&](PmOff off, std::size_t size) {
        return off <= image.size() && size <= image.size() - off;
    };
    std::vector<std::uint8_t> expected = image;
    std::vector<std::pair<PmOff, PmOff>> touched; ///< [start, end)
    for (const auto &pending : committed) {
        for (const auto &entry : pending.tx->entries) {
            if ((!entry.zero && !in_image(entry.valuePos, entry.size)) ||
                !in_image(entry.dataOff, entry.size)) {
                result.disagreements.push_back(
                    "committed entry out of image bounds (off=" +
                    std::to_string(entry.dataOff) +
                    ", size=" + std::to_string(entry.size) + ")");
                continue;
            }
            core::entryValue(image.data(), entry,
                             expected.data() + entry.dataOff);
            touched.emplace_back(entry.dataOff,
                                 entry.dataOff + entry.size);
        }
    }
    // Disjoint and ascending, so mismatches report in address order.
    std::sort(touched.begin(), touched.end());
    std::vector<std::pair<PmOff, PmOff>> intervals;
    for (const auto &[start, end] : touched) {
        if (!intervals.empty() && start <= intervals.back().second)
            intervals.back().second =
                std::max(intervals.back().second, end);
        else
            intervals.emplace_back(start, end);
    }

    // Real recovery, on a throwaway copy.
    auto dev = pmem::deviceFromImage(image);
    pmem::PmemPool pool(*dev);
    const PmOff watermark = dev->size() >= (1u << 20)
                                ? dev->size() - (256u << 10)
                                : dev->size() / 2;
    pool.reserveBelow(watermark);

    const std::uint64_t replayed_before = replayedCounterValue();
    auto runtime = sim::makeCrashRuntime(runtime_name, pool, threads);
    runtime->recover();
    result.runtimeReplayedTxs =
        replayedCounterValue() - replayed_before;

    // Check 1: replayed-transaction count.
    if (result.runtimeReplayedTxs != report.committed) {
        result.disagreements.push_back(
            "runtime replayed " +
            std::to_string(result.runtimeReplayedTxs) +
            " transaction(s) but the inspector classified " +
            std::to_string(report.committed) + " as COMMITTED");
    }

    // Check 2: the recovered chains hold exactly the committed
    // timestamps, per thread (debris truncated, prefix preserved).
    const auto want_ts = committedTimestamps(report);
    core::DecodedLog decoded;
    for (const auto &[tid, want] : want_ts) {
        const PmOff root =
            dev->loadT<PmOff>(txn::logHeadSlot(tid) * sizeof(PmOff));
        std::vector<TxTimestamp> got;
        if (root != kPmNull) {
            decoded.clear();
            const auto walk = core::walkChain(*dev, root, decoded);
            core::TxGrouper grouper;
            grouper.group(decoded, 0, walk.quarantined);
            for (const auto &group : grouper.committed())
                got.push_back(group.ts);
            std::sort(got.begin(), got.end());
        }
        if (got != want) {
            result.disagreements.push_back(
                "recovered chain of tid " + std::to_string(tid) +
                " holds " + std::to_string(got.size()) +
                " committed transaction(s) where the inspector "
                "expected " + std::to_string(want.size()));
        }
    }

    // Check 3: every committed-entry byte matches the inspector's
    // chronological replay.
    std::size_t mismatches = 0;
    std::vector<std::uint8_t> actual;
    for (const auto &[start, end] : intervals) {
        actual.resize(end - start);
        dev->load(start, actual.data(), actual.size());
        if (std::memcmp(actual.data(), expected.data() + start,
                        actual.size()) == 0)
            continue;
        for (PmOff addr = start; addr < end; ++addr) {
            const std::uint8_t got = actual[addr - start];
            const std::uint8_t want = expected[addr];
            if (got != want && mismatches++ < 4) {
                result.disagreements.push_back(
                    "byte at offset " + std::to_string(addr) +
                    " is " + std::to_string(got) +
                    " after recovery; committed log records say " +
                    std::to_string(want));
            }
        }
    }
    if (mismatches > 4) {
        result.disagreements.push_back(
            "... and " + std::to_string(mismatches - 4) +
            " more byte mismatch(es)");
    }

    result.agrees = result.disagreements.empty();
    return result;
}

std::string
AuditResult::toText() const
{
    if (!supported) {
        return "recovery audit: unsupported runtime (only spec / "
               "spec-dp recovery is modeled)\n";
    }
    std::string out =
        "recovery audit: " +
        std::string(agrees ? "AGREES" : "DISAGREES") +
        " (runtime replayed " + std::to_string(runtimeReplayedTxs) +
        ", inspector committed " +
        std::to_string(inspectorCommitted) + ")\n";
    for (const auto &item : disagreements)
        out += "  disagreement: " + item + "\n";
    return out;
}

std::string
AuditResult::toJson() const
{
    std::string out = "{\"supported\": ";
    out += supported ? "true" : "false";
    out += ", \"agrees\": ";
    out += agrees ? "true" : "false";
    out += ", \"runtimeReplayedTxs\": " +
           std::to_string(runtimeReplayedTxs) +
           ", \"inspectorCommitted\": " +
           std::to_string(inspectorCommitted) +
           ", \"disagreements\": [";
    for (std::size_t i = 0; i < disagreements.size(); ++i) {
        if (i)
            out += ", ";
        out += "\"";
        for (char c : disagreements[i]) {
            if (c == '"' || c == '\\')
                out += '\\';
            out += c;
        }
        out += "\"";
    }
    out += "]}";
    return out;
}

} // namespace specpmt::forensic
