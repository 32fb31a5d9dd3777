/**
 * @file
 * Acceptance test of the forensic layer's central claim: the offline
 * inspector's transaction classification agrees with what the
 * runtime's real recover() does, at *every* crash point of a full
 * crashmatrix sweep — not at a few hand-picked ones.
 *
 * For each persistence-event crash point of a deterministic workload
 * run, the crash explorer's one crash step leaves the post-crash
 * device image(s); each is classified by the inspector and audited by
 * running real recovery on a throwaway copy
 * (forensic/recovery_audit). A single disagreement fails with the
 * replay token that reproduces it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "forensic/inspector.hh"
#include "forensic/recovery_audit.hh"
#include "kv/kv_crash_workload.hh"
#include "kv/kv_service.hh"
#include "pmem/crash_policy.hh"
#include "pmem/image_io.hh"
#include "sim/crash_explorer.hh"

namespace specpmt::forensic
{
namespace
{

/**
 * Sweep every crash point of @p cell's run, auditing every device
 * image the crash step leaves. Identical images (pruned by content
 * hash) are audited once: recovery and the inspector are both
 * deterministic functions of the image bytes.
 */
void
sweepAndAudit(const sim::CrashCell &cell,
              const sim::CrashWorkloadFactory &factory)
{
    const auto counting =
        sim::crashWorkload(cell, factory, sim::kNoCrashPoint);
    ASSERT_FALSE(counting.fired);
    const std::uint64_t events = counting.events;
    ASSERT_GT(events, 0u);

    std::set<std::uint64_t> seen;
    std::size_t audited = 0;
    std::size_t torn_seen = 0;
    for (std::uint64_t point = 1; point <= events; ++point) {
        const auto crashed = sim::crashWorkload(cell, factory, point);
        if (!crashed.fired)
            continue; // ran to completion before the countdown
        for (const auto &device : crashed.workload->devices()) {
            const auto &dev = *device.device;
            if (!seen.insert(sim::hashDeviceImage(dev)).second)
                continue;
            const std::vector<std::uint8_t> image(
                dev.persistentRaw(), dev.persistentRaw() + dev.size());
            const auto report =
                inspectImage(dev, device.threads, device.name);
            const auto audit = auditRecovery(
                image, cell.runtime, device.threads, report);
            ASSERT_TRUE(audit.supported);
            std::string detail;
            for (const auto &d : audit.disagreements)
                detail += "\n  " + d;
            EXPECT_TRUE(audit.agrees)
                << "token " << cell.token(point) << " image "
                << device.name << detail;
            ++audited;
            torn_seen += report.torn;
        }
    }
    // The sweep must have produced real work, or the test is vacuous.
    EXPECT_GT(audited, 0u)
        << "no distinct post-crash image was ever exported";
    (void)torn_seen;
}

TEST(RecoveryAuditSweepTest, KvWorkloadEveryCrashPointAgrees)
{
    sim::CrashCell cell;
    cell.runtime = "spec";
    cell.workload = "kv";
    cell.policy = "nothing";
    cell.seed = 42;
    cell.kvShards = 2;
    cell.kvKeys = 12;
    cell.kvOps = 8;
    sweepAndAudit(cell, kv::kvCrashWorkloadFactory());
}

TEST(RecoveryAuditSweepTest, KvWorkloadRandomPolicyAgrees)
{
    // The random persist policy can drop individual pending lines,
    // producing torn seals and count mismatches: the interesting half
    // of the classification space.
    sim::CrashCell cell;
    cell.runtime = "spec";
    cell.workload = "kv";
    cell.policy = "random";
    cell.persistProbability = 0.5;
    cell.seed = 7;
    cell.kvShards = 2;
    cell.kvKeys = 12;
    cell.kvOps = 8;
    sweepAndAudit(cell, kv::kvCrashWorkloadFactory());
}

TEST(RecoveryAuditSweepTest, SlotsWorkloadRandomPolicyAgrees)
{
    sim::CrashCell cell;
    cell.runtime = "spec";
    cell.workload = "slots";
    cell.policy = "random";
    cell.persistProbability = 0.5;
    cell.seed = 42;
    cell.slots = 64;
    cell.txCount = 12;
    cell.maxStoresPerTx = 4;
    sweepAndAudit(cell, sim::builtinCrashWorkloadFactory());
}

TEST(RecoveryAuditSweepTest, SpecDpRuntimeAgrees)
{
    sim::CrashCell cell;
    cell.runtime = "spec-dp";
    cell.workload = "slots";
    cell.policy = "random";
    cell.persistProbability = 0.5;
    cell.seed = 11;
    cell.slots = 64;
    cell.txCount = 10;
    cell.maxStoresPerTx = 4;
    sweepAndAudit(cell, sim::builtinCrashWorkloadFactory());
}

TEST(RecoveryAuditTest, PerfbenchShapedKvShardAgrees)
{
    // perfbench's kv shape: 2 shards of 131,072 buckets, 65,536 keys
    // loaded in batches of 64, then updates; crash(nothing) leaves
    // every bucket write to the log alone.
    kv::KvServiceConfig config;
    config.shards = 2;
    config.threads = 2;
    config.runtime = "spec";
    config.bucketsPerShard = 131072;
    kv::KvService service(config);
    std::vector<std::pair<kv::KvKey, kv::KvValue>> batch;
    for (kv::KvKey key = 1; key <= 65536; ++key) {
        batch.emplace_back(key, kv::KvValue::tagged(key, 0));
        if (batch.size() == 64) {
            ASSERT_TRUE(service.multiPut(0, batch));
            batch.clear();
        }
    }
    for (kv::KvKey i = 0; i < 20000; ++i) {
        const kv::KvKey key = 1 + (i * 7919) % 65536;
        ASSERT_TRUE(service.put(0, key, kv::KvValue::tagged(key, i + 1)));
    }
    service.crash(pmem::CrashPolicy::nothing());
    const auto &dev = service.shardDevice(0);
    const std::vector<std::uint8_t> image(
        dev.persistentRaw(), dev.persistentRaw() + dev.size());

    const auto report =
        inspectImage(*pmem::deviceFromImage(image), 2, "shard0");
    // The map's creation logged one zero range per 128 buckets, and
    // compaction keeps each one: it is the newest record of its key.
    std::size_t zero_ranges = 0;
    for (const auto &chain : report.chains) {
        for (const auto &tx : chain.txs) {
            zero_ranges += std::count_if(
                tx.entries.begin(), tx.entries.end(),
                [](const core::DecodedEntry &e) { return e.zero; });
        }
    }
    EXPECT_EQ(zero_ranges, 131072u / 128);
    EXPECT_NE(report.toJson().find("\"zero\": true"), std::string::npos);

    const auto audit = auditRecovery(image, "spec", 2, report);
    std::string detail;
    for (const auto &d : audit.disagreements)
        detail += "\n  " + d;
    EXPECT_TRUE(audit.agrees) << detail;
    EXPECT_EQ(audit.runtimeReplayedTxs, report.committed);
}

} // namespace
} // namespace specpmt::forensic
