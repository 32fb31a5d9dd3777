/**
 * @file
 * Tests for the crash-schedule exploration engine itself: replay-token
 * round-tripping, exhaustive coverage accounting, prune soundness,
 * shard partitioning, bounded exploration, and — the test of the
 * tester — an injected commit-fence regression must be caught and
 * reproduce from its replay token.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "sim/crash_explorer.hh"

namespace specpmt::sim
{
namespace
{

CrashCell
smallSlotsCell()
{
    CrashCell cell;
    cell.runtime = "spec";
    cell.workload = "slots";
    cell.policy = "nothing";
    cell.seed = 42;
    cell.txCount = 8;
    return cell;
}

TEST(ReplayToken, RoundTripsEveryCellField)
{
    CrashCell cell;
    cell.runtime = "spec-dp";
    cell.workload = "kv";
    cell.policy = "random";
    cell.persistProbability = 0.25;
    cell.seed = 987654321;
    cell.fault = "drop-fences";
    cell.slots = 17;
    cell.txCount = 33;
    cell.maxStoresPerTx = 9;
    cell.reclaimEvery = 5;
    cell.kvShards = 3;
    cell.kvKeys = 77;
    cell.kvOps = 11;
    cell.scale = 0.125;

    const std::string token = cell.token(4242);

    CrashCell parsed;
    std::uint64_t event = 0;
    std::string error;
    ASSERT_TRUE(CrashCell::parseToken(token, parsed, event, error))
        << error;
    EXPECT_EQ(event, 4242u);
    EXPECT_EQ(parsed.runtime, cell.runtime);
    EXPECT_EQ(parsed.workload, cell.workload);
    EXPECT_EQ(parsed.policy, cell.policy);
    EXPECT_EQ(parsed.persistProbability, cell.persistProbability);
    EXPECT_EQ(parsed.seed, cell.seed);
    EXPECT_EQ(parsed.fault, cell.fault);
    EXPECT_EQ(parsed.slots, cell.slots);
    EXPECT_EQ(parsed.txCount, cell.txCount);
    EXPECT_EQ(parsed.maxStoresPerTx, cell.maxStoresPerTx);
    EXPECT_EQ(parsed.reclaimEvery, cell.reclaimEvery);
    EXPECT_EQ(parsed.kvShards, cell.kvShards);
    EXPECT_EQ(parsed.kvKeys, cell.kvKeys);
    EXPECT_EQ(parsed.kvOps, cell.kvOps);
    EXPECT_EQ(parsed.scale, cell.scale);
    // The re-serialized token must be bit-identical (tokens are keys).
    EXPECT_EQ(parsed.token(event), token);
}

TEST(ReplayToken, RejectsMalformedInput)
{
    CrashCell cell;
    std::uint64_t event = 0;
    std::string error;
    EXPECT_FALSE(CrashCell::parseToken("", cell, event, error));
    EXPECT_FALSE(
        CrashCell::parseToken("bogus;rt=spec;ev=1", cell, event, error));
    // Missing the event id.
    EXPECT_FALSE(
        CrashCell::parseToken("cmx1;rt=spec", cell, event, error));
    // Unknown key.
    EXPECT_FALSE(CrashCell::parseToken("cmx1;rt=spec;ev=1;zz=9", cell,
                                       event, error));
    // Unknown policy.
    EXPECT_FALSE(CrashCell::parseToken("cmx1;pol=sometimes;ev=1", cell,
                                       event, error));
}

TEST(CrashExplorer, ExhaustiveCellAccountsForEveryPoint)
{
    CrashExplorer explorer(smallSlotsCell(),
                           builtinCrashWorkloadFactory());
    ExploreOptions options;
    options.jobs = 2;
    const auto report = explorer.explore(options);

    ASSERT_EQ(report.error, "");
    EXPECT_GT(report.totalEvents, 0u);
    EXPECT_EQ(report.candidatePoints, report.totalEvents);
    EXPECT_EQ(report.explored + report.pruned, report.candidatePoints);
    // The deterministic slot workload crashes identically at many
    // points (e.g. consecutive reads), so pruning must engage.
    EXPECT_GT(report.pruned, 0u);
    EXPECT_TRUE(report.failures.empty());
    EXPECT_TRUE(report.ok());
}

TEST(CrashExplorer, ShardsPartitionThePointSpace)
{
    const auto cell = smallSlotsCell();
    constexpr unsigned kShards = 3;
    std::uint64_t candidates = 0;
    std::uint64_t total = 0;
    for (unsigned shard = 0; shard < kShards; ++shard) {
        CrashExplorer explorer(cell, builtinCrashWorkloadFactory());
        ExploreOptions options;
        options.shardIndex = shard;
        options.shardCount = kShards;
        options.jobs = 2;
        const auto report = explorer.explore(options);
        ASSERT_EQ(report.error, "");
        EXPECT_TRUE(report.ok());
        candidates += report.candidatePoints;
        total = report.totalEvents;
    }
    // The shards cover the whole space exactly once.
    EXPECT_EQ(candidates, total);
}

TEST(CrashExplorer, MaxPointsBoundsTheRun)
{
    CrashExplorer explorer(smallSlotsCell(),
                           builtinCrashWorkloadFactory());
    ExploreOptions options;
    options.maxPoints = 7;
    const auto report = explorer.explore(options);
    ASSERT_EQ(report.error, "");
    EXPECT_GT(report.totalEvents, 7u);
    EXPECT_EQ(report.candidatePoints, 7u);
    EXPECT_EQ(report.explored + report.pruned, 7u);
    EXPECT_TRUE(report.ok());
}

TEST(CrashExplorer, RejectsNonRecoverableRuntime)
{
    auto cell = smallSlotsCell();
    cell.runtime = "direct"; // no recovery story — not explorable
    CrashExplorer explorer(cell, builtinCrashWorkloadFactory());
    const auto report = explorer.explore({});
    EXPECT_NE(report.error, "");
    EXPECT_FALSE(report.ok());
}

TEST(CrashExplorer, HybridRuntimeIsExplorable)
{
    auto cell = smallSlotsCell();
    cell.runtime = "hybrid";
    cell.policy = "random";
    CrashExplorer explorer(cell, builtinCrashWorkloadFactory());
    ExploreOptions options;
    options.jobs = 2;
    const auto report = explorer.explore(options);
    ASSERT_EQ(report.error, "");
    EXPECT_TRUE(report.ok()) << (report.failures.empty()
                                     ? report.error
                                     : report.failures[0].message);
}

/**
 * Test the tester: with commit fences dropped at the device level,
 * acknowledged transactions are no longer durable, and the explorer
 * must catch it — and the failing schedule must reproduce from its
 * replay token alone.
 */
TEST(CrashExplorer, CatchesDroppedCommitFences)
{
    auto cell = smallSlotsCell();
    cell.fault = "drop-fences";
    CrashExplorer explorer(cell, builtinCrashWorkloadFactory());
    ExploreOptions options;
    options.jobs = 2;
    const auto report = explorer.explore(options);

    ASSERT_EQ(report.error, "");
    ASSERT_FALSE(report.failures.empty())
        << "a dropped commit fence must produce failing schedules";

    const auto &failure = report.failures.front();
    EXPECT_NE(failure.token.find("fault=drop-fences"),
              std::string::npos);

    // The token alone reproduces the failure...
    const auto replay = CrashExplorer::replay(
        failure.token, builtinCrashWorkloadFactory());
    ASSERT_EQ(replay.error, "");
    EXPECT_TRUE(replay.fired);
    EXPECT_FALSE(replay.failure.empty());
    EXPECT_EQ(replay.point, failure.point);

    // ...and the same point without the fault is clean.
    auto clean_cell = cell;
    clean_cell.fault = "none";
    const auto clean = CrashExplorer::replay(
        clean_cell.token(failure.point), builtinCrashWorkloadFactory());
    ASSERT_EQ(clean.error, "");
    EXPECT_TRUE(clean.failure.empty()) << clean.failure;
}

/*
 * Regression: the exhaustive sweep found a schedule where a
 * multi-segment transaction's final seal drained while an intermediate
 * segment's header line did not — the missing segment reads back as
 * tail poison, the walker follows the (persisted) chain pointer to the
 * valid final seal, and recovery used to redo a subset of the
 * transaction's writes. The final seal now attests to the tx's total
 * segment count, and a short run is treated as a torn commit.
 */
TEST(CrashExplorer, RejectsFinalSealWithMissingSegments)
{
    const auto result = CrashExplorer::replay(
        "cmx1;rt=spec-dp;wl=slots;pol=random;p=0.5;seed=42;fault=none;"
        "slots=64;tx=12;st=4;rec=0;shards=2;keys=48;ops=24;scale=0.05;"
        "ev=88",
        builtinCrashWorkloadFactory(), /*verify_continuation=*/true);
    ASSERT_EQ(result.error, "");
    EXPECT_TRUE(result.fired);
    EXPECT_TRUE(result.failure.empty()) << result.failure;
}

TEST(CrashExplorer, ReplayRejectsBadTokens)
{
    const auto result = CrashExplorer::replay(
        "cmx1;rt=nonsense;ev=3", builtinCrashWorkloadFactory());
    EXPECT_NE(result.error, "");
    // A cell too small to run is refused before it is built.
    const auto empty = CrashExplorer::replay(
        "cmx1;rt=spec;wl=slots;slots=0;ev=3", builtinCrashWorkloadFactory());
    EXPECT_EQ(empty.error, "--slots must be at least 1");
}

TEST(CrashExplorer, ReportJsonCarriesTheAccounting)
{
    const auto cell = smallSlotsCell();
    CrashExplorer explorer(cell, builtinCrashWorkloadFactory());
    ExploreOptions options;
    options.jobs = 2;
    const auto report = explorer.explore(options);
    ASSERT_EQ(report.error, "");

    const std::string json = report.toJson(cell);
    EXPECT_NE(json.find("\"total_events\":" +
                        std::to_string(report.totalEvents)),
              std::string::npos);
    EXPECT_NE(json.find("\"explored\":" +
                        std::to_string(report.explored)),
              std::string::npos);
    EXPECT_NE(json.find("\"pruned\":" + std::to_string(report.pruned)),
              std::string::npos);
    EXPECT_NE(json.find("\"runtime\":\"spec\""), std::string::npos);
}

TEST(CrashExplorer, ReportJsonEscapesControlCharacters)
{
    // Failure messages carry arbitrary text, such as an exception's
    // what(); a raw control character would make the report invalid
    // JSON.
    ExploreReport report;
    report.failures.push_back({7, "tok", "line\nnext\ttab\x01" "end"});
    const std::string json = report.toJson(smallSlotsCell());
    EXPECT_NE(json.find("\"message\":\"line\\nnext\\ttab\\u0001end\""),
              std::string::npos)
        << json;
}

} // namespace
} // namespace specpmt::sim
