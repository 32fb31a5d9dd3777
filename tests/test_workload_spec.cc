/**
 * @file
 * Tests for the shared workload-shape generator (kv/workload_spec):
 * determinism across generators, mix/distribution contracts, the
 * tagged-value invariant every load path relies on for verification,
 * and the name parsers every CLI shares.
 */

#include <gtest/gtest.h>

#include <map>

#include "kv/workload_spec.hh"
#include "net/loadgen.hh"

namespace specpmt::kv
{
namespace
{

WorkloadSpec
smallSpec()
{
    WorkloadSpec spec;
    spec.keys = 1024;
    spec.mix = Mix::A;
    spec.dist = KeyDist::Zipfian;
    spec.multiPutFraction = 0.1;
    spec.multiPutBatch = 4;
    return spec;
}

TEST(WorkloadSpec, DeterministicForSeed)
{
    const auto spec = smallSpec();
    const ZipfianGenerator zipf(spec.keys, spec.zipfTheta);
    OpGenerator a(spec, &zipf, 42);
    OpGenerator b(spec, &zipf, 42);
    for (int i = 0; i < 5000; ++i) {
        const auto opA = a.next();
        const auto opB = b.next();
        ASSERT_EQ(opA.kind, opB.kind) << "op " << i;
        ASSERT_EQ(opA.key, opB.key);
        ASSERT_EQ(opA.value, opB.value);
        ASSERT_EQ(opA.batch.size(), opB.batch.size());
        for (std::size_t j = 0; j < opA.batch.size(); ++j) {
            ASSERT_EQ(opA.batch[j].first, opB.batch[j].first);
            ASSERT_EQ(opA.batch[j].second, opB.batch[j].second);
        }
    }

    // A different seed diverges.
    OpGenerator c(spec, &zipf, 43);
    int same = 0;
    OpGenerator a2(spec, &zipf, 42);
    for (int i = 0; i < 1000; ++i) {
        if (a2.next().key == c.next().key)
            ++same;
    }
    EXPECT_LT(same, 1000);
}

TEST(WorkloadSpec, MixContracts)
{
    auto spec = smallSpec();
    spec.multiPutFraction = 0;

    // Mix C is read-only.
    spec.mix = Mix::C;
    {
        const ZipfianGenerator zipf(spec.keys, spec.zipfTheta);
        OpGenerator gen(spec, &zipf, 7);
        for (int i = 0; i < 2000; ++i)
            ASSERT_EQ(gen.next().kind, WorkloadOp::Kind::Get);
    }

    // Mix A is ~50/50, mix B ~95/5.
    for (const auto &[mix, expected] :
         {std::pair{Mix::A, 0.5}, std::pair{Mix::B, 0.05}}) {
        spec.mix = mix;
        const ZipfianGenerator zipf(spec.keys, spec.zipfTheta);
        OpGenerator gen(spec, &zipf, 7);
        int updates = 0;
        const int n = 20000;
        for (int i = 0; i < n; ++i) {
            if (gen.next().kind != WorkloadOp::Kind::Get)
                ++updates;
        }
        const double fraction = static_cast<double>(updates) / n;
        EXPECT_NEAR(fraction, expected, 0.02)
            << "mix " << mixName(mix);
        EXPECT_DOUBLE_EQ(mixUpdateFraction(mix), expected);
    }
}

TEST(WorkloadSpec, KeysInRangeAndValuesTagged)
{
    const auto spec = smallSpec();
    const ZipfianGenerator zipf(spec.keys, spec.zipfTheta);
    OpGenerator gen(spec, &zipf, 11);
    int multi = 0;
    for (int i = 0; i < 5000; ++i) {
        const auto op = gen.next();
        switch (op.kind) {
        case WorkloadOp::Kind::Get:
            EXPECT_GE(op.key, 1u);
            EXPECT_LE(op.key, spec.keys);
            break;
        case WorkloadOp::Kind::Put:
            EXPECT_GE(op.key, 1u);
            EXPECT_LE(op.key, spec.keys);
            EXPECT_TRUE(op.value.checkTag(op.key));
            break;
        case WorkloadOp::Kind::MultiPut:
            ++multi;
            ASSERT_EQ(op.batch.size(), spec.multiPutBatch);
            for (const auto &[key, value] : op.batch) {
                EXPECT_GE(key, 1u);
                EXPECT_LE(key, spec.keys);
                EXPECT_TRUE(value.checkTag(key));
            }
            break;
        }
    }
    EXPECT_GT(multi, 0);
}

TEST(WorkloadSpec, ZipfianSkewsAndUniformDoesNot)
{
    auto spec = smallSpec();
    spec.multiPutFraction = 0;
    spec.mix = Mix::C;

    auto hotShare = [&](KeyDist dist) {
        spec.dist = dist;
        const ZipfianGenerator zipf(spec.keys, spec.zipfTheta);
        OpGenerator gen(
            spec, dist == KeyDist::Zipfian ? &zipf : nullptr, 3);
        std::map<KvKey, int> counts;
        const int n = 20000;
        for (int i = 0; i < n; ++i)
            ++counts[gen.next().key];
        int hottest = 0;
        for (const auto &[key, count] : counts)
            hottest = std::max(hottest, count);
        return static_cast<double>(hottest) / n;
    };

    // theta=0.99 zipfian puts several percent of traffic on the
    // hottest key of a 1k keyspace; uniform stays near 1/1024.
    EXPECT_GT(hotShare(KeyDist::Zipfian), 0.02);
    EXPECT_LT(hotShare(KeyDist::Uniform), 0.01);
}

TEST(WorkloadSpec, WorkerSeedMatchesHistoricalDriverFormula)
{
    // kv/driver has always derived per-worker RNG seeds this way;
    // changing it would silently re-shape every seeded benchmark.
    EXPECT_EQ(OpGenerator::workerSeed(1, 0), 0x9E3779B9ull);
    EXPECT_EQ(OpGenerator::workerSeed(1, 3), 0x9E3779B9ull + 3);
    EXPECT_EQ(OpGenerator::workerSeed(7, 2),
              7ull * 0x9E3779B9ull + 2);
}

TEST(WorkloadSpec, RankToKeyScramblesAcrossTheKeyspace)
{
    // rankToKey is a mix64 scramble (YCSB-style), not a bijection:
    // adjacent popularity ranks must land on unrelated keys so hot
    // keys spread across shards, and the image must cover a healthy
    // share of the keyspace (≈ 1-1/e of it for a random map).
    const std::uint64_t keys = 4096;
    std::map<std::uint64_t, int> seen;
    std::uint64_t adjacent = 0;
    for (std::uint64_t rank = 0; rank < keys; ++rank) {
        const auto key = rankToKey(rank, keys);
        ASSERT_GE(key, 1u);
        ASSERT_LE(key, keys);
        ++seen[key];
        if (rank > 0 &&
            std::max(key, rankToKey(rank - 1, keys)) -
                    std::min(key, rankToKey(rank - 1, keys)) ==
                1)
            ++adjacent;
    }
    EXPECT_GT(seen.size(), keys / 2);
    EXPECT_LT(seen.size(), keys); // collisions expected: a scramble
    EXPECT_LT(adjacent, keys / 64); // no sequential structure
}

TEST(WorkloadSpec, NamesRoundTripAndMisspellingsAreRejected)
{
    // Every CLI parses --mix, --dist and --arrival through these; an
    // unknown name must be an error, not a silent default.
    for (const Mix mix : {Mix::A, Mix::B, Mix::C})
        EXPECT_EQ(parseMix(mixName(mix)), mix);
    for (const KeyDist dist : {KeyDist::Uniform, KeyDist::Zipfian})
        EXPECT_EQ(parseKeyDist(keyDistName(dist)), dist);
    for (const net::Arrival arrival :
         {net::Arrival::Fixed, net::Arrival::Poisson})
        EXPECT_EQ(net::parseArrival(net::arrivalName(arrival)), arrival);

    for (const char *bad : {"D", "a", "", "AB"})
        EXPECT_FALSE(parseMix(bad)) << bad;
    for (const char *bad : {"unifrom", "Zipfian", ""})
        EXPECT_FALSE(parseKeyDist(bad)) << bad;
    for (const char *bad : {"poison", "Fixed", ""})
        EXPECT_FALSE(net::parseArrival(bad)) << bad;
}

} // namespace
} // namespace specpmt::kv
