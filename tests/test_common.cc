/**
 * @file
 * Unit tests for the common utility layer: CRC32C, mixing hashes,
 * deterministic RNG, statistics helpers, and geometry helpers.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/crc32.hh"
#include "common/hash.hh"
#include "common/rand.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace specpmt
{
namespace
{

TEST(Crc32, KnownVectors)
{
    // CRC32C ("123456789") = 0xE3069283 is the canonical check value.
    EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
    EXPECT_EQ(crc32cTable("123456789", 9), 0xE3069283u);
    EXPECT_EQ(crc32c("", 0), 0u);
}

TEST(Crc32, KernelMatchesTableReference)
{
    // On SSE4.2 CPUs crc32c() runs on the crc32 instruction; either
    // way it must agree with the table loop on every length, start
    // alignment and seed, one-shot and chained.
    RecordProperty("hardware", crc32cHardware() ? "sse4.2" : "table");
    Rng rng(0xC4C32C);
    std::vector<std::uint8_t> buffer(300 + 8);
    for (int trial = 0; trial < 2000; ++trial) {
        for (auto &byte : buffer)
            byte = static_cast<std::uint8_t>(rng.next());
        const std::size_t start = rng.below(8);
        const std::size_t size = rng.below(301);
        const auto seed = static_cast<std::uint32_t>(rng.next());
        const std::uint8_t *data = buffer.data() + start;
        ASSERT_EQ(crc32c(data, size, seed), crc32cTable(data, size, seed))
            << "size " << size << " start " << start << " seed " << seed;

        const std::size_t split = size == 0 ? 0 : rng.below(size + 1);
        const std::uint32_t chained =
            crc32c(data + split, size - split, crc32c(data, split, seed));
        ASSERT_EQ(chained, crc32cTable(data, size, seed))
            << "size " << size << " split " << split;
    }
}

TEST(Crc32, IncrementalMatchesOneShot)
{
    const char data[] = "speculative logging amortizes fences";
    const std::size_t n = sizeof(data) - 1;
    const std::uint32_t whole = crc32c(data, n);
    for (std::size_t split = 0; split <= n; ++split) {
        const std::uint32_t first = crc32c(data, split);
        const std::uint32_t second = crc32c(data + split, n - split,
                                            first);
        EXPECT_EQ(second, whole) << "split at " << split;
    }
}

TEST(Crc32, DetectsSingleBitFlips)
{
    std::uint8_t buffer[64];
    for (std::size_t i = 0; i < sizeof(buffer); ++i)
        buffer[i] = static_cast<std::uint8_t>(i * 7 + 1);
    const std::uint32_t clean = crc32c(buffer, sizeof(buffer));
    for (std::size_t byte = 0; byte < sizeof(buffer); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            buffer[byte] ^= (1u << bit);
            EXPECT_NE(crc32c(buffer, sizeof(buffer)), clean);
            buffer[byte] ^= (1u << bit);
        }
    }
}

TEST(Hash, Mix64IsInjectiveOnSmallRange)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 10000; ++i)
        EXPECT_TRUE(seen.insert(mix64(i)).second);
}

TEST(Hash, CombineOrderMatters)
{
    EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1));
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(7), b(7), c(8);
    for (int i = 0; i < 100; ++i) {
        const auto va = a.next();
        EXPECT_EQ(va, b.next());
        (void)c;
    }
    Rng d(8);
    EXPECT_NE(Rng(7).next(), d.next());
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(3);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 20000; ++i) {
        const auto v = rng.range(5, 8);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 8u);
        saw_lo |= (v == 5);
        saw_hi |= (v == 8);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIsRoughlyUniform)
{
    Rng rng(11);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Stats, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Types, LineGeometry)
{
    EXPECT_EQ(lineBase(0), 0u);
    EXPECT_EQ(lineBase(63), 0u);
    EXPECT_EQ(lineBase(64), 64u);
    EXPECT_EQ(lineIndex(127), 1u);
    EXPECT_EQ(lineSpan(0, 0), 0u);
    EXPECT_EQ(lineSpan(0, 1), 1u);
    EXPECT_EQ(lineSpan(63, 2), 2u);
    EXPECT_EQ(lineSpan(0, 64), 1u);
    EXPECT_EQ(lineSpan(0, 65), 2u);
    EXPECT_EQ(pageBase(4097), 4096u);
    EXPECT_EQ(pageIndex(8191), 1u);
}

} // namespace
} // namespace specpmt
