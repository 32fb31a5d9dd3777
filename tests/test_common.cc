/**
 * @file
 * Unit tests for the common utility layer: CRC32C, mixing hashes,
 * deterministic RNG, statistics helpers, geometry helpers, and the
 * command-line flag parser.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/crc32.hh"
#include "common/flags.hh"
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

/** Parse @p args, preceded by a program name, with @p flags. */
std::string
parseArgs(const Flags &flags, std::vector<const char *> args)
{
    args.insert(args.begin(), "tool");
    return flags.parse(static_cast<int>(args.size()), args.data());
}

enum class Color
{
    Red,
    Blue,
};

std::optional<Color>
parseColor(std::string_view name)
{
    if (name == "red")
        return Color::Red;
    if (name == "blue")
        return Color::Blue;
    return std::nullopt;
}

TEST(Flags, AcceptsEveryForm)
{
    bool keep = false;
    std::string dir = "unset";
    unsigned threads = 4;
    std::uint16_t port = 1;
    std::uint64_t ops = 0;
    int shard = -1;
    long count = 7;
    double seconds = 0, qps = 1, p = 0;
    Color color = Color::Red;
    std::vector<std::string> runtimes;
    std::vector<Color> colors;
    std::vector<std::string> seen;
    std::vector<std::string> files;
    Flags flags;
    flags.flag("--keep", keep)
        .text("--dir", dir)
        .count("--threads", threads, 1)
        .count("--port", port)
        .count("--ops", ops)
        .count("--shard", shard, -1)
        .count("--count", count, -1)
        .real("--seconds", seconds)
        .real("--qps", qps)
        .real("--p", p, 0, 1)
        .choice("--color", color, parseColor)
        .list("--runtimes", runtimes)
        .list("--colors", colors, parseColor)
        .option("--require",
                [&seen](std::string_view v) {
                    seen.emplace_back(v);
                    return std::string();
                })
        .positionals(files);
    EXPECT_EQ(parseArgs(flags, {"a.prom", "--keep", "--dir=",
                                "--threads=1", "--port=65535",
                                "--ops=18446744073709551615",
                                "--shard=-1", "--count=3", "-",
                                "--seconds=0", "--qps=2.5e3", "--p=1",
                                "--color=blue", "--runtimes=spec,,pmdk,",
                                "--colors=blue,red", "--require=a>=1",
                                "--require=b==2", "b.json"}),
              "");
    EXPECT_TRUE(keep);
    EXPECT_EQ(dir, "");
    EXPECT_EQ(threads, 1u);
    EXPECT_EQ(port, 65535u);
    EXPECT_EQ(ops, UINT64_MAX);
    EXPECT_EQ(shard, -1);
    EXPECT_EQ(count, 3);
    EXPECT_EQ(seconds, 0.0);
    EXPECT_EQ(qps, 2500.0);
    EXPECT_EQ(p, 1.0);
    EXPECT_EQ(color, Color::Blue);
    EXPECT_EQ(runtimes, (std::vector<std::string>{"spec", "pmdk"}));
    EXPECT_EQ(colors, (std::vector<Color>{Color::Blue, Color::Red}));
    EXPECT_EQ(seen, (std::vector<std::string>{"a>=1", "b==2"}));
    EXPECT_EQ(files, (std::vector<std::string>{"a.prom", "-", "b.json"}));

    // A later occurrence wins; parsing starts at the given index.
    const char *argv[] = {"tool", "serve", "--threads=2", "--threads=9"};
    EXPECT_EQ(flags.parse(4, argv, 2), "");
    EXPECT_EQ(threads, 9u);
    EXPECT_EQ(files.size(), 3u);
}

TEST(Flags, SwitchAndOptionMayShareAName)
{
    bool json = false;
    std::string path = "unset";
    Flags flags;
    flags.flag("--json", json).text("--json", path);
    EXPECT_EQ(parseArgs(flags, {"--json"}), "");
    EXPECT_TRUE(json);
    EXPECT_EQ(path, "unset");
    EXPECT_EQ(parseArgs(flags, {"--json=out.json"}), "");
    EXPECT_EQ(path, "out.json");
}

TEST(Flags, RejectsMisusedArguments)
{
    bool keep = false;
    unsigned ops = 0;
    Flags flags;
    flags.flag("--keep", keep).count("--ops", ops);
    EXPECT_EQ(parseArgs(flags, {"--nope=1"}), "unknown argument: --nope=1");
    EXPECT_EQ(parseArgs(flags, {"-x"}), "unknown argument: -x");
    EXPECT_EQ(parseArgs(flags, {"file"}), "unknown argument: file");
    EXPECT_EQ(parseArgs(flags, {"--keep=1"}), "--keep takes no value");
    EXPECT_EQ(parseArgs(flags, {"--ops"}), "--ops needs a value");
    // The first error wins and the arguments after it are not applied.
    EXPECT_EQ(parseArgs(flags, {"--ops=x", "--keep"}),
              "--ops=x is not an unsigned integer");
    EXPECT_FALSE(keep);
}

TEST(Flags, RejectsMalformedIntegers)
{
    unsigned threads = 4;
    std::uint16_t port = 0;
    std::uint64_t ops = 0;
    int shard = -1;
    Flags flags;
    flags.count("--threads", threads, 1)
        .count("--port", port)
        .count("--ops", ops)
        .count("--shard", shard, -1, 7);
    for (const char *bad : {"--ops=", "--ops=-1", "--ops=+5", "--ops=10k",
                            "--ops=1.5", "--ops=0x10", "--ops= 1"}) {
        const std::string value = std::string(bad).substr(6);
        EXPECT_EQ(parseArgs(flags, {bad}),
                  "--ops=" + value + " is not an unsigned integer")
            << bad;
    }
    EXPECT_EQ(parseArgs(flags, {"--threads=-1"}),
              "--threads=-1 is not an unsigned integer");
    EXPECT_EQ(parseArgs(flags, {"--threads=0"}),
              "--threads must be at least 1");
    EXPECT_EQ(parseArgs(flags, {"--threads=4294967296"}),
              "--threads must be at most 4294967295");
    EXPECT_EQ(parseArgs(flags, {"--port=70000"}),
              "--port must be at most 65535");
    EXPECT_EQ(parseArgs(flags, {"--ops=18446744073709551616"}),
              "--ops must be at most 18446744073709551615");
    EXPECT_EQ(parseArgs(flags, {"--shard=-2"}),
              "--shard must be at least -1");
    EXPECT_EQ(parseArgs(flags, {"--shard=8"}), "--shard must be at most 7");
    EXPECT_EQ(parseArgs(flags, {"--shard=-99999999999999999999"}),
              "--shard must be at least -1");
    EXPECT_EQ(parseArgs(flags, {"--shard=+1"}),
              "--shard=+1 is not an integer");
    EXPECT_EQ(threads, 4u);
    EXPECT_EQ(port, 0u);
    EXPECT_EQ(shard, -1);
}

TEST(Flags, RejectsMalformedReals)
{
    double seconds = 9, qps = 9, p = 9;
    Flags flags;
    flags.real("--seconds", seconds)
        .real("--qps", qps)
        .real("--p", p, 0, 1);
    for (const char *bad : {"--qps=", "--qps=4k", "--qps=+1", "--qps=inf",
                            "--qps=nan", "--qps=1e999", "--qps=0x1p3"}) {
        const std::string value = std::string(bad).substr(6);
        EXPECT_EQ(parseArgs(flags, {bad}),
                  "--qps=" + value + " is not a finite number")
            << bad;
    }
    EXPECT_EQ(parseArgs(flags, {"--seconds=-1"}),
              "--seconds must be at least 0");
    EXPECT_EQ(parseArgs(flags, {"--p=1.5"}), "--p must be at most 1");
    EXPECT_EQ(parseArgs(flags, {"--p=-0.5"}), "--p must be at least 0");
    EXPECT_EQ(seconds, 9.0);
    EXPECT_EQ(qps, 9.0);
    EXPECT_EQ(p, 9.0);

    double value = 0;
    EXPECT_TRUE(parseFinite("-2.5e-3", value));
    EXPECT_EQ(value, -2.5e-3);
    EXPECT_FALSE(parseFinite("1 ", value));
    EXPECT_FALSE(parseFinite("", value));
    EXPECT_EQ(value, -2.5e-3);
}

TEST(Flags, RejectsUnknownNamesAndEmptyLists)
{
    Color color = Color::Red;
    std::vector<std::string> runtimes = {"spec"};
    std::vector<Color> colors;
    Flags flags;
    flags.choice("--color", color, parseColor)
        .list("--runtimes", runtimes)
        .list("--colors", colors, parseColor)
        .option("--require", [](std::string_view v) {
            return "bad --require=" + std::string(v);
        });
    EXPECT_EQ(parseArgs(flags, {"--color=green"}),
              "unknown --color value: green");
    EXPECT_EQ(parseArgs(flags, {"--color="}), "unknown --color value: ");
    EXPECT_EQ(parseArgs(flags, {"--colors=red,green"}),
              "unknown --colors value: green");
    EXPECT_EQ(parseArgs(flags, {"--runtimes="}),
              "--runtimes needs at least one name");
    EXPECT_EQ(parseArgs(flags, {"--colors=,"}),
              "--colors needs at least one name");
    EXPECT_EQ(parseArgs(flags, {"--require=x"}), "bad --require=x");
    EXPECT_EQ(color, Color::Red);
    EXPECT_EQ(runtimes, (std::vector<std::string>{"spec"}));
    EXPECT_TRUE(colors.empty());
}

} // namespace
} // namespace specpmt
