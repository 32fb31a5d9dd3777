/**
 * @file
 * Tests of the emulated persistence domain: store/flush/fence
 * semantics, crash policies, crash injection, traffic accounting, a
 * new device's zeroed and resident memory, a reference model of the
 * persistence semantics, the in-place crash against crashImage(), the
 * modelled time and counts of loads that skip the device lock, and
 * concurrency stress tests of the lock and of those loads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

#include "common/rand.hh"
#include "obs/metrics.hh"
#include "pmem/pmem_device.hh"

namespace specpmt::pmem
{
namespace
{

TEST(PmemDevice, StoresAreVolatileUntilFencedFlush)
{
    PmemDevice dev(1 << 16);
    dev.storeT<std::uint64_t>(128, 0xABCDu);
    EXPECT_EQ(dev.loadT<std::uint64_t>(128), 0xABCDu);

    // Adversarial crash: nothing unfenced persists.
    auto image = dev.crashImage(CrashPolicy::nothing());
    std::uint64_t persisted;
    std::memcpy(&persisted, image.data() + 128, 8);
    EXPECT_EQ(persisted, 0u);

    dev.clwb(128);
    image = dev.crashImage(CrashPolicy::nothing());
    std::memcpy(&persisted, image.data() + 128, 8);
    EXPECT_EQ(persisted, 0u) << "clwb without sfence is not durable";

    dev.sfence();
    image = dev.crashImage(CrashPolicy::nothing());
    std::memcpy(&persisted, image.data() + 128, 8);
    EXPECT_EQ(persisted, 0xABCDu);
}

TEST(PmemDevice, EverythingDrainsPolicyPersistsDirtyLines)
{
    PmemDevice dev(1 << 16);
    dev.storeT<std::uint64_t>(0, 7);
    auto image = dev.crashImage(CrashPolicy::everything());
    std::uint64_t persisted;
    std::memcpy(&persisted, image.data(), 8);
    EXPECT_EQ(persisted, 7u);
}

TEST(PmemDevice, ClwbSnapshotsAtFlushTime)
{
    PmemDevice dev(1 << 16);
    dev.storeT<std::uint64_t>(0, 1);
    dev.clwb(0);
    dev.storeT<std::uint64_t>(0, 2); // re-dirty after flush
    dev.sfence();

    // The fence persists the snapshot taken at clwb time (value 1);
    // value 2 is still only in the cache.
    auto image = dev.crashImage(CrashPolicy::nothing());
    std::uint64_t persisted;
    std::memcpy(&persisted, image.data(), 8);
    EXPECT_EQ(persisted, 1u);
    EXPECT_TRUE(dev.isLineDirty(0));
}

TEST(PmemDevice, RandomPolicyIsReproducible)
{
    PmemDevice dev(1 << 16);
    for (unsigned i = 0; i < 64; ++i)
        dev.storeT<std::uint64_t>(i * 64, i + 1);
    const auto a = dev.crashImage(CrashPolicy::random(99));
    const auto b = dev.crashImage(CrashPolicy::random(99));
    const auto c = dev.crashImage(CrashPolicy::random(100));
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST(PmemDevice, SimulateCrashCollapsesState)
{
    PmemDevice dev(1 << 16);
    dev.storeT<std::uint64_t>(64, 5);
    dev.clwb(64);
    dev.sfence();
    dev.storeT<std::uint64_t>(64, 9); // dirty on top

    dev.simulateCrash(CrashPolicy::nothing());
    EXPECT_EQ(dev.loadT<std::uint64_t>(64), 5u);
    EXPECT_EQ(dev.dirtyLineCount(), 0u);
    EXPECT_EQ(dev.stats().crashes, 1u);
}

TEST(PmemDevice, NtStoreBypassesCacheButNeedsFence)
{
    PmemDevice dev(1 << 16);
    const std::uint64_t value = 0xF00Du;
    dev.ntstore(256, &value, sizeof(value));
    EXPECT_FALSE(dev.isLineDirty(256));

    auto image = dev.crashImage(CrashPolicy::nothing());
    std::uint64_t persisted;
    std::memcpy(&persisted, image.data() + 256, 8);
    EXPECT_EQ(persisted, 0u);

    dev.sfence();
    image = dev.crashImage(CrashPolicy::nothing());
    std::memcpy(&persisted, image.data() + 256, 8);
    EXPECT_EQ(persisted, value);
}

TEST(PmemDevice, ZeroLengthNtstoreIsANoOp)
{
    PmemDevice dev(1 << 16);
    const std::uint64_t value = 0xF00Du;
    dev.ntstore(100, &value, 0);
    EXPECT_EQ(dev.stats().stores, 0u);
    EXPECT_EQ(dev.stats().totalClwbs(), 0u);
    EXPECT_EQ(dev.persistEventId(), 0u);
    EXPECT_EQ(dev.crashImage(CrashPolicy::everything()),
              dev.crashImage(CrashPolicy::nothing()));
}

TEST(PmemDevice, DrainAllPersistsEverything)
{
    PmemDevice dev(1 << 16);
    for (unsigned i = 0; i < 100; ++i)
        dev.storeT<std::uint64_t>(i * 64, i);
    dev.drainAll();
    EXPECT_EQ(dev.dirtyLineCount(), 0u);
    auto image = dev.crashImage(CrashPolicy::nothing());
    for (unsigned i = 0; i < 100; ++i) {
        std::uint64_t persisted;
        std::memcpy(&persisted, image.data() + i * 64, 8);
        EXPECT_EQ(persisted, i);
    }
}

TEST(PmemDevice, RedundantClwbOfCleanLineIsFree)
{
    PmemDevice dev(1 << 16);
    dev.clwb(0);
    EXPECT_EQ(dev.stats().totalClwbs(), 0u);
    dev.storeT<std::uint64_t>(0, 1);
    dev.clwb(0);
    dev.clwb(0); // second flush: line already pending, not dirty
    EXPECT_EQ(dev.stats().totalClwbs(), 1u);
}

TEST(PmemDevice, TrafficClassesAreSeparated)
{
    PmemDevice dev(1 << 16);
    dev.storeT<std::uint64_t>(0, 1);
    dev.clwb(0, TrafficClass::Data);
    dev.storeT<std::uint64_t>(64, 1);
    dev.clwb(64, TrafficClass::Log);
    dev.storeT<std::uint64_t>(128, 1);
    dev.clwb(128, TrafficClass::Meta);
    const auto &stats = dev.stats();
    EXPECT_EQ(stats.clwbs[0], 1u);
    EXPECT_EQ(stats.clwbs[1], 1u);
    EXPECT_EQ(stats.clwbs[2], 1u);
}

TEST(PmemDevice, MultiLineStoreDirtiesAllLines)
{
    PmemDevice dev(1 << 16);
    std::uint8_t buffer[200] = {1};
    dev.store(60, buffer, sizeof(buffer)); // spans lines 0..4
    EXPECT_EQ(dev.dirtyLineCount(), 5u);
}

TEST(PmemDevice, CrashInjectionFiresAtExactOp)
{
    PmemDevice dev(1 << 16);
    dev.armCrash(2);
    dev.storeT<std::uint64_t>(0, 1);  // op 0
    dev.storeT<std::uint64_t>(8, 2);  // op 1
    EXPECT_THROW(dev.storeT<std::uint64_t>(16, 3),
                 SimulatedCrash); // op 2: boom, store not applied
    EXPECT_EQ(dev.loadT<std::uint64_t>(16), 0u);
    // Countdown disarms itself after firing.
    dev.storeT<std::uint64_t>(24, 4);
    EXPECT_EQ(dev.loadT<std::uint64_t>(24), 4u);
}

TEST(PmemDevice, CrashInjectionIsThreadLocal)
{
    PmemDevice dev(1 << 16);
    dev.armCrash(0);
    std::thread other([&] {
        // A different thread must not trip the armed countdown.
        for (int i = 0; i < 10; ++i)
            dev.storeT<std::uint64_t>(512 + i * 8, i);
    });
    other.join();
    EXPECT_EQ(dev.loadT<std::uint64_t>(512), 0u);
    EXPECT_THROW(dev.storeT<std::uint64_t>(0, 1), SimulatedCrash);
}

TEST(PmemDevice, ResetFromImageRestoresBothImages)
{
    PmemDevice dev(1 << 16);
    dev.storeT<std::uint64_t>(0, 42);
    dev.clwb(0);
    dev.sfence();
    const auto image = dev.crashImage(CrashPolicy::nothing());

    PmemDevice dev2(1 << 16);
    dev2.resetFromImage(image);
    EXPECT_EQ(dev2.loadT<std::uint64_t>(0), 42u);
    const auto image2 = dev2.crashImage(CrashPolicy::nothing());
    EXPECT_EQ(image2, image);
}

TEST(PmemDevice, OutOfRangeAccessDies)
{
    PmemDevice dev(1 << 12);
    EXPECT_DEATH(dev.storeT<std::uint64_t>((1 << 12) - 4, 1), "range");
}

bool
allZero(const std::uint8_t *bytes, std::size_t size)
{
    return std::all_of(bytes, bytes + size,
                       [](std::uint8_t b) { return b == 0; });
}

/** Pages of [bytes, bytes+size) that mincore reports not resident. */
std::size_t
nonResidentPages(const std::uint8_t *bytes, std::size_t size)
{
    const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
    const std::uintptr_t start =
        reinterpret_cast<std::uintptr_t>(bytes) & ~(page - 1);
    const std::size_t span =
        reinterpret_cast<std::uintptr_t>(bytes) + size - start;
    std::vector<unsigned char> pages((span + page - 1) / page);
    EXPECT_EQ(::mincore(reinterpret_cast<void *>(start), span, pages.data()),
              0);
    return static_cast<std::size_t>(
        std::count_if(pages.begin(), pages.end(),
                      [](unsigned char p) { return (p & 1) == 0; }));
}

TEST(PmemDevice, NewDeviceIsZeroAndResident)
{
    // Sizes off the page and 2 MiB boundaries, so that an array carved
    // or rounded into its neighbour shows up at the device's last line.
    for (const std::size_t size :
         {std::size_t{64} << 10, (std::size_t{3} << 20) + kCacheLineSize,
          std::size_t{64} << 20}) {
        SCOPED_TRACE(size);
        PmemDevice dev(size);
        ASSERT_EQ(dev.size(), size);
        EXPECT_EQ(nonResidentPages(dev.raw(), size), 0u);
        EXPECT_EQ(nonResidentPages(dev.persistentRaw(), size), 0u);
        EXPECT_TRUE(allZero(dev.raw(), size));
        EXPECT_TRUE(allZero(dev.persistentRaw(), size));
        EXPECT_EQ(dev.dirtyLineCount(), 0u);

        const PmOff last = size - kCacheLineSize;
        std::array<std::uint8_t, kCacheLineSize> line{};
        line.fill(0xA5);
        dev.store(last, line.data(), line.size());
        EXPECT_EQ(dev.dirtyLineCount(), 1u);
        EXPECT_TRUE(dev.isLineDirty(last));
        dev.clwb(last);
        dev.sfence();
        EXPECT_EQ(std::memcmp(dev.raw() + last, line.data(), line.size()), 0);
        EXPECT_EQ(std::memcmp(dev.persistentRaw() + last, line.data(),
                              line.size()),
                  0);
        // Everything before the last line stays zero in both images,
        // and no other line became dirty or pending.
        EXPECT_TRUE(allZero(dev.raw(), last));
        EXPECT_TRUE(allZero(dev.persistentRaw(), last));
        EXPECT_EQ(dev.dirtyLineCount(), 0u);
        EXPECT_FALSE(dev.isLineDirty(0));
        EXPECT_FALSE(dev.isLineDirty(last - kCacheLineSize));
        const auto image = dev.crashImage(CrashPolicy::everything());
        EXPECT_EQ(std::memcmp(image.data(), dev.persistentRaw(), size), 0);
    }
}

/**
 * The device's persistence semantics written out with ordered
 * containers: dirty lines in a std::set, pending snapshots in a
 * std::map. crashImage() draws RandomSubset decisions for pending
 * lines in ascending order, then for dirty lines in ascending order,
 * one Rng draw each; crashmatrix replay tokens and the golden files
 * depend on that order.
 */
class ReferenceDevice
{
  public:
    using Line = std::array<std::uint8_t, kCacheLineSize>;

    explicit ReferenceDevice(std::size_t size)
        : volatile_(size, 0), persistent_(size, 0)
    {}

    void
    store(PmOff off, const std::uint8_t *src, std::size_t size)
    {
        if (size == 0)
            return;
        ++events;
        std::memcpy(volatile_.data() + off, src, size);
        for (auto line = lineIndex(off); line <= lineIndex(off + size - 1);
             ++line)
            dirty.insert(line);
        ++stats.stores;
        stats.storeBytes += size;
    }

    void
    clwb(std::uint64_t line, TrafficClass cls)
    {
        if (!dirty.count(line))
            return;
        ++events;
        pending[line] = lineOf(volatile_, line);
        dirty.erase(line);
        ++stats.clwbs[static_cast<unsigned>(cls)];
    }

    void
    clwbRange(PmOff off, std::size_t size, TrafficClass cls)
    {
        if (size == 0)
            return;
        for (auto line = lineIndex(off); line <= lineIndex(off + size - 1);
             ++line)
            clwb(line, cls);
    }

    void
    ntstore(PmOff off, const std::uint8_t *src, std::size_t size,
            TrafficClass cls)
    {
        ++events;
        std::memcpy(volatile_.data() + off, src, size);
        ++stats.stores;
        stats.storeBytes += size;
        for (auto line = lineIndex(off); line <= lineIndex(off + size - 1);
             ++line) {
            pending[line] = lineOf(volatile_, line);
            dirty.erase(line);
            ++stats.clwbs[static_cast<unsigned>(cls)];
        }
    }

    void
    adrPersist(PmOff off, std::size_t size, TrafficClass cls)
    {
        if (size == 0)
            return;
        ++events;
        for (auto line = lineIndex(off); line <= lineIndex(off + size - 1);
             ++line) {
            setLine(persistent_, line, lineOf(volatile_, line));
            dirty.erase(line);
            pending.erase(line);
            ++stats.clwbs[static_cast<unsigned>(cls)];
        }
    }

    void
    sfence()
    {
        ++events;
        if (!dropFences)
            promotePending();
        ++stats.fences;
    }

    void
    drainAll(TrafficClass cls)
    {
        const std::set<std::uint64_t> lines = dirty;
        for (std::uint64_t line : lines)
            clwb(line, cls);
        promotePending();
        ++stats.fences;
    }

    std::vector<std::uint8_t>
    crashImage(const CrashPolicy &policy) const
    {
        std::vector<std::uint8_t> image = persistent_;
        Rng rng(policy.seed);
        auto persists = [&] {
            switch (policy.mode) {
              case CrashMode::NothingExtra:
                return false;
              case CrashMode::EverythingDrains:
                return true;
              case CrashMode::RandomSubset:
                return rng.chance(policy.persistProbability);
            }
            return false;
        };
        for (const auto &[line, snapshot] : pending)
            if (persists())
                setLine(image, line, snapshot);
        for (std::uint64_t line : dirty)
            if (persists())
                setLine(image, line, lineOf(volatile_, line));
        return image;
    }

    void
    simulateCrash(const CrashPolicy &policy)
    {
        persistent_ = crashImage(policy);
        volatile_ = persistent_;
        dirty.clear();
        pending.clear();
        ++stats.crashes;
    }

    const std::vector<std::uint8_t> &
    volatileImage() const
    {
        return volatile_;
    }

    std::set<std::uint64_t> dirty;
    std::map<std::uint64_t, Line> pending;
    DeviceStats stats;
    std::uint64_t events = 0;
    bool dropFences = false;

  private:
    static Line
    lineOf(const std::vector<std::uint8_t> &image, std::uint64_t line)
    {
        Line out;
        std::memcpy(out.data(), image.data() + line * kCacheLineSize,
                    kCacheLineSize);
        return out;
    }

    static void
    setLine(std::vector<std::uint8_t> &image, std::uint64_t line,
            const Line &bytes)
    {
        std::memcpy(image.data() + line * kCacheLineSize, bytes.data(),
                    kCacheLineSize);
    }

    void
    promotePending()
    {
        for (const auto &[line, snapshot] : pending)
            setLine(persistent_, line, snapshot);
        pending.clear();
    }

    std::vector<std::uint8_t> volatile_;
    std::vector<std::uint8_t> persistent_;
};

void
expectSameState(const PmemDevice &dev, const ReferenceDevice &model,
                std::uint64_t crashSeed)
{
    for (const CrashPolicy &policy :
         {CrashPolicy::nothing(), CrashPolicy::everything(),
          CrashPolicy::random(crashSeed),
          CrashPolicy::random(crashSeed, 0.2)})
        ASSERT_EQ(dev.crashImage(policy), model.crashImage(policy))
            << crashModeName(policy.mode) << " seed " << policy.seed;
    ASSERT_EQ(std::memcmp(dev.raw(), model.volatileImage().data(),
                          model.volatileImage().size()),
              0);
    for (std::uint64_t line = 0;
         line < model.volatileImage().size() / kCacheLineSize; ++line)
        ASSERT_EQ(dev.isLineDirty(line * kCacheLineSize),
                  model.dirty.count(line) > 0)
            << "line " << line;
    ASSERT_EQ(dev.dirtyLineCount(), model.dirty.size());
    const DeviceStats &got = dev.stats();
    const DeviceStats &want = model.stats;
    ASSERT_EQ(got.stores, want.stores);
    ASSERT_EQ(got.storeBytes, want.storeBytes);
    ASSERT_EQ(got.loads, want.loads);
    for (unsigned cls = 0; cls < 3; ++cls)
        ASSERT_EQ(got.clwbs[cls], want.clwbs[cls]) << "class " << cls;
    ASSERT_EQ(got.fences, want.fences);
    ASSERT_EQ(got.crashes, want.crashes);
    ASSERT_EQ(dev.persistEventId(), model.events);
}

TEST(PmemDevice, MatchesReferenceModelOnRandomStreams)
{
    constexpr std::size_t kLines = 256;
    constexpr std::size_t kSize = kLines * kCacheLineSize;
    constexpr unsigned kOps = 12000;
    constexpr unsigned kCheckEvery = 97;

    for (std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(seed);
        PmemDevice dev(kSize);
        ReferenceDevice model(kSize);
        Rng rng(seed);
        std::vector<std::uint8_t> buffer(4 * kCacheLineSize);
        // Mostly short accesses, some spanning up to four lines.
        auto pickSpan = [&](std::size_t minSize) {
            const std::size_t size = rng.chance(0.8)
                ? rng.range(minSize, 16)
                : rng.range(minSize, buffer.size());
            const PmOff off = rng.below(kSize - size + 1);
            return std::pair<PmOff, std::size_t>(off, size);
        };
        auto pickClass = [&] {
            return static_cast<TrafficClass>(rng.below(3));
        };

        for (unsigned op = 0; op < kOps; ++op) {
            const std::uint64_t kind = rng.below(100);
            if (kind < 35) {
                const auto [off, size] = pickSpan(0);
                for (std::size_t i = 0; i < size; ++i)
                    buffer[i] = static_cast<std::uint8_t>(rng.next());
                dev.store(off, buffer.data(), size);
                model.store(off, buffer.data(), size);
            } else if (kind < 45) {
                const auto [off, size] = pickSpan(1);
                std::vector<std::uint8_t> got(size);
                dev.load(off, got.data(), size);
                ++model.stats.loads;
                ASSERT_EQ(std::memcmp(got.data(),
                                      model.volatileImage().data() + off,
                                      size),
                          0);
            } else if (kind < 60) {
                // Half the flushes aim at a line the model knows is
                // dirty; the rest land on clean or pending lines too.
                std::uint64_t line = rng.below(kLines);
                if (rng.chance(0.5) && !model.dirty.empty()) {
                    const auto it = model.dirty.lower_bound(line);
                    line = it != model.dirty.end() ? *it
                                                   : *model.dirty.begin();
                }
                const TrafficClass cls = pickClass();
                dev.clwb(line * kCacheLineSize + rng.below(kCacheLineSize),
                         cls);
                model.clwb(line, cls);
            } else if (kind < 68) {
                const auto [off, size] = pickSpan(0);
                const TrafficClass cls = pickClass();
                dev.clwbRange(off, size, cls);
                model.clwbRange(off, size, cls);
            } else if (kind < 74) {
                const auto [off, size] = pickSpan(1);
                for (std::size_t i = 0; i < size; ++i)
                    buffer[i] = static_cast<std::uint8_t>(rng.next());
                const TrafficClass cls = pickClass();
                dev.ntstore(off, buffer.data(), size, cls);
                model.ntstore(off, buffer.data(), size, cls);
            } else if (kind < 78) {
                const auto [off, size] = pickSpan(0);
                const TrafficClass cls = pickClass();
                dev.adrPersist(off, size, cls);
                model.adrPersist(off, size, cls);
            } else if (kind < 94) {
                dev.sfence();
                model.sfence();
            } else if (kind < 96) {
                const TrafficClass cls = pickClass();
                dev.drainAll(cls);
                model.drainAll(cls);
            } else if (kind < 99) {
                model.dropFences = !model.dropFences;
                dev.injectFault(model.dropFences ? DeviceFault::DropFences
                                                 : DeviceFault::None);
            } else if (rng.chance(0.2)) {
                const CrashPolicy policy = CrashPolicy::random(rng.next());
                dev.simulateCrash(policy);
                model.simulateCrash(policy);
            }
            if (op % kCheckEvery == 0 || op + 1 == kOps) {
                ASSERT_NO_FATAL_FAILURE(
                    expectSameState(dev, model, seed * 1000 + op));
            }
        }
        EXPECT_GT(model.stats.fences, 0u);
        EXPECT_GT(model.stats.totalClwbs(), 0u);
    }
}

/**
 * Drive @p dev with a seeded stream of every persistence operation:
 * multi-line stores, clwb and clwbRange, ntstore, adrPersist, sfence,
 * drainAll, DropFences toggles and latent-corruption fault plans.
 * @p crash(op) runs between operations.
 */
template <typename Crash>
void
runCrashStream(PmemDevice &dev, std::uint64_t seed, unsigned ops,
               Crash crash)
{
    Rng rng(seed);
    const std::size_t size = dev.size();
    std::vector<std::uint8_t> buffer(4 * kCacheLineSize);
    bool drop_fences = false;
    for (unsigned op = 0; op < ops; ++op) {
        const std::size_t len = rng.range(1, buffer.size());
        const PmOff off = rng.below(size - len + 1);
        const std::uint64_t kind = rng.below(100);
        if (kind < 40) {
            for (std::size_t i = 0; i < len; ++i)
                buffer[i] = static_cast<std::uint8_t>(rng.next());
            dev.store(off, buffer.data(), len);
        } else if (kind < 52) {
            dev.clwb(off);
        } else if (kind < 62) {
            dev.clwbRange(off, len);
        } else if (kind < 68) {
            for (std::size_t i = 0; i < len; ++i)
                buffer[i] = static_cast<std::uint8_t>(rng.next());
            dev.ntstore(off, buffer.data(), len);
        } else if (kind < 72) {
            dev.adrPersist(off, len);
        } else if (kind < 86) {
            dev.sfence();
        } else if (kind < 88) {
            dev.drainAll();
        } else if (kind < 91) {
            drop_fences = !drop_fences;
            dev.injectFault(drop_fences ? DeviceFault::DropFences
                                        : DeviceFault::None);
        } else if (kind < 93) {
            FaultPlan plan;
            plan.seed = rng.next();
            plan.corruptLines = 1 + rng.below(3);
            dev.applyFaultPlan(plan);
        } else {
            crash(op);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
}

TEST(PmemDevice, InPlaceCrashEqualsCrashImage)
{
    constexpr std::size_t kSize = 256 * kCacheLineSize;
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        SCOPED_TRACE(seed);
        PmemDevice dev(kSize);
        unsigned crashes = 0;
        runCrashStream(dev, seed, 6000, [&](unsigned op) {
            const CrashPolicy policies[] = {CrashPolicy::nothing(),
                                            CrashPolicy::everything(),
                                            CrashPolicy::random(op)};
            const CrashPolicy &policy = policies[crashes++ % 3];
            const auto want = dev.crashImage(policy);
            dev.simulateCrash(policy);
            ASSERT_EQ(std::memcmp(dev.raw(), want.data(), kSize), 0)
                << crashModeName(policy.mode) << " at op " << op;
            ASSERT_EQ(std::memcmp(dev.persistentRaw(), want.data(), kSize),
                      0)
                << crashModeName(policy.mode) << " at op " << op;
            ASSERT_EQ(dev.dirtyLineCount(), 0u);
            ASSERT_EQ(dev.crashImage(CrashPolicy::nothing()), want);
        });
        EXPECT_GT(crashes, 100u);
        EXPECT_EQ(dev.stats().crashes, crashes);
    }
}

TEST(PmemDevice, CrashKeepsBackingFileEqualToPersistentImage)
{
    constexpr std::size_t kSize = 256 * kCacheLineSize;
    char path[] = "/tmp/specpmt_crash_mirror.XXXXXX";
    const int fd = ::mkstemp(path);
    ASSERT_GE(fd, 0);
    ::close(fd);
    {
        PmemDevice dev(kSize, path);
        unsigned crashes = 0;
        runCrashStream(dev, 7, 3000, [&](unsigned op) {
            dev.simulateCrash(CrashPolicy::random(op));
            ++crashes;
            PmemDevice reopened(kSize, path);
            ASSERT_TRUE(reopened.hadExistingData());
            ASSERT_EQ(std::memcmp(reopened.persistentRaw(),
                                  dev.persistentRaw(), kSize),
                      0)
                << "after the crash at op " << op;
        });
        EXPECT_GT(crashes, 50u);
    }
    ::unlink(path);
}

/**
 * One fixed single-thread stream over a 64 KiB device: loads (most of
 * them unlocked, some unaligned, some across a page, some longer than
 * kUnlockedLoadBytes), stores, flush ranges and fences.
 */
void
runLoadStream(PmemDevice &dev, std::uint64_t seed, unsigned ops)
{
    Rng rng(seed);
    std::array<std::uint8_t, 1024> bytes{};
    for (unsigned op = 0; op < ops; ++op) {
        const std::size_t size =
            1 + rng.below(rng.below(10) == 0 ? bytes.size() : 200);
        const PmOff off = rng.below(dev.size() - size);
        switch (rng.below(6)) {
          case 0:
          case 1:
          case 2:
            dev.load(off, bytes.data(), size);
            break;
          case 3:
            bytes[0] = static_cast<std::uint8_t>(op);
            dev.store(off, bytes.data(), size);
            break;
          case 4:
            dev.clwbRange(off, size);
            break;
          default:
            dev.sfence();
            break;
        }
    }
}

TEST(PmemDevice, UnlockedLoadsKeepModelledTimeAndCounts)
{
    PmemDevice dev(64 << 10);
    dev.publishMetrics(); // registers the sim-ns series with their help
    const obs::Counter &loadNs = obs::Registry::global().counter(
        "specpmt_sim_ns_total", {}, {{"event", "load"}});
    const std::uint64_t loadNsBefore = loadNs.value();

    // Four phases, split by the calls that read or reset the clock
    // and the counters; the values are what the device gave when
    // every load took the lock.
    runLoadStream(dev, 1, 5000);
    EXPECT_EQ(dev.timing().now(), 313614u);
    EXPECT_EQ(dev.stats().loads, 2487u);
    dev.timeOnlyCallingThread();
    runLoadStream(dev, 2, 5000);
    EXPECT_EQ(dev.timing().now(), 680237u);
    dev.timing().reset();
    runLoadStream(dev, 3, 5000);
    EXPECT_EQ(dev.timing().now(), 376232u);
    EXPECT_EQ(dev.stats().loads, 7455u);
    dev.clearStats();
    runLoadStream(dev, 4, 5000);
    EXPECT_EQ(dev.timing().now(), 746491u);
    EXPECT_EQ(dev.stats().loads, 2453u);
    dev.publishMetrics();
    EXPECT_EQ(loadNs.value() - loadNsBefore, 31282u);
}

TEST(PmemDeviceConcurrency, ParallelFenceRoundsKeepCountsAndImages)
{
    constexpr unsigned kThreads = 4;
    constexpr unsigned kLinesPerThread = 8;
    constexpr unsigned kRounds = 4000;
    PmemDevice dev(1 << 16);

    std::atomic<bool> done{false};
    std::atomic<unsigned> observed{0};
    std::thread observer([&] {
        std::uint64_t lastEvent = 0;
        while (!done.load()) {
            const auto image = dev.crashImage(CrashPolicy::nothing());
            EXPECT_EQ(image.size(), dev.size());
            EXPECT_LE(dev.dirtyLineCount(), kThreads * kLinesPerThread);
            const std::uint64_t event = dev.persistEventId();
            EXPECT_GE(event, lastEvent);
            lastEvent = event;
            observed.fetch_add(1);
        }
    });

    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([&dev, t] {
            for (std::uint64_t round = 0; round < kRounds; ++round) {
                const PmOff off =
                    (t * kLinesPerThread + round % kLinesPerThread) *
                    kCacheLineSize;
                const std::uint64_t value = (std::uint64_t{t} << 32) | round;
                dev.storeT(off, value);
                EXPECT_EQ(dev.loadT<std::uint64_t>(off), value);
                dev.clwb(off);
                dev.sfence();
            }
        });
    }
    for (auto &worker : workers)
        worker.join();
    done.store(true);
    observer.join();
    EXPECT_GT(observed.load(), 0u);

    const std::uint64_t ops = std::uint64_t{kThreads} * kRounds;
    const DeviceStats &stats = dev.stats();
    EXPECT_EQ(stats.stores, ops);
    EXPECT_EQ(stats.loads, ops);
    EXPECT_EQ(stats.clwbs[static_cast<unsigned>(TrafficClass::Data)], ops);
    EXPECT_EQ(stats.fences, ops);
    EXPECT_EQ(dev.persistEventId(), 3 * ops);
    EXPECT_EQ(dev.dirtyLineCount(), 0u);

    // Each line holds the last value its owner fenced.
    const auto image = dev.crashImage(CrashPolicy::nothing());
    for (unsigned t = 0; t < kThreads; ++t) {
        for (std::uint64_t round = kRounds - kLinesPerThread;
             round < kRounds; ++round) {
            const PmOff off =
                (t * kLinesPerThread + round % kLinesPerThread) *
                kCacheLineSize;
            std::uint64_t persisted;
            std::memcpy(&persisted, image.data() + off, sizeof persisted);
            EXPECT_EQ(persisted, (std::uint64_t{t} << 32) | round);
        }
    }
}

TEST(PmemDeviceConcurrency, UnlockedLoadsNeverTear)
{
    // Writers store whole patterns over a 200-byte range that starts
    // mid-word and straddles the page boundary at 4 KiB, where two
    // page counters guard it; each load must return one pattern whole
    // (or the initial zeros), never a mix.
    constexpr unsigned kWriters = 2;
    constexpr unsigned kReaders = 2;
    constexpr unsigned kRounds = 50000;
    constexpr PmOff kOff = 4096 - 100 + 3;
    constexpr std::size_t kBytes = 200;
    static_assert(kBytes <= PmemDevice::kUnlockedLoadBytes);
    PmemDevice dev(1 << 16);

    // Pattern @p id: byte i is a function of both, so a shifted or
    // spliced copy shows up as a mismatch.
    auto pattern = [](std::uint32_t id) {
        std::array<std::uint8_t, kBytes> bytes{};
        if (id == 0)
            return bytes;
        for (std::size_t i = 0; i < kBytes; ++i)
            bytes[i] = static_cast<std::uint8_t>(id * 131 + i * 7 + 1);
        std::memcpy(bytes.data(), &id, sizeof id);
        return bytes;
    };

    std::atomic<unsigned> writersLeft{kWriters};
    std::atomic<std::uint64_t> torn{0};
    std::atomic<std::uint64_t> checked{0};
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < kWriters; ++w) {
        threads.emplace_back([&, w] {
            for (std::uint32_t round = 0; round < kRounds; ++round) {
                const auto bytes = pattern(1 + round * kWriters + w);
                dev.store(kOff, bytes.data(), bytes.size());
                if (round % 64 == 0) {
                    dev.clwbRange(kOff, kBytes);
                    dev.sfence();
                }
            }
            writersLeft.fetch_sub(1);
        });
    }
    for (unsigned r = 0; r < kReaders; ++r) {
        threads.emplace_back([&] {
            std::array<std::uint8_t, kBytes> seen{};
            while (writersLeft.load() != 0) {
                dev.load(kOff, seen.data(), seen.size());
                std::uint32_t id;
                std::memcpy(&id, seen.data(), sizeof id);
                if (seen != pattern(id))
                    torn.fetch_add(1);
                checked.fetch_add(1);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(torn.load(), 0u);
    EXPECT_GT(checked.load(), 0u);
    EXPECT_EQ(dev.stats().loads, checked.load());
    EXPECT_EQ(dev.stats().stores, std::uint64_t{kWriters} * kRounds);
}

} // namespace
} // namespace specpmt::pmem
