/**
 * @file
 * Microbenchmarks (google-benchmark) of the primitive costs the paper
 * reasons about: the per-update persist barrier of undo logging vs
 * the fence-free speculative append, commit anatomy, checksum cost,
 * the sequential-vs-random PM write gap of the timing model, the
 * host cost of the emulated device's own calls (loads also while
 * another thread stores) and of building one,
 * the restart path (a device crash, SpecTx recovery, a KV shard's
 * crash and recovery), and a KV shard's map creation.
 *
 * Two time domains appear here: google-benchmark measures host CPU
 * time of the emulation (a proxy for implementation overhead), and
 * each benchmark also reports the *simulated* nanoseconds per
 * operation as the "sim_ns" counter — the number the paper's claims
 * are about.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/crc32.hh"
#include "core/spec_tx.hh"
#include "kv/kv_service.hh"
#include "pmds/pm_hash_map.hh"
#include "pmem/pmem_device.hh"
#include "pmem/pmem_pool.hh"
#include "txn/runtime_factory.hh"
#include "txn/undo_tx.hh"

using namespace specpmt;

namespace
{

void
BM_UndoLoggedStore(benchmark::State &state)
{
    pmem::PmemDevice dev(64u << 20);
    pmem::PmemPool pool(dev);
    txn::PmdkUndoTx tx(pool, 1);
    const PmOff data = pool.alloc(1u << 20);

    std::uint64_t i = 0;
    for (auto _ : state) {
        tx.txBegin(0);
        tx.txStoreT<std::uint64_t>(0, data + (i % 131072) * 8, i);
        tx.txCommit(0);
        ++i;
    }
    state.counters["sim_ns"] = benchmark::Counter(
        static_cast<double>(dev.timing().now()) /
            static_cast<double>(state.iterations()),
        benchmark::Counter::kAvgThreads);
    state.counters["fences"] = benchmark::Counter(
        static_cast<double>(dev.stats().fences) /
        static_cast<double>(state.iterations()));
}
BENCHMARK(BM_UndoLoggedStore);

void
BM_SpeculativeLoggedStore(benchmark::State &state)
{
    pmem::PmemDevice dev(256u << 20);
    pmem::PmemPool pool(dev);
    core::SpecTxConfig config;
    config.backgroundReclaim = false;
    core::SpecTx tx(pool, 1, config);
    const PmOff data = pool.alloc(1u << 20);

    std::uint64_t i = 0;
    for (auto _ : state) {
        tx.txBegin(0);
        tx.txStoreT<std::uint64_t>(0, data + (i % 131072) * 8, i);
        tx.txCommit(0);
        ++i;
        if (i % 8192 == 0)
            tx.reclaimNow();
    }
    state.counters["sim_ns"] = benchmark::Counter(
        static_cast<double>(dev.timing().now()) /
            static_cast<double>(state.iterations()),
        benchmark::Counter::kAvgThreads);
    state.counters["fences"] = benchmark::Counter(
        static_cast<double>(dev.stats().fences) /
        static_cast<double>(state.iterations()));
}
BENCHMARK(BM_SpeculativeLoggedStore);

void
BM_SpecCommitBatch(benchmark::State &state)
{
    // Cost of one commit as the write set grows: the flush batch is
    // sequential, so simulated cost grows sublinearly in entries.
    const auto writes = static_cast<unsigned>(state.range(0));
    pmem::PmemDevice dev(256u << 20);
    pmem::PmemPool pool(dev);
    core::SpecTxConfig config;
    config.backgroundReclaim = false;
    core::SpecTx tx(pool, 1, config);
    const PmOff data = pool.alloc(1u << 20);

    std::uint64_t i = 0;
    for (auto _ : state) {
        tx.txBegin(0);
        for (unsigned w = 0; w < writes; ++w)
            tx.txStoreT<std::uint64_t>(0, data + ((i + w) % 131072) * 8,
                                       i);
        tx.txCommit(0);
        i += writes;
        if (i % (1u << 16) == 0)
            tx.reclaimNow();
    }
    state.counters["sim_ns"] = benchmark::Counter(
        static_cast<double>(dev.timing().now()) /
            static_cast<double>(state.iterations()),
        benchmark::Counter::kAvgThreads);
}
BENCHMARK(BM_SpecCommitBatch)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void
BM_Crc32c(benchmark::State &state)
{
    std::vector<std::uint8_t> buffer(
        static_cast<std::size_t>(state.range(0)), 0xA5);
    for (auto _ : state)
        benchmark::DoNotOptimize(crc32c(buffer.data(), buffer.size()));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(256)->Arg(4096);

void
BM_SequentialVsRandomPmWrites(benchmark::State &state)
{
    // The timing-model property underpinning speculative logging's
    // advantage: flushing N sequential lines is cheaper than flushing
    // N scattered lines.
    const bool sequential = state.range(0) == 1;
    pmem::PmemDevice dev(64u << 20);
    std::uint64_t i = 0;
    for (auto _ : state) {
        for (unsigned n = 0; n < 16; ++n) {
            const std::uint64_t line =
                sequential ? (i + n) % 500000
                           : ((i + n) * 977) % 500000;
            dev.storeT<std::uint64_t>(line * kCacheLineSize, i);
            dev.clwb(line * kCacheLineSize);
        }
        dev.sfence();
        i += 16;
    }
    state.counters["sim_ns_per_line"] = benchmark::Counter(
        static_cast<double>(dev.timing().now()) /
        static_cast<double>(state.iterations() * 16));
}
BENCHMARK(BM_SequentialVsRandomPmWrites)
    ->Arg(1)
    ->Arg(0)
    ->ArgNames({"sequential"});

/**
 * One device shared by every thread of a device benchmark, so that
 * Threads(2) measures the device lock under contention. Each thread
 * works on its own line, a page apart from the others.
 */
pmem::PmemDevice &
sharedDevice()
{
    static pmem::PmemDevice dev(1u << 20);
    return dev;
}

PmOff
threadLine(const benchmark::State &state)
{
    return static_cast<PmOff>(state.thread_index()) * 4096;
}

void
BM_DeviceStoreFlushFence(benchmark::State &state)
{
    // The device calls behind one persisted 64 B update.
    pmem::PmemDevice &dev = sharedDevice();
    const PmOff off = threadLine(state);
    std::array<std::uint8_t, kCacheLineSize> line{};
    for (auto _ : state) {
        ++line[0];
        dev.store(off, line.data(), line.size());
        dev.clwb(off);
        dev.sfence();
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_DeviceStoreFlushFence)->Threads(1)->Threads(2)->UseRealTime();

void
BM_DeviceLoad(benchmark::State &state)
{
    pmem::PmemDevice &dev = sharedDevice();
    const PmOff off = threadLine(state);
    std::array<std::uint8_t, kCacheLineSize> line{};
    for (auto _ : state) {
        dev.load(off, line.data(), line.size());
        benchmark::DoNotOptimize(line.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_DeviceLoad)->Threads(1)->Threads(2)->UseRealTime();

void
BM_DeviceLoadWhileStoring(benchmark::State &state)
{
    // The kv get/put race: reader threads load an 88 B bucket that one
    // more thread keeps storing whole, on a device of their own. Wall
    // ns per load.
    constexpr PmOff kBucket = 4096 + 32;
    using Bucket = std::array<std::uint8_t, 88>;
    static pmem::PmemDevice dev(1u << 20);
    static std::atomic<bool> stop{false};
    static std::thread writer;
    if (state.thread_index() == 0) {
        stop.store(false);
        writer = std::thread([] {
            Bucket bucket{};
            while (!stop.load()) {
                ++bucket[0];
                dev.store(kBucket, bucket.data(), bucket.size());
            }
        });
    }
    Bucket bucket{};
    for (auto _ : state) {
        dev.load(kBucket, bucket.data(), bucket.size());
        benchmark::DoNotOptimize(bucket.data());
        benchmark::ClobberMemory();
    }
    if (state.thread_index() == 0) {
        stop.store(true);
        writer.join();
    }
}
BENCHMARK(BM_DeviceLoadWhileStoring)
    ->Threads(1)
    ->Threads(2)
    ->UseRealTime();

void
BM_DeviceSimulateCrash(benchmark::State &state)
{
    // The device's share of a restart: a crash of a 64 MiB device with
    // N lines dirty, spread over the whole device. Wall ns per crash.
    const auto lines = static_cast<std::uint64_t>(state.range(0));
    pmem::PmemDevice dev(64u << 20);
    const std::uint64_t stride = dev.size() / kCacheLineSize / lines;
    std::uint64_t round = 0;
    for (auto _ : state) {
        state.PauseTiming();
        ++round;
        for (std::uint64_t i = 0; i < lines; ++i)
            dev.storeT<std::uint64_t>(i * stride * kCacheLineSize, round);
        state.ResumeTiming();
        dev.simulateCrash(pmem::CrashPolicy::nothing());
    }
}
BENCHMARK(BM_DeviceSimulateCrash)->Arg(64)->Arg(16384)->UseRealTime();

void
BM_DeviceConstruct(benchmark::State &state)
{
    // Device bring-up: build and destroy a device of N KiB, as every
    // KV shard, STAMP run and crash-matrix cell does. Wall ms per call.
    const auto bytes = static_cast<std::size_t>(state.range(0)) << 10;
    for (auto _ : state) {
        pmem::PmemDevice dev(bytes);
        benchmark::DoNotOptimize(dev.raw());
    }
}
BENCHMARK(BM_DeviceConstruct)
    ->Arg(64)
    ->Arg(8 << 10)
    ->Arg(64 << 10)
    ->ArgNames({"kib"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void
BM_SpecTxRecover(benchmark::State &state)
{
    // SpecTx::recover() alone over a log of N committed transactions,
    // each rewriting one whole line of a 4,096-line hot set, as KV
    // puts rewrite hot buckets. Recovery keeps the log, so every
    // iteration replays the same records.
    const auto records = static_cast<std::uint64_t>(state.range(0));
    pmem::PmemDevice dev(256u << 20);
    pmem::PmemPool pool(dev);
    core::SpecTxConfig config;
    config.backgroundReclaim = false;
    {
        core::SpecTx tx(pool, 1, config);
        const PmOff data = pool.allocAligned(4096 * kCacheLineSize,
                                             kCacheLineSize);
        std::array<std::uint64_t, kCacheLineSize / 8> line{};
        for (std::uint64_t i = 0; i < records; ++i) {
            line.fill(i);
            tx.txBegin(0);
            tx.txStoreT(0, data + (i * 977 % 4096) * kCacheLineSize,
                        line);
            tx.txCommit(0);
        }
    }
    for (auto _ : state) {
        state.PauseTiming();
        dev.simulateCrash(pmem::CrashPolicy::nothing());
        pool.reopenAfterCrash();
        auto tx = std::make_unique<core::SpecTx>(pool, 1, config);
        state.ResumeTiming();
        tx->recover();
        state.PauseTiming();
        tx.reset();
        state.ResumeTiming();
    }
}
BENCHMARK(BM_SpecTxRecover)->Arg(10000)->Arg(100000)->UseRealTime();

void
BM_KvShardRecover(benchmark::State &state)
{
    // A kv-a shard's restart: one shard whose 131,072-bucket map (and
    // its zero-range guardians) took 100k puts from 2 threads, crashed
    // with nothing extra drained, then recovered. Building and
    // destroying the service stay outside the timed region. Wall ms
    // per crash plus recovery.
    constexpr kv::KvKey kKeys = 32768;
    constexpr unsigned kClients = 2;
    constexpr std::uint64_t kPutsPerClient = 50000;
    kv::KvServiceConfig config;
    config.shards = 1;
    config.threads = kClients;
    config.bucketsPerShard = 131072;
    for (auto _ : state) {
        state.PauseTiming();
        auto service = std::make_unique<kv::KvService>(config);
        std::vector<std::thread> clients;
        for (unsigned t = 0; t < kClients; ++t) {
            clients.emplace_back([&service, t] {
                for (std::uint64_t i = 0; i < kPutsPerClient; ++i) {
                    const kv::KvKey key = 1 + (i * kClients + t) % kKeys;
                    service->put(t, key, kv::KvValue::tagged(key, i));
                }
            });
        }
        for (auto &client : clients)
            client.join();
        state.ResumeTiming();
        service->crash(pmem::CrashPolicy::nothing());
        service->recover();
        state.PauseTiming();
        service.reset();
        state.ResumeTiming();
    }
}
BENCHMARK(BM_KvShardRecover)->Unit(benchmark::kMillisecond)->UseRealTime();

void
BM_HashMapCreate(benchmark::State &state)
{
    // PmHashMap::create of a kv-a shard's 131,072 buckets on a fresh
    // 64 MiB pool under the "spec" runtime, reclaimer included, as a
    // KvService shard builds it. Device and runtime set-up and
    // teardown stay outside the timed region.
    for (auto _ : state) {
        state.PauseTiming();
        auto dev = std::make_unique<pmem::PmemDevice>(64u << 20);
        auto pool = std::make_unique<pmem::PmemPool>(*dev);
        auto rt = txn::makeRuntime("spec", *pool, 1);
        state.ResumeTiming();
        auto map = pmds::PmHashMap<std::uint64_t, kv::KvValue>::create(
            *rt, 131072);
        benchmark::DoNotOptimize(map.base());
        state.PauseTiming();
        rt.reset();
        pool.reset();
        dev.reset();
        state.ResumeTiming();
    }
}
BENCHMARK(BM_HashMapCreate)->Unit(benchmark::kMillisecond)->UseRealTime();

} // namespace

BENCHMARK_MAIN();
