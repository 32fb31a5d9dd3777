/**
 * @file
 * YCSB-style serving benchmark over the sharded KV service.
 *
 * Runs mixes A (50/50 read/update), B (95/5) and C (read-only) with
 * zipfian key popularity against each requested transaction runtime,
 * reporting wall and simulated-clock throughput, wall-clock latency
 * percentiles, and per-shard persistence traffic (fences, media line
 * writes). This is the serving-shaped analog of Figure 12: on the
 * write-heavy mixes the speculative runtime's fence elision shows up
 * directly as throughput.
 *
 * Usage:
 *   bench_kv_ycsb [--runtimes=spec,pmdk] [--mixes=A,B,C]
 *                 [--threads=4] [--shards=4] [--keys=8192]
 *                 [--ops=4000] [--dist=zipfian|uniform]
 *                 [--multiput=0.1] [--group-commit=N]
 *                 [--metrics-out=m.prom] [--trace-out=t.json]
 *
 * --group-commit=N issues updates with relaxed durability and seals
 * each shard's epoch every N relaxed mutations (0 = strict, the
 * default); only group-commit-capable runtimes ("spec", "spec-dp")
 * are affected.
 *
 * The final stdout line is a JSON summary of every cell.
 * --metrics-out dumps the process-wide registry (Prometheus text, or
 * JSON when the path ends in .json); --trace-out enables the tracer
 * and dumps a Chrome trace-event file, appending a small
 * crash+recover+reclaim probe so every span category is witnessed.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "core/spec_tx.hh"
#include "kv/driver.hh"
#include "kv/kv_service.hh"
#include "obs/artifacts.hh"
#include "pmem/crash_policy.hh"

using namespace specpmt;

namespace
{

struct Args
{
    std::vector<std::string> runtimes = {"spec", "pmdk"};
    std::vector<std::string> mixes = {"A", "B", "C"};
    unsigned threads = 4;
    unsigned shards = 4;
    std::uint64_t keys = 8192;
    std::uint64_t opsPerThread = 4000;
    kv::KeyDist dist = kv::KeyDist::Zipfian;
    double multiPutFraction = 0.0;
    unsigned groupCommit = 0;
    obs::OutputFlags obs;
};

std::vector<std::string>
splitCsv(const std::string &arg)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= arg.size()) {
        const auto comma = arg.find(',', start);
        const auto end = comma == std::string::npos ? arg.size()
                                                    : comma;
        if (end > start)
            out.push_back(arg.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *prefix) -> const char * {
            const std::size_t n = std::string(prefix).size();
            return arg.rfind(prefix, 0) == 0 ? arg.c_str() + n
                                             : nullptr;
        };
        if (const char *v = value("--runtimes="))
            args.runtimes = splitCsv(v);
        else if (const char *v = value("--mixes="))
            args.mixes = splitCsv(v);
        else if (const char *v = value("--threads="))
            args.threads = static_cast<unsigned>(std::atoi(v));
        else if (const char *v = value("--shards="))
            args.shards = static_cast<unsigned>(std::atoi(v));
        else if (const char *v = value("--keys="))
            args.keys = std::strtoull(v, nullptr, 10);
        else if (const char *v = value("--ops="))
            args.opsPerThread = std::strtoull(v, nullptr, 10);
        else if (const char *v = value("--multiput="))
            args.multiPutFraction = std::atof(v);
        else if (const char *v = value("--group-commit="))
            args.groupCommit = static_cast<unsigned>(std::atoi(v));
        else if (const char *v = value("--dist=")) {
            args.dist = std::string(v) == "uniform"
                ? kv::KeyDist::Uniform
                : kv::KeyDist::Zipfian;
        } else if (!args.obs.accept(arg)) {
            SPECPMT_FATAL("unknown argument: %s", arg.c_str());
        }
    }
    for (const auto &name : args.runtimes) {
        if (!txn::isRuntimeName(name))
            SPECPMT_FATAL("unknown runtime: %s", name.c_str());
    }
    return args;
}

kv::Mix
mixFromName(const std::string &name)
{
    if (name == "A")
        return kv::Mix::A;
    if (name == "B")
        return kv::Mix::B;
    if (name == "C")
        return kv::Mix::C;
    SPECPMT_FATAL("unknown mix: %s (want A, B or C)", name.c_str());
}

std::uint64_t
nextPow2(std::uint64_t x)
{
    std::uint64_t p = 1;
    while (p < x)
        p <<= 1;
    return p;
}

struct Cell
{
    std::string runtime;
    std::string mix;
    kv::DriverResult result;
};

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);

    kv::DriverConfig driver_config;
    driver_config.threads = args.threads;
    driver_config.keys = args.keys;
    driver_config.opsPerThread = args.opsPerThread;
    driver_config.dist = args.dist;
    driver_config.multiPutFraction = args.multiPutFraction;

    std::printf("kv_ycsb: %u shards, %u threads, %llu keys, "
                "%llu ops/thread, %s keys\n",
                args.shards, args.threads,
                static_cast<unsigned long long>(args.keys),
                static_cast<unsigned long long>(args.opsPerThread),
                kv::keyDistName(args.dist));
    if (args.groupCommit > 0)
        std::printf("group commit: epoch sealed every %u relaxed ops\n",
                    args.groupCommit);
    std::printf("%-9s %-4s %12s %12s %9s %9s %9s %9s %10s %8s %12s\n",
                "runtime", "mix", "wall-kops", "sim-kops",
                "p50-us", "p95-us", "p99-us", "p999-us", "fences",
                "fn/tx", "pm-lines");

    std::vector<Cell> cells;
    for (const auto &runtime : args.runtimes) {
        for (const auto &mix_name : args.mixes) {
            kv::KvServiceConfig service_config;
            service_config.shards = args.shards;
            service_config.threads = args.threads;
            service_config.runtime = runtime;
            // Keep the per-shard load factor around 25% so probe
            // chains stay short at every shard size.
            service_config.bucketsPerShard = nextPow2(
                std::max<std::uint64_t>(1024,
                                        4 * args.keys / args.shards));
            if (args.groupCommit > 0) {
                service_config.runtimeOptions.groupCommit = true;
                service_config.epochMaxOps = args.groupCommit;
            }
            kv::KvService service(service_config);
            kv::loadKeyspace(service, driver_config);
            driver_config.relaxedPuts = args.groupCommit > 0;

            driver_config.mix = mixFromName(mix_name);
            auto result = kv::runClosedLoop(service, driver_config);
            service.shutdown();
            SPECPMT_ASSERT(result.failed == 0);

            // Latency over all ops: merge the two op-type histograms.
            LatencyHistogram latency = result.readLatency;
            latency.merge(result.updateLatency);
            std::uint64_t fences = 0;
            std::uint64_t pm_lines = 0;
            std::uint64_t txs = 0;
            for (const auto &shard : result.shards) {
                fences += shard.device.fences;
                pm_lines += shard.pmLineWrites;
                txs += shard.committedTxs;
            }
            const double fences_per_tx =
                txs > 0 ? static_cast<double>(fences) /
                              static_cast<double>(txs)
                        : 0.0;
            std::printf("%-9s %-4s %12.1f %12.1f %9.1f %9.1f %9.1f "
                        "%9.1f %10llu %8.3f %12llu\n",
                        runtime.c_str(), mix_name.c_str(),
                        result.throughputOps / 1e3,
                        result.simThroughputOps / 1e3,
                        latency.percentile(50) / 1e3,
                        latency.percentile(95) / 1e3,
                        latency.percentile(99) / 1e3,
                        latency.percentile(99.9) / 1e3,
                        static_cast<unsigned long long>(fences),
                        fences_per_tx,
                        static_cast<unsigned long long>(pm_lines));
            cells.push_back({runtime, mix_name, std::move(result)});
        }
    }

    // Machine-readable summary, one results[] entry per cell.
    std::printf("{\"bench\":\"kv_ycsb\",\"shards\":%u,\"threads\":%u,"
                "\"keys\":%llu,\"ops_per_thread\":%llu,\"dist\":\"%s\","
                "\"group_commit\":%u,"
                "\"results\":[",
                args.shards, args.threads,
                static_cast<unsigned long long>(args.keys),
                static_cast<unsigned long long>(args.opsPerThread),
                kv::keyDistName(args.dist), args.groupCommit);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto &cell = cells[i];
        LatencyHistogram latency = cell.result.readLatency;
        latency.merge(cell.result.updateLatency);
        std::uint64_t cell_fences = 0;
        std::uint64_t cell_txs = 0;
        for (const auto &shard : cell.result.shards) {
            cell_fences += shard.device.fences;
            cell_txs += shard.committedTxs;
        }
        std::printf("%s{\"runtime\":\"%s\",\"mix\":\"%s\","
                    "\"fences_per_tx\":%.4f,"
                    "\"ops\":%llu,"
                    "\"wall_ops_per_sec\":%.1f,"
                    "\"sim_ops_per_sec\":%.1f,"
                    "\"p50_ns\":%llu,\"p95_ns\":%llu,"
                    "\"p99_ns\":%llu,\"p999_ns\":%llu,"
                    "\"shards\":[",
                    i == 0 ? "" : ",", cell.runtime.c_str(),
                    cell.mix.c_str(),
                    cell_txs > 0
                        ? static_cast<double>(cell_fences) /
                              static_cast<double>(cell_txs)
                        : 0.0,
                    static_cast<unsigned long long>(
                        cell.result.totalOps()),
                    cell.result.throughputOps,
                    cell.result.simThroughputOps,
                    static_cast<unsigned long long>(
                        latency.percentile(50)),
                    static_cast<unsigned long long>(
                        latency.percentile(95)),
                    static_cast<unsigned long long>(
                        latency.percentile(99)),
                    static_cast<unsigned long long>(
                        latency.percentile(99.9)));
        for (std::size_t s = 0; s < cell.result.shards.size(); ++s) {
            const auto &shard = cell.result.shards[s];
            std::printf("%s{\"fences\":%llu,\"clwbs\":%llu,"
                        "\"pm_line_writes\":%llu,\"txs\":%llu}",
                        s == 0 ? "" : ",",
                        static_cast<unsigned long long>(
                            shard.device.fences),
                        static_cast<unsigned long long>(
                            shard.device.totalClwbs()),
                        static_cast<unsigned long long>(
                            shard.pmLineWrites),
                        static_cast<unsigned long long>(
                            shard.committedTxs));
        }
        std::printf("]}");
    }
    std::printf("]}\n");

    if (!args.obs.tracePath.empty()) {
        // The trace artifact should witness every span category
        // (tx/flush during the run above); drive a reclaim cycle and
        // a crash+recover so reclaim/recovery spans appear even on
        // short runs that never fill the log.
        kv::KvServiceConfig probe_config;
        probe_config.shards = 1;
        probe_config.threads = 1;
        probe_config.runtime = "spec";
        probe_config.bucketsPerShard = 1024;
        kv::KvService probe(probe_config);
        for (kv::KvKey key = 1; key <= 64; ++key)
            probe.put(0, key, kv::KvValue::tagged(key, key));
        if (auto *spec = dynamic_cast<core::SpecTx *>(
                &probe.shardRuntime(0))) {
            spec->reclaimNow();
        }
        probe.crash(pmem::CrashPolicy::nothing());
        probe.recover();
        probe.shutdown();
    }
    args.obs.writeArtifacts();
    return 0;
}
