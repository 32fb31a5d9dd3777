/**
 * @file
 * speckv — operational walkthrough and YCSB bench of the sharded KV
 * service.
 *
 * Walkthrough phases:
 *   1. load    — insert the whole keyspace via multiPut batches;
 *   2. run     — closed-loop YCSB mix on N client threads;
 *   3. crash   — re-run with a power failure armed mid-traffic, then
 *                collapse every shard to its crash image under a
 *                randomized eviction policy;
 *   4. recover — rebuild all shards in parallel (one recovery thread
 *                per shard), timed;
 *   5. verify  — every loaded key must still be present with an
 *                intact self-tagged value (no lost keys, no torn or
 *                cross-key values), on every shard.
 *
 * Exit status is nonzero if verification fails, so the ctest entries
 * double as end-to-end smoke tests.
 *
 * Usage:
 *   speckv [--runtime=spec] [--shards=4] [--threads=4]
 *          [--keys=4096] [--ops=2000] [--mix=A|B|C]
 *          [--dist=zipfian|uniform] [--crash-after=500] [--seed=1]
 *          [--metrics-out=m.prom] [--trace-out=t.json]
 *
 * `speckv bench` runs mixes A (50/50 read/update), B (95/5) and C
 * (read-only) against each requested runtime on a fresh service per
 * cell, reporting wall and simulated-clock throughput, wall-clock
 * latency percentiles, and per-shard persistence traffic (fences,
 * media line writes). This is the serving-shaped analog of Figure 12:
 * on the write-heavy mixes the speculative runtime's fence elision
 * shows up directly as throughput. It never crashes the service, so
 * it also takes the runtimes the walkthrough refuses:
 *
 *   speckv bench [--runtimes=spec,pmdk] [--mixes=A,B,C]
 *                [--threads=4] [--shards=4] [--keys=8192]
 *                [--ops=4000] [--dist=zipfian|uniform]
 *                [--multiput=0.1] [--group-commit=N]
 *                [--metrics-out=m.prom] [--trace-out=t.json]
 *
 * --group-commit=N issues updates with relaxed durability and seals
 * each shard's epoch every N relaxed mutations (0 = strict, the
 * default); only group-commit-capable runtimes ("spec", "spec-dp")
 * are affected. The final stdout line is a JSON summary of every
 * cell. --trace-out appends a small crash+recover+reclaim probe so
 * every span category is witnessed.
 *
 * `speckv serve` instead runs the networked front end (src/net): the
 * sharded service behind per-shard epoll event loops speaking the
 * pipelined binary protocol, until --seconds elapse or
 * SIGINT/SIGTERM:
 *
 *   speckv serve [--runtime=spec] [--shards=4] [--keys=4096]
 *                [--port=0] [--port-file=PATH] [--seconds=0]
 *                [--group-commit]
 *                [--epoch-max-ops=64] [--epoch-max-delay-us=500]
 *                [--pm-dir=DIR] [--pool-bytes=N]
 *                [--max-pending-ops=4096]
 *                [--idle-timeout-ms=0] [--max-frame-bytes=1048576]
 *                [--fault-seed=1] [--fault-poison=0] [--fault-eio=0]
 *                [--fault-corrupt=0] [--fault-region-start=65536]
 *                [--fault-delay-ms=0] [--fault-shard=-1]
 *                [--metrics-out=m.prom]
 *
 * --port=0 binds an ephemeral port; --port-file writes the bound port
 * so scripts (CI, specnet_bench wrappers) can find it.
 *
 * --pm-dir backs every shard's emulated device with a file
 * `<dir>/shard-<n>.pm`; a restart over the same directory re-attaches
 * the images and runs recovery, so a SIGKILLed server can be brought
 * back with its acked writes intact (the specchaos harness does
 * exactly this). Like the walkthrough, it takes only a
 * crash-recoverable runtime (txn::recoverableRuntimeNames()).
 *
 * --fault-* install a seeded deterministic media-fault plan
 * (pmem::FaultPlan) on the shard devices: poisoned read lines, write
 * EIO lines, latent bit corruption. --fault-delay-ms defers the
 * injection into mid-traffic; --fault-shard targets one shard (-1 =
 * all; a shard at or above --shards is a usage error).
 * --fault-region-start keeps faults off the pool metadata so
 * scenarios exercise log/data paths, not bootstrap.
 *
 * --group-commit serves with epoch group commit (DESIGN §12):
 * mutations without the wire protocol's kFlagStrict commit relaxed
 * and are acked only after their epoch's shared fence, sealed every
 * --epoch-max-ops deferred mutations or --epoch-max-delay-us
 * microseconds, whichever comes first. Requires a group-commit-capable
 * runtime ("spec", "spec-dp").
 */

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.hh"
#include "common/logging.hh"
#include "common/rand.hh"
#include "core/spec_tx.hh"
#include "kv/driver.hh"
#include "kv/kv_service.hh"
#include "net/server.hh"
#include "obs/artifacts.hh"
#include "pmem/crash_policy.hh"
#include "pmem/pmem_device.hh"
#include "obs/telemetry_server.hh"
#include "obs/trace.hh"

using namespace specpmt;

namespace
{

/** Flags of the walkthrough and of `speckv bench`; see file comment. */
struct Args
{
    /** The walkthrough takes exactly one runtime and one mix. */
    std::vector<std::string> runtimes = {"spec"};
    std::vector<kv::Mix> mixes = {kv::Mix::A};
    unsigned shards = 4;
    /** Threads, ops, seed and workload; the mix is set per run. */
    kv::DriverConfig driver;
    long crashAfter = 500;    ///< walkthrough only
    unsigned groupCommit = 0; ///< bench only
    obs::OutputFlags obs;
};

/** @p names, each preceded by a space. */
std::string
nameList(const std::vector<std::string> &names)
{
    std::string out;
    for (const auto &name : names)
        out += " " + name;
    return out;
}

/**
 * Exit with a usage error unless @p runtime's recover() restores
 * atomic durability: @p what recovers the service after a power
 * failure and verifies it. The other runtimes are baselines or a
 * rejected design; `speckv bench` (which never crashes) measures them.
 */
void
requireRecoverable(const std::string &runtime, const char *what)
{
    if (!txn::isRecoverableRuntimeName(runtime)) {
        SPECPMT_FATAL(
            "runtime %s is not crash-recoverable; %s needs one of:%s",
            runtime.c_str(), what,
            nameList(txn::recoverableRuntimeNames()).c_str());
    }
}

/** Parse argv[first..) into @p flags, or exit with the usage error. */
void
parseOrExit(const Flags &flags, int argc, char **argv, int first)
{
    const std::string error = flags.parse(argc, argv, first);
    if (!error.empty())
        SPECPMT_FATAL("%s", error.c_str());
}

/** The walkthrough's flags, or with @p bench `speckv bench`'s. */
Args
parseArgs(int argc, char **argv, bool bench)
{
    Args args;
    kv::DriverConfig &driver = args.driver;
    driver.workload.keys = bench ? 8192 : 4096;
    driver.opsPerThread = bench ? 4000 : 2000;
    Flags flags;
    // The driver builds its zipfian generator for either distribution,
    // hence at least two keys.
    flags.count("--shards", args.shards, 1)
        .count("--threads", driver.threads, 1)
        .count("--keys", driver.workload.keys, 2)
        .count("--ops", driver.opsPerThread)
        .choice("--dist", driver.workload.dist, kv::parseKeyDist);
    args.obs.declare(flags);
    // A flag of one mode is an unknown argument in the other.
    if (bench) {
        args.runtimes = {"spec", "pmdk"};
        args.mixes = {kv::Mix::A, kv::Mix::B, kv::Mix::C};
        flags.list("--runtimes", args.runtimes)
            .list("--mixes", args.mixes, kv::parseMix)
            .real("--multiput", driver.workload.multiPutFraction, 0, 1)
            .count("--group-commit", args.groupCommit);
    } else {
        driver.workload.multiPutFraction = 0.05;
        flags.text("--runtime", args.runtimes.front())
            .choice("--mix", args.mixes.front(), kv::parseMix)
            .count("--crash-after", args.crashAfter, -1)
            .count("--seed", driver.seed);
    }
    parseOrExit(flags, argc, argv, bench ? 2 : 1);
    for (const auto &runtime : args.runtimes) {
        if (!txn::isRuntimeName(runtime)) {
            SPECPMT_FATAL("unknown runtime %s; known:%s", runtime.c_str(),
                          nameList(txn::runtimeNames()).c_str());
        }
        if (!bench)
            requireRecoverable(runtime, "speckv");
    }
    return args;
}

/** Write the requested artifacts, or exit with the error. */
void
writeArtifactsOrExit(const obs::OutputFlags &obs_flags)
{
    const std::string error = obs_flags.writeArtifacts();
    if (!error.empty())
        SPECPMT_FATAL("%s", error.c_str());
}

/**
 * The service every mode runs: @p keys keys over @p shards shards,
 * transacted on by @p threads client threads.
 */
kv::KvServiceConfig
serviceConfig(const std::string &runtime, unsigned shards,
              unsigned threads, std::uint64_t keys)
{
    kv::KvServiceConfig config;
    config.shards = shards;
    config.threads = threads;
    config.runtime = runtime;
    // Keep the per-shard load factor around 25% so probe chains stay
    // short at every shard size.
    config.bucketsPerShard =
        std::bit_ceil(std::max<std::uint64_t>(1024, 4 * keys / shards));
    return config;
}

void
printRunResult(const char *phase, const kv::DriverResult &result)
{
    LatencyHistogram latency = result.readLatency;
    latency.merge(result.updateLatency);
    std::printf("[%s] %llu ops in %.3fs: %.1f kops/s wall, "
                "%.1f kops/s simulated; p50 %.1fus p99 %.1fus%s\n",
                phase,
                static_cast<unsigned long long>(result.totalOps()),
                result.wallSeconds, result.throughputOps / 1e3,
                result.simThroughputOps / 1e3,
                latency.percentile(50) / 1e3,
                latency.percentile(99) / 1e3,
                result.crashed ? "  ** power failed **" : "");
}

/** Write @p port to @p path (no-op for an empty path) for scripts. */
void
writePortFile(const std::string &path, unsigned port)
{
    if (path.empty())
        return;
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        SPECPMT_FATAL("cannot write %s", path.c_str());
    std::fprintf(f, "%u\n", port);
    std::fclose(f);
}

std::atomic<bool> g_stop{false};

void
onSignal(int)
{
    g_stop.store(true);
}

/** `speckv serve`: run the networked front end; see file comment. */
int
serveMain(int argc, char **argv)
{
    std::string runtime = "spec";
    unsigned shards = 4;
    std::uint64_t keys = 4096;
    std::string port_file;
    double seconds = 0; // 0 = until signal
    int admin_port = -1; // -1 = no admin endpoint; 0 = ephemeral
    std::string admin_port_file;
    std::string pm_dir;
    std::size_t pool_bytes = 0; // 0 = KvServiceConfig default
    net::ServerConfig server_config;
    pmem::FaultPlan fault_plan;
    fault_plan.regionStart = 64 * 1024;
    std::uint64_t fault_delay_ms = 0;
    int fault_shard = -1; // -1 = every shard
    obs::OutputFlags obs_flags;

    // Install the stop handlers before anything heavy is built, so a
    // signal during startup still reaches the artifact-flush path.
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    // Every socket send in the tree passes MSG_NOSIGNAL, but a client
    // that resets its connection mid-response must never be able to
    // kill the server through any future write path either.
    std::signal(SIGPIPE, SIG_IGN);

    Flags flags;
    flags.text("--runtime", runtime)
        .count("--shards", shards, 1)
        .count("--keys", keys)
        .count("--port", server_config.port)
        .text("--port-file", port_file)
        .real("--seconds", seconds)
        .flag("--group-commit", server_config.groupCommit)
        .count("--epoch-max-ops", server_config.epochMaxOps)
        .count("--epoch-max-delay-us", server_config.epochMaxDelayUs)
        .count("--admin-port", admin_port, -1, 65535)
        .text("--admin-port-file", admin_port_file)
        .count("--slow-us", server_config.slowUs)
        .text("--pm-dir", pm_dir)
        .count("--pool-bytes", pool_bytes)
        .count("--max-pending-ops", server_config.maxPendingOps)
        .count("--idle-timeout-ms", server_config.idleTimeoutMs)
        .count("--max-frame-bytes", server_config.maxFrameBytes)
        .count("--fault-seed", fault_plan.seed)
        .count("--fault-poison", fault_plan.poisonLines)
        .count("--fault-eio", fault_plan.eioLines)
        .count("--fault-corrupt", fault_plan.corruptLines)
        .count("--fault-region-start", fault_plan.regionStart)
        .count("--fault-delay-ms", fault_delay_ms)
        .count("--fault-shard", fault_shard, -1);
    obs_flags.declare(flags);
    parseOrExit(flags, argc, argv, 2);
    if (fault_shard >= static_cast<int>(shards))
        SPECPMT_FATAL("--fault-shard=%d must be below --shards=%u",
                      fault_shard, shards);
    if (!txn::isRuntimeName(runtime))
        SPECPMT_FATAL("unknown runtime %s", runtime.c_str());
    // Reattaching a --pm-dir image runs recover().
    if (!pm_dir.empty())
        requireRecoverable(runtime, "speckv serve --pm-dir");

    // Loop i of the server transacts as client thread id i.
    kv::KvServiceConfig service_config =
        serviceConfig(runtime, shards, shards, keys);
    if (server_config.groupCommit)
        service_config.runtimeOptions.groupCommit = true;
    service_config.pmDir = pm_dir;
    if (pool_bytes != 0)
        service_config.shardPoolBytes = pool_bytes;
    kv::KvService service(service_config);

    // Media-fault injection: install the seeded plan after
    // construction (so a --pm-dir re-attach recovers fault-free),
    // either immediately or from a delay thread that fires
    // mid-traffic.
    std::thread fault_thread;
    const bool fault_armed = fault_plan.poisonLines != 0 ||
                             fault_plan.eioLines != 0 ||
                             fault_plan.corruptLines != 0;
    auto apply_faults = [&service, fault_plan, fault_shard, shards] {
        for (unsigned s = 0; s < shards; ++s) {
            if (fault_shard >= 0 &&
                s != static_cast<unsigned>(fault_shard))
                continue;
            service.shardDevice(s).applyFaultPlan(fault_plan);
        }
        SPECPMT_INFORM(
            "speckv serve: fault plan armed (seed=%llu poison=%zu "
            "eio=%zu corrupt=%zu shard=%d)",
            static_cast<unsigned long long>(fault_plan.seed),
            fault_plan.poisonLines, fault_plan.eioLines,
            fault_plan.corruptLines, fault_shard);
    };
    if (fault_armed) {
        if (fault_delay_ms == 0)
            apply_faults();
        else
            fault_thread = std::thread([apply_faults,
                                        fault_delay_ms] {
                const auto deadline =
                    std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(fault_delay_ms);
                while (!g_stop.load() &&
                       std::chrono::steady_clock::now() < deadline)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(5));
                if (!g_stop.load())
                    apply_faults();
            });
    }

    net::NetServer server(service, server_config);
    server.start();

    // The live telemetry plane: /metrics, /stats.json, /healthz,
    // /trace against the same registry the artifacts snapshot.
    std::unique_ptr<obs::TelemetryServer> telemetry;
    if (admin_port >= 0) {
        obs::TelemetryConfig telemetry_config;
        telemetry_config.port = static_cast<std::uint16_t>(admin_port);
        telemetry_config.health = [&server] {
            return server.healthReport();
        };
        telemetry = std::make_unique<obs::TelemetryServer>(
            std::move(telemetry_config));
        if (!telemetry->start())
            SPECPMT_FATAL("cannot start admin endpoint on port %d",
                          admin_port);
        // Arm the tracer so /trace and --slow-us tail sampling have
        // spans to serve even without --trace-out.
        obs::Tracer::global().enable();
        writePortFile(admin_port_file, telemetry->port());
    }
    writePortFile(port_file, server.port());
    std::printf("speckv serve: runtime=%s shards=%u port=%u%s",
                runtime.c_str(), shards, server.port(),
                server_config.groupCommit ? " group-commit" : "");
    if (telemetry)
        std::printf(" admin-port=%u", telemetry->port());
    std::printf("\n");
    std::fflush(stdout);

    const auto start = std::chrono::steady_clock::now();
    while (!g_stop.load()) {
        if (seconds > 0 &&
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                    .count() >= seconds)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    // Snapshot the artifacts BEFORE the drain path: if stop() or
    // shutdown() wedges (or a second signal kills the process), the
    // serve-time observations are already on disk. A clean exit
    // overwrites them with the final state below, which also reports
    // a path that cannot be written.
    (void)obs_flags.writeArtifacts();
    g_stop.store(true);
    if (fault_thread.joinable())
        fault_thread.join();
    if (telemetry)
        telemetry->stop();
    server.stop();
    service.shutdown();
    writeArtifactsOrExit(obs_flags);
    std::printf("speckv serve: OK\n");
    return 0;
}

/** `speckv bench`: one fresh service per runtime x mix cell. */
int
benchMain(const Args &args)
{
    kv::DriverConfig driver_config = args.driver;
    driver_config.relaxedPuts = args.groupCommit > 0;
    const unsigned threads = driver_config.threads;
    const std::uint64_t keys = driver_config.workload.keys;

    std::printf("kv_ycsb: %u shards, %u threads, %llu keys, "
                "%llu ops/thread, %s keys\n",
                args.shards, threads, static_cast<unsigned long long>(keys),
                static_cast<unsigned long long>(driver_config.opsPerThread),
                kv::keyDistName(driver_config.workload.dist));
    if (args.groupCommit > 0)
        std::printf("group commit: epoch sealed every %u relaxed ops\n",
                    args.groupCommit);
    std::printf("%-9s %-4s %12s %12s %9s %9s %9s %9s %10s %8s %12s\n",
                "runtime", "mix", "wall-kops", "sim-kops",
                "p50-us", "p95-us", "p99-us", "p999-us", "fences",
                "fn/tx", "pm-lines");

    struct Cell
    {
        std::string runtime;
        kv::Mix mix;
        kv::DriverResult result;
        /** Latency over all ops: the two op-type histograms merged. */
        LatencyHistogram latency;
        double fencesPerTx = 0.0;
    };
    std::vector<Cell> cells;
    for (const auto &runtime : args.runtimes) {
        for (const kv::Mix mix : args.mixes) {
            kv::KvServiceConfig service_config = serviceConfig(
                runtime, args.shards, threads, keys);
            if (args.groupCommit > 0) {
                service_config.runtimeOptions.groupCommit = true;
                service_config.epochMaxOps = args.groupCommit;
            }
            kv::KvService service(service_config);
            kv::loadKeyspace(service, driver_config);

            driver_config.workload.mix = mix;
            Cell cell{runtime, mix,
                      kv::runClosedLoop(service, driver_config), {}, 0.0};
            service.shutdown();
            const kv::DriverResult &result = cell.result;
            SPECPMT_ASSERT(result.failed == 0);

            cell.latency = result.readLatency;
            cell.latency.merge(result.updateLatency);
            std::uint64_t fences = 0;
            std::uint64_t pm_lines = 0;
            std::uint64_t txs = 0;
            for (const auto &shard : result.shards) {
                fences += shard.device.fences;
                pm_lines += shard.pmLineWrites;
                txs += shard.committedTxs;
            }
            cell.fencesPerTx = txs > 0 ? static_cast<double>(fences) /
                                             static_cast<double>(txs)
                                       : 0.0;
            std::printf("%-9s %-4s %12.1f %12.1f %9.1f %9.1f %9.1f "
                        "%9.1f %10llu %8.3f %12llu\n",
                        runtime.c_str(), kv::mixName(mix),
                        result.throughputOps / 1e3,
                        result.simThroughputOps / 1e3,
                        cell.latency.percentile(50) / 1e3,
                        cell.latency.percentile(95) / 1e3,
                        cell.latency.percentile(99) / 1e3,
                        cell.latency.percentile(99.9) / 1e3,
                        static_cast<unsigned long long>(fences),
                        cell.fencesPerTx,
                        static_cast<unsigned long long>(pm_lines));
            cells.push_back(std::move(cell));
        }
    }

    // Machine-readable summary, one results[] entry per cell.
    std::printf("{\"bench\":\"kv_ycsb\",\"shards\":%u,\"threads\":%u,"
                "\"keys\":%llu,\"ops_per_thread\":%llu,\"dist\":\"%s\","
                "\"group_commit\":%u,"
                "\"results\":[",
                args.shards, threads, static_cast<unsigned long long>(keys),
                static_cast<unsigned long long>(driver_config.opsPerThread),
                kv::keyDistName(driver_config.workload.dist),
                args.groupCommit);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto &cell = cells[i];
        const LatencyHistogram &latency = cell.latency;
        std::printf("%s{\"runtime\":\"%s\",\"mix\":\"%s\","
                    "\"fences_per_tx\":%.4f,"
                    "\"ops\":%llu,"
                    "\"wall_ops_per_sec\":%.1f,"
                    "\"sim_ops_per_sec\":%.1f,"
                    "\"p50_ns\":%llu,\"p95_ns\":%llu,"
                    "\"p99_ns\":%llu,\"p999_ns\":%llu,"
                    "\"shards\":[",
                    i == 0 ? "" : ",", cell.runtime.c_str(),
                    kv::mixName(cell.mix), cell.fencesPerTx,
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
        kv::KvService probe(serviceConfig("spec", 1, 1, 64));
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
    writeArtifactsOrExit(args.obs);
    return 0;
}

/** The walkthrough; see file comment. */
int
walkthroughMain(const Args &args)
{
    const std::string &runtime = args.runtimes.front();
    const kv::Mix mix = args.mixes.front();
    kv::DriverConfig driver_config = args.driver;
    driver_config.workload.mix = mix;
    const std::uint64_t seed = driver_config.seed;
    const std::uint64_t keys = driver_config.workload.keys;

    std::printf("speckv: runtime=%s shards=%u threads=%u keys=%llu "
                "mix=%s dist=%s\n",
                runtime.c_str(), args.shards, driver_config.threads,
                static_cast<unsigned long long>(keys), kv::mixName(mix),
                kv::keyDistName(driver_config.workload.dist));

    // Phase 1: load.
    kv::KvService service(
        serviceConfig(runtime, args.shards, driver_config.threads, keys));
    kv::loadKeyspace(service, driver_config);
    std::printf("[load] %llu keys loaded across %u shards\n",
                static_cast<unsigned long long>(keys),
                args.shards);

    // Phase 2: clean run.
    auto run = kv::runClosedLoop(service, driver_config);
    printRunResult("run", run);
    if (run.failed != 0) {
        std::printf("FAIL: %llu failed ops in the clean run\n",
                    static_cast<unsigned long long>(run.failed));
        return 1;
    }

    // Phase 3: run again with a power failure armed mid-traffic.
    driver_config.armCrashAfter = args.crashAfter;
    driver_config.seed = seed + 1;
    auto crash_run = kv::runClosedLoop(service, driver_config);
    printRunResult("crash-run", crash_run);
    if (!crash_run.crashed) {
        std::printf("[crash] countdown outlived the run; "
                    "forcing the power failure now\n");
    }
    service.crash(pmem::CrashPolicy::random(seed, 0.5));
    std::printf("[crash] all %u shards collapsed to their crash "
                "images (random eviction, p=0.5)\n",
                args.shards);

    // Phase 4: parallel per-shard recovery.
    const auto recover_start = std::chrono::steady_clock::now();
    service.recover();
    const double recover_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - recover_start)
            .count();
    std::printf("[recover] %u shards recovered in parallel in "
                "%.1fms\n",
                args.shards, recover_ms);

    // Phase 5: verify.
    std::uint64_t missing = 0;
    std::uint64_t corrupt = 0;
    for (std::uint64_t key = 1; key <= keys; ++key) {
        const auto value = service.get(0, key);
        if (!value)
            ++missing;
        else if (!value->checkTag(key))
            ++corrupt;
    }
    if (missing != 0 || corrupt != 0) {
        std::printf("FAIL: %llu keys missing, %llu values corrupt "
                    "after recovery\n",
                    static_cast<unsigned long long>(missing),
                    static_cast<unsigned long long>(corrupt));
        return 1;
    }
    std::printf("[verify] all %llu keys present and intact on every "
                "shard\n",
                static_cast<unsigned long long>(keys));

    // The recovered service must keep serving.
    driver_config.armCrashAfter = -1;
    driver_config.seed = seed + 2;
    auto post = kv::runClosedLoop(service, driver_config);
    printRunResult("post-recovery", post);
    if (post.failed != 0) {
        std::printf("FAIL: %llu failed ops after recovery\n",
                    static_cast<unsigned long long>(post.failed));
        return 1;
    }
    service.shutdown();
    writeArtifactsOrExit(args.obs);
    std::printf("speckv: OK\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string mode = argc > 1 ? argv[1] : "";
    if (mode == "serve")
        return serveMain(argc, argv);
    if (mode == "bench")
        return benchMain(parseArgs(argc, argv, true));
    return walkthroughMain(parseArgs(argc, argv, false));
}
