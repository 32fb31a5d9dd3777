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
 *                [--max-ops-per-commit=256] [--group-commit]
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
 * all). --fault-region-start keeps faults off the pool metadata so
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
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

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
    unsigned threads = 4;
    std::uint64_t keys = 4096;
    std::uint64_t opsPerThread = 2000;
    kv::KeyDist dist = kv::KeyDist::Zipfian;
    long crashAfter = 500;         ///< walkthrough only
    std::uint64_t seed = 1;        ///< walkthrough only
    double multiPutFraction = 0.0; ///< bench only
    unsigned groupCommit = 0;      ///< bench only
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

/** @p parsed, or the usage error for an unknown @p what name. */
template <typename T>
T
named(const std::optional<T> &parsed, const char *what,
      const std::string &name)
{
    if (!parsed)
        SPECPMT_FATAL("unknown %s: %s", what, name.c_str());
    return *parsed;
}

/** The walkthrough's flags, or with @p bench `speckv bench`'s. */
Args
parseArgs(int argc, char **argv, bool bench)
{
    Args args;
    if (bench) {
        args.runtimes = {"spec", "pmdk"};
        args.mixes = {kv::Mix::A, kv::Mix::B, kv::Mix::C};
        args.keys = 8192;
        args.opsPerThread = 4000;
    }
    const bool walkthrough = !bench;
    for (int i = bench ? 2 : 1; i < argc; ++i) {
        const std::string arg = argv[i];
        // A flag of one mode matches only in that mode.
        auto value = [&](const char *prefix,
                         bool in_mode = true) -> const char * {
            const std::size_t n = std::string(prefix).size();
            return in_mode && arg.rfind(prefix, 0) == 0 ? arg.c_str() + n
                                                        : nullptr;
        };
        if (const char *v = value("--runtime=", walkthrough))
            args.runtimes = {v};
        else if (const char *v = value("--runtimes=", bench))
            args.runtimes = splitCsv(v);
        else if (const char *v = value("--shards="))
            args.shards = static_cast<unsigned>(std::atoi(v));
        else if (const char *v = value("--threads="))
            args.threads = static_cast<unsigned>(std::atoi(v));
        else if (const char *v = value("--keys="))
            args.keys = std::strtoull(v, nullptr, 10);
        else if (const char *v = value("--ops="))
            args.opsPerThread = std::strtoull(v, nullptr, 10);
        else if (const char *v = value("--crash-after=", walkthrough))
            args.crashAfter = std::atol(v);
        else if (const char *v = value("--seed=", walkthrough))
            args.seed = std::strtoull(v, nullptr, 10);
        else if (const char *v = value("--multiput=", bench))
            args.multiPutFraction = std::atof(v);
        else if (const char *v = value("--group-commit=", bench))
            args.groupCommit = static_cast<unsigned>(std::atoi(v));
        else if (const char *v = value("--mix=", walkthrough))
            args.mixes = {named(kv::parseMix(v), "mix", v)};
        else if (const char *v = value("--mixes=", bench)) {
            args.mixes.clear();
            for (const auto &name : splitCsv(v))
                args.mixes.push_back(named(kv::parseMix(name), "mix", name));
        } else if (const char *v = value("--dist="))
            args.dist = named(kv::parseKeyDist(v), "dist", v);
        else if (!args.obs.accept(arg))
            SPECPMT_FATAL("unknown argument: %s", arg.c_str());
    }
    if (args.shards == 0)
        SPECPMT_FATAL("--shards must be at least 1");
    if (args.threads == 0)
        SPECPMT_FATAL("--threads must be at least 1");
    // The driver builds its zipfian generator for either distribution.
    if (args.keys < 2)
        SPECPMT_FATAL("--keys must be at least 2");
    for (const auto &runtime : args.runtimes) {
        if (!txn::isRuntimeName(runtime)) {
            SPECPMT_FATAL("unknown runtime %s; known:%s", runtime.c_str(),
                          nameList(txn::runtimeNames()).c_str());
        }
        if (walkthrough)
            requireRecoverable(runtime, "speckv");
    }
    return args;
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
    unsigned port = 0;
    std::string port_file;
    double seconds = 0; // 0 = until signal
    std::size_t max_ops_per_commit = 256;
    bool group_commit = false;
    std::size_t epoch_max_ops = 64;
    std::uint64_t epoch_max_delay_us = 500;
    int admin_port = -1; // -1 = no admin endpoint; 0 = ephemeral
    std::string admin_port_file;
    std::uint64_t slow_us = 0;
    std::string pm_dir;
    std::size_t pool_bytes = 0; // 0 = KvServiceConfig default
    std::size_t max_pending_ops = 4096;
    std::uint64_t idle_timeout_ms = 0;
    std::size_t max_frame_bytes = net::kMaxFrameBytes;
    pmem::FaultPlan fault_plan;
    fault_plan.regionStart = 64 * 1024;
    std::uint64_t fault_delay_ms = 0;
    int fault_shard = -1;
    obs::OutputFlags obs_flags;

    // Install the stop handlers before anything heavy is built, so a
    // signal during startup still reaches the artifact-flush path.
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    // Every socket send in the tree passes MSG_NOSIGNAL, but a client
    // that resets its connection mid-response must never be able to
    // kill the server through any future write path either.
    std::signal(SIGPIPE, SIG_IGN);

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *prefix) -> const char * {
            const std::size_t n = std::string(prefix).size();
            return arg.rfind(prefix, 0) == 0 ? arg.c_str() + n
                                             : nullptr;
        };
        if (const char *v = value("--runtime="))
            runtime = v;
        else if (const char *v = value("--shards="))
            shards = static_cast<unsigned>(std::atoi(v));
        else if (const char *v = value("--keys="))
            keys = std::strtoull(v, nullptr, 10);
        else if (const char *v = value("--port="))
            port = static_cast<unsigned>(std::atoi(v));
        else if (const char *v = value("--port-file="))
            port_file = v;
        else if (const char *v = value("--seconds="))
            seconds = std::atof(v);
        else if (const char *v = value("--max-ops-per-commit="))
            max_ops_per_commit = std::strtoull(v, nullptr, 10);
        else if (arg == "--group-commit")
            group_commit = true;
        else if (const char *v = value("--epoch-max-ops="))
            epoch_max_ops = std::strtoull(v, nullptr, 10);
        else if (const char *v = value("--epoch-max-delay-us="))
            epoch_max_delay_us = std::strtoull(v, nullptr, 10);
        else if (const char *v = value("--admin-port="))
            admin_port = std::atoi(v);
        else if (const char *v = value("--admin-port-file="))
            admin_port_file = v;
        else if (const char *v = value("--slow-us="))
            slow_us = std::strtoull(v, nullptr, 10);
        else if (const char *v = value("--pm-dir="))
            pm_dir = v;
        else if (const char *v = value("--pool-bytes="))
            pool_bytes = std::strtoull(v, nullptr, 10);
        else if (const char *v = value("--max-pending-ops="))
            max_pending_ops = std::strtoull(v, nullptr, 10);
        else if (const char *v = value("--idle-timeout-ms="))
            idle_timeout_ms = std::strtoull(v, nullptr, 10);
        else if (const char *v = value("--max-frame-bytes="))
            max_frame_bytes = std::strtoull(v, nullptr, 10);
        else if (const char *v = value("--fault-seed="))
            fault_plan.seed = std::strtoull(v, nullptr, 10);
        else if (const char *v = value("--fault-poison="))
            fault_plan.poisonLines = std::strtoull(v, nullptr, 10);
        else if (const char *v = value("--fault-eio="))
            fault_plan.eioLines = std::strtoull(v, nullptr, 10);
        else if (const char *v = value("--fault-corrupt="))
            fault_plan.corruptLines = std::strtoull(v, nullptr, 10);
        else if (const char *v = value("--fault-region-start="))
            fault_plan.regionStart = std::strtoull(v, nullptr, 10);
        else if (const char *v = value("--fault-delay-ms="))
            fault_delay_ms = std::strtoull(v, nullptr, 10);
        else if (const char *v = value("--fault-shard="))
            fault_shard = std::atoi(v);
        else if (!obs_flags.accept(arg))
            SPECPMT_FATAL("unknown argument: %s", arg.c_str());
    }
    if (shards == 0)
        SPECPMT_FATAL("--shards must be at least 1");
    if (!txn::isRuntimeName(runtime))
        SPECPMT_FATAL("unknown runtime %s", runtime.c_str());
    // Reattaching a --pm-dir image runs recover().
    if (!pm_dir.empty())
        requireRecoverable(runtime, "speckv serve --pm-dir");

    // Loop i of the server transacts as client thread id i.
    kv::KvServiceConfig service_config =
        serviceConfig(runtime, shards, shards, keys);
    if (group_commit)
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

    net::ServerConfig server_config;
    server_config.port = static_cast<std::uint16_t>(port);
    server_config.maxOpsPerCommit = max_ops_per_commit;
    server_config.groupCommit = group_commit;
    server_config.epochMaxOps = epoch_max_ops;
    server_config.epochMaxDelayUs = epoch_max_delay_us;
    server_config.slowUs = slow_us;
    server_config.maxPendingOps = max_pending_ops;
    server_config.idleTimeoutMs = idle_timeout_ms;
    server_config.maxFrameBytes = max_frame_bytes;
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
        if (!admin_port_file.empty()) {
            FILE *f = std::fopen(admin_port_file.c_str(), "w");
            if (f == nullptr)
                SPECPMT_FATAL("cannot write %s",
                              admin_port_file.c_str());
            std::fprintf(f, "%u\n", telemetry->port());
            std::fclose(f);
        }
    }

    if (!port_file.empty()) {
        FILE *f = std::fopen(port_file.c_str(), "w");
        if (f == nullptr)
            SPECPMT_FATAL("cannot write %s", port_file.c_str());
        std::fprintf(f, "%u\n", server.port());
        std::fclose(f);
    }
    std::printf("speckv serve: runtime=%s shards=%u port=%u%s",
                runtime.c_str(), shards, server.port(),
                group_commit ? " group-commit" : "");
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
    // overwrites them with the final state below.
    obs_flags.writeArtifacts();
    g_stop.store(true);
    if (fault_thread.joinable())
        fault_thread.join();
    if (telemetry)
        telemetry->stop();
    server.stop();
    service.shutdown();
    obs_flags.writeArtifacts();
    std::printf("speckv serve: OK\n");
    return 0;
}

/** `speckv bench`: one fresh service per runtime x mix cell. */
int
benchMain(const Args &args)
{
    kv::DriverConfig driver_config;
    driver_config.threads = args.threads;
    driver_config.keys = args.keys;
    driver_config.opsPerThread = args.opsPerThread;
    driver_config.dist = args.dist;
    driver_config.multiPutFraction = args.multiPutFraction;
    driver_config.relaxedPuts = args.groupCommit > 0;

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

    struct Cell
    {
        std::string runtime;
        kv::Mix mix;
        kv::DriverResult result;
    };
    std::vector<Cell> cells;
    for (const auto &runtime : args.runtimes) {
        for (const kv::Mix mix : args.mixes) {
            kv::KvServiceConfig service_config = serviceConfig(
                runtime, args.shards, args.threads, args.keys);
            if (args.groupCommit > 0) {
                service_config.runtimeOptions.groupCommit = true;
                service_config.epochMaxOps = args.groupCommit;
            }
            kv::KvService service(service_config);
            kv::loadKeyspace(service, driver_config);

            driver_config.mix = mix;
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
                        runtime.c_str(), kv::mixName(mix),
                        result.throughputOps / 1e3,
                        result.simThroughputOps / 1e3,
                        latency.percentile(50) / 1e3,
                        latency.percentile(95) / 1e3,
                        latency.percentile(99) / 1e3,
                        latency.percentile(99.9) / 1e3,
                        static_cast<unsigned long long>(fences),
                        fences_per_tx,
                        static_cast<unsigned long long>(pm_lines));
            cells.push_back({runtime, mix, std::move(result)});
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
                    kv::mixName(cell.mix),
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
    args.obs.writeArtifacts();
    return 0;
}

/** The walkthrough; see file comment. */
int
walkthroughMain(const Args &args)
{
    const std::string &runtime = args.runtimes.front();
    const kv::Mix mix = args.mixes.front();
    kv::DriverConfig driver_config;
    driver_config.threads = args.threads;
    driver_config.keys = args.keys;
    driver_config.opsPerThread = args.opsPerThread;
    driver_config.mix = mix;
    driver_config.dist = args.dist;
    driver_config.seed = args.seed;
    driver_config.multiPutFraction = 0.05;

    std::printf("speckv: runtime=%s shards=%u threads=%u keys=%llu "
                "mix=%s dist=%s\n",
                runtime.c_str(), args.shards, args.threads,
                static_cast<unsigned long long>(args.keys),
                kv::mixName(mix), kv::keyDistName(args.dist));

    // Phase 1: load.
    kv::KvService service(
        serviceConfig(runtime, args.shards, args.threads, args.keys));
    kv::loadKeyspace(service, driver_config);
    std::printf("[load] %llu keys loaded across %u shards\n",
                static_cast<unsigned long long>(args.keys),
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
    driver_config.seed = args.seed + 1;
    auto crash_run = kv::runClosedLoop(service, driver_config);
    printRunResult("crash-run", crash_run);
    if (!crash_run.crashed) {
        std::printf("[crash] countdown outlived the run; "
                    "forcing the power failure now\n");
    }
    service.crash(pmem::CrashPolicy::random(args.seed, 0.5));
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
    for (std::uint64_t key = 1; key <= args.keys; ++key) {
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
                static_cast<unsigned long long>(args.keys));

    // The recovered service must keep serving.
    driver_config.armCrashAfter = -1;
    driver_config.seed = args.seed + 2;
    auto post = kv::runClosedLoop(service, driver_config);
    printRunResult("post-recovery", post);
    if (post.failed != 0) {
        std::printf("FAIL: %llu failed ops after recovery\n",
                    static_cast<unsigned long long>(post.failed));
        return 1;
    }
    service.shutdown();
    args.obs.writeArtifacts();
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
