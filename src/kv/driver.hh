/**
 * @file
 * Closed-loop multi-threaded load driver for the KV service.
 *
 * Implements the YCSB core-workload shapes the PM-transaction papers
 * evaluate with (A: 50/50 read/update, B: 95/5, C: read-only) over
 * uniform or zipfian key popularity, with per-operation wall-clock
 * latency recorded into thread-local LatencyHistograms (merged after
 * the run) and per-shard PM traffic pulled from the emulated devices.
 * Throughput is reported on both clocks: real wall time of the
 * emulation, and the shards' virtual ADR clocks (max over shards =
 * the simulated makespan, the number the paper's figures correspond
 * to).
 */

#ifndef SPECPMT_KV_DRIVER_HH
#define SPECPMT_KV_DRIVER_HH

#include <cstdint>
#include <vector>

#include "common/rand.hh"
#include "common/stats.hh"
#include "kv/kv_service.hh"
#include "kv/workload_spec.hh"

namespace specpmt::kv
{

/** Driver parameters. */
struct DriverConfig
{
    unsigned threads = 4;
    std::uint64_t opsPerThread = 10000;
    /** Mix / key distribution (shared with the open-loop loadgen). */
    WorkloadSpec workload;
    std::uint64_t seed = 1;
    /**
     * Arm a simulated power failure after this many persistence ops
     * from worker 0 on every shard device (<0 = none). On failure the
     * run stops and DriverResult::crashed is set.
     */
    long armCrashAfter = -1;
    /**
     * Issue puts with Durability::Relaxed (epoch group commit): the
     * service auto-seals every KvServiceConfig::epochMaxOps relaxed
     * mutations, and the driver seals all shards once at the end of
     * the run so the reported traffic covers full durability. No-op
     * on runtimes without group-commit support.
     */
    bool relaxedPuts = false;
};

/** Aggregated outcome of one closed-loop run. */
struct DriverResult
{
    std::uint64_t reads = 0;
    std::uint64_t updates = 0;
    std::uint64_t multiPuts = 0; ///< batches (each counts 1 op)
    std::uint64_t failed = 0;
    bool crashed = false;
    double wallSeconds = 0.0;
    /** Wall-clock throughput of the emulation, ops/second. */
    double throughputOps = 0.0;
    /** Simulated makespan: max over shards of the virtual clock. */
    SimNs simNs = 0;
    /** Throughput on the virtual ADR clock, ops/second. */
    double simThroughputOps = 0.0;
    /** Per-op wall-clock latency, nanoseconds. */
    LatencyHistogram readLatency;
    LatencyHistogram updateLatency;
    /** Per-shard accounting over the run phase. */
    std::vector<ShardSnapshot> shards;

    std::uint64_t
    totalOps() const
    {
        return reads + updates + multiPuts;
    }
};

/** Insert keys 1..config.workload.keys via multiPut batches (load phase). */
void loadKeyspace(KvService &service, const DriverConfig &config);

/**
 * Run the closed loop: config.threads workers, each issuing
 * config.opsPerThread operations against @p service. Shard stats are
 * zeroed at the start so the result reflects the run phase only.
 */
DriverResult runClosedLoop(KvService &service,
                           const DriverConfig &config);

} // namespace specpmt::kv

#endif // SPECPMT_KV_DRIVER_HH
