#include "kv/driver.hh"

#include <atomic>
#include <chrono>
#include <thread>

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace specpmt::kv
{

namespace
{

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

void
loadKeyspace(KvService &service, const DriverConfig &config)
{
    constexpr unsigned kLoadBatch = 64;
    std::vector<std::pair<KvKey, KvValue>> batch;
    batch.reserve(kLoadBatch);
    const std::uint64_t keys = config.workload.keys;
    for (std::uint64_t key = 1; key <= keys; ++key) {
        batch.emplace_back(key, KvValue::tagged(key, 0));
        if (batch.size() == kLoadBatch || key == keys) {
            const bool ok = service.multiPut(0, batch);
            SPECPMT_ASSERT(ok);
            batch.clear();
        }
    }
}

DriverResult
runClosedLoop(KvService &service, const DriverConfig &config)
{
    service.clearStats();
    // timing().reset() keeps the media-write counters; remember the
    // baseline so the result reports run-phase line writes only.
    std::vector<std::uint64_t> base_line_writes;
    for (unsigned s = 0; s < service.numShards(); ++s) {
        base_line_writes.push_back(
            service.shardSnapshot(s).pmLineWrites);
    }

    const WorkloadSpec &spec = config.workload;
    // Zipf construction is O(keys); build once, share read-only.
    const ZipfianGenerator zipf(spec.keys, spec.zipfTheta);
    const ZipfianGenerator *zipf_ptr =
        spec.dist == KeyDist::Zipfian ? &zipf : nullptr;

    struct WorkerOut
    {
        std::uint64_t reads = 0;
        std::uint64_t updates = 0;
        std::uint64_t multiPuts = 0;
        std::uint64_t failed = 0;
        LatencyHistogram readLatency;
        LatencyHistogram updateLatency;
    };
    std::vector<WorkerOut> outs(config.threads);
    std::atomic<bool> stop{false};
    std::atomic<bool> crashed{false};

    const auto wall_start = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    workers.reserve(config.threads);
    for (unsigned t = 0; t < config.threads; ++t) {
        workers.emplace_back([&, t] {
            WorkerOut &out = outs[t];
            OpGenerator gen(spec, zipf_ptr,
                            OpGenerator::workerSeed(config.seed, t));
            if (t == 0 && config.armCrashAfter >= 0)
                service.armCrashAll(config.armCrashAfter);
            try {
                for (std::uint64_t i = 0;
                     i < config.opsPerThread &&
                     !stop.load(std::memory_order_relaxed);
                     ++i) {
                    const WorkloadOp op = gen.next();
                    const std::uint64_t begin = nowNs();
                    switch (op.kind) {
                      case WorkloadOp::Kind::Get: {
                        const auto value = service.get(t, op.key);
                        out.readLatency.record(nowNs() - begin);
                        if (!value || !value->checkTag(op.key))
                            ++out.failed;
                        ++out.reads;
                        break;
                      }
                      case WorkloadOp::Kind::MultiPut: {
                        if (!service.multiPut(t, op.batch))
                            ++out.failed;
                        out.updateLatency.record(nowNs() - begin);
                        ++out.multiPuts;
                        break;
                      }
                      case WorkloadOp::Kind::Put: {
                        const Durability durability =
                            config.relaxedPuts ? Durability::Relaxed
                                               : Durability::Strict;
                        if (!service.put(t, op.key, op.value,
                                         durability))
                            ++out.failed;
                        out.updateLatency.record(nowNs() - begin);
                        ++out.updates;
                        break;
                      }
                    }
                }
            } catch (const pmem::SimulatedCrash &) {
                crashed.store(true);
                stop.store(true);
            }
        });
    }
    for (auto &worker : workers)
        worker.join();
    // Final seal: the run only counts as complete once every relaxed
    // commit is durable, so the closing fences are part of the run's
    // reported traffic.
    if (config.relaxedPuts && !crashed.load())
        service.sealAllEpochs();
    const auto wall_end = std::chrono::steady_clock::now();

    DriverResult result;
    for (const auto &out : outs) {
        result.reads += out.reads;
        result.updates += out.updates;
        result.multiPuts += out.multiPuts;
        result.failed += out.failed;
        result.readLatency.merge(out.readLatency);
        result.updateLatency.merge(out.updateLatency);
    }
    // Publish the run's latency distributions into the shared registry
    // (bulk merge of the already-aggregated histograms: the per-op
    // fast path stays registry-free).
    obs::Registry::global()
        .histogram("specpmt_kv_read_latency_ns",
                   "closed-loop driver read latency")
        .mergeFrom(result.readLatency);
    obs::Registry::global()
        .histogram("specpmt_kv_update_latency_ns",
                   "closed-loop driver update latency")
        .mergeFrom(result.updateLatency);
    result.crashed = crashed.load();
    result.wallSeconds =
        std::chrono::duration<double>(wall_end - wall_start).count();
    if (result.wallSeconds > 0.0) {
        result.throughputOps =
            static_cast<double>(result.totalOps()) /
            result.wallSeconds;
    }
    for (unsigned s = 0; s < service.numShards(); ++s) {
        result.shards.push_back(service.shardSnapshot(s));
        result.shards.back().pmLineWrites -= base_line_writes[s];
        result.simNs = std::max(result.simNs, result.shards.back().simNs);
    }
    if (result.simNs > 0) {
        result.simThroughputOps =
            static_cast<double>(result.totalOps()) * 1e9 /
            static_cast<double>(result.simNs);
    }
    return result;
}

} // namespace specpmt::kv
