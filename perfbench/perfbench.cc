/**
 * @file
 * The repository benchmark: one driver for the workloads every later
 * performance claim is measured with.
 *
 *   kv-a-zipf     in-process KvService, YCSB-A, zipfian, strict commits
 *   kv-b-uniform  in-process KvService, YCSB-B, uniform, strict commits
 *   net-epoch     in-process NetServer with epoch group commit, served
 *                 by the open-loop load generator at 4,000 QPS
 *   stamp         the nine STAMP-analog kernels under PMDK and
 *                 SpecSPMT (Fig 12) and replayed through EDE and
 *                 SpecHPMT (Fig 13)
 *
 * Usage:
 *   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
 *             [--trace-out=<path>]
 *
 * A run repeats fixed-size rounds until --seconds have passed. Each
 * round builds its system from scratch (the set-up the setup_s metric
 * times), runs the workload, checks the outputs, crashes and recovers
 * the persistent state, and checks it again. Keeping rounds fixed in
 * size keeps every round clear of log-space exhaustion.
 *
 * Every layer is measured from outside: the driver times its own calls
 * into public functions and takes before/after deltas of the counters
 * the library exports through obs::Registry. With --trace=1 rounds
 * alternate untraced and traced; traced rounds record a span around
 * every call the driver makes into a layer (and switch on obs::Tracer,
 * so the library's own spans are collected too), and the run prints
 * the per-layer metrics instead of the end-to-end ones.
 *
 * The last stdout line is one JSON object:
 *   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
 * A failed output check prints the reason to stderr and exits 1
 * without that line.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hh"
#include "core/spec_tx.hh"
#include "kv/kv_service.hh"
#include "kv/workload_spec.hh"
#include "net/loadgen.hh"
#include "net/server.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "pmem/crash_policy.hh"
#include "pmem/pmem_device.hh"
#include "pmem/pmem_pool.hh"
#include "sim/machine.hh"
#include "txn/runtime_factory.hh"
#include "txn/trace_recorder.hh"
#include "workloads/workload.hh"

using namespace specpmt;

namespace
{

using Metrics = std::map<std::string, double>;

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
secondsSince(std::uint64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) / 1e9;
}

/** A failed output check: the run reports no metrics. */
struct CheckFailed : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

void
check(bool ok, const std::string &what)
{
    if (!ok)
        throw CheckFailed(what);
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/**
 * Mid-quantile (Parzen) of exact samples, p in [0, 100]: the quantile
 * of the mid-distribution F(v) - P(v)/2, linear between distinct
 * values. Without ties it is the usual interpolated percentile. With
 * ties (integer ns; a modelled clock with a few distinct costs) it
 * still moves with the share of samples at each value rather than
 * sticking to one of them. Sorts @p samples.
 */
double
percentile(std::vector<std::uint64_t> &samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double n = static_cast<double>(samples.size());
    const double target = p / 100.0;
    double prev_mid = 0.0;
    double prev_value = 0.0;
    for (std::size_t i = 0; i < samples.size();) {
        std::size_t j = i;
        while (j < samples.size() && samples[j] == samples[i])
            ++j;
        const double mid =
            (static_cast<double>(i) + static_cast<double>(j - i) / 2.0) / n;
        const double value = static_cast<double>(samples[i]);
        if (mid >= target) {
            if (i == 0)
                return value;
            return prev_value + (value - prev_value) *
                                    (target - prev_mid) / (mid - prev_mid);
        }
        prev_mid = mid;
        prev_value = value;
        i = j;
    }
    return prev_value;
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

// ---------------------------------------------------------------------
// Bucketed distributions (loadgen and server-stage histograms)
// ---------------------------------------------------------------------

/** Histogram buckets keyed by lower bound: (upper bound, count). */
struct Buckets
{
    std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> b;
    std::uint64_t max = 0;

    std::uint64_t
    count() const
    {
        std::uint64_t n = 0;
        for (const auto &[lo, hc] : b)
            n += hc.second;
        return n;
    }

    void
    add(std::uint64_t lo, std::uint64_t hi, std::int64_t n)
    {
        auto &slot = b[lo];
        slot.first = hi;
        slot.second = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(slot.second) + n);
    }

    void
    merge(const Buckets &other)
    {
        for (const auto &[lo, hc] : other.b)
            add(lo, hc.first, static_cast<std::int64_t>(hc.second));
        max = std::max(max, other.max);
    }

    /**
     * Percentile with linear interpolation inside the bucket holding
     * the rank, so a distribution that shifts slightly moves the
     * figure slightly instead of jumping a whole bucket (12.5 %).
     */
    double
    percentile(double p) const
    {
        const std::uint64_t n = count();
        if (n == 0)
            return 0.0;
        const double rank = p / 100.0 * static_cast<double>(n);
        double below = 0.0;
        for (const auto &[lo, hc] : b) {
            const double c = static_cast<double>(hc.second);
            if (c > 0.0 && below + c >= rank) {
                const double width =
                    static_cast<double>(hc.first - lo) + 1.0;
                const double v = static_cast<double>(lo) +
                                 width * (rank - below) / c;
                return max > 0 ? std::min(v, static_cast<double>(max))
                               : v;
            }
            below += c;
        }
        return static_cast<double>(max);
    }
};

Buckets
fromHistogram(const LatencyHistogram &h)
{
    Buckets out;
    const auto &counts = h.buckets();
    for (unsigned i = 0; i < LatencyHistogram::kBuckets; ++i) {
        if (counts[i] != 0) {
            out.add(LatencyHistogram::bucketLowerBound(i),
                    LatencyHistogram::bucketUpperBound(i),
                    static_cast<std::int64_t>(counts[i]));
        }
    }
    out.max = h.max();
    return out;
}

// ---------------------------------------------------------------------
// Registry deltas
// ---------------------------------------------------------------------

/** Before/after view of obs::Registry::global(). */
class RegistryDelta
{
  public:
    RegistryDelta() : before_(obs::Registry::global().snapshot()) {}

    void finish() { after_ = obs::Registry::global().snapshot(); }

    const obs::Snapshot &after() const { return after_; }

    double
    counter(const std::string &name) const
    {
        auto get = [&](const obs::Snapshot &s) -> double {
            auto it = s.counters.find(name);
            return it == s.counters.end()
                       ? 0.0
                       : static_cast<double>(it->second);
        };
        return get(after_) - get(before_);
    }

    /** Samples a histogram gained between the two snapshots. */
    Buckets
    histogram(const std::string &name) const
    {
        Buckets out;
        auto it = after_.histograms.find(name);
        if (it == after_.histograms.end())
            return out;
        for (const auto &bucket : it->second.buckets) {
            out.add(bucket[0], bucket[1],
                    static_cast<std::int64_t>(bucket[2]));
        }
        auto prev = before_.histograms.find(name);
        if (prev != before_.histograms.end()) {
            for (const auto &bucket : prev->second.buckets) {
                out.add(bucket[0], bucket[1],
                        -static_cast<std::int64_t>(bucket[2]));
            }
        }
        out.max = it->second.max;
        return out;
    }

  private:
    obs::Snapshot before_;
    obs::Snapshot after_;
};

template <typename Counters>
double
simNsCounter(const Counters &d, const char *event)
{
    return d.counter(std::string("specpmt_sim_ns_total{event=\"") +
                     event + "\"}");
}

/** Share of modelled time spent in @p event. */
template <typename Counters>
double
simNsFrac(const Counters &d, const char *event)
{
    static const char *kEvents[] = {"store",      "load",
                                    "pm_read",    "compute",
                                    "wpq_accept", "wpq_stall",
                                    "fence_drain", "sfence"};
    double total = 0.0;
    for (const char *e : kEvents)
        total += simNsCounter(d, e);
    return ratio(simNsCounter(d, event), total);
}

// ---------------------------------------------------------------------
// Spans: the benchmark's own in-memory trace
// ---------------------------------------------------------------------

struct Span
{
    const char *name = nullptr;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    /** Index + 1 of the enclosing span on the same thread (0 = root). */
    std::uint32_t parent = 0;
    std::uint32_t thread = 0;
    /** Time covered by direct children. */
    std::uint64_t childNs = 0;

    std::uint64_t selfNs() const { return end - start - childNs; }
};

/**
 * Per-thread span buffers. A span is opened and closed on one thread;
 * buffers are read only after the threads that filled them joined.
 */
class SpanLog
{
  public:
    static SpanLog &
    global()
    {
        static SpanLog log;
        return log;
    }

    void setEnabled(bool on) { enabled_.store(on); }

    std::uint32_t
    open(const char *name)
    {
        if (!enabled_.load(std::memory_order_relaxed))
            return 0;
        Thread &t = thread();
        const std::uint32_t parent =
            t.stack.empty() ? 0 : t.stack.back();
        t.spans.push_back({name, nowNs(), 0, parent, t.id, 0});
        const auto handle = static_cast<std::uint32_t>(t.spans.size());
        t.stack.push_back(handle);
        return handle;
    }

    void
    close(std::uint32_t handle)
    {
        if (handle == 0)
            return;
        Thread &t = thread();
        Span &span = t.spans[handle - 1];
        span.end = nowNs();
        t.stack.pop_back();
        if (span.parent != 0)
            t.spans[span.parent - 1].childNs += span.end - span.start;
    }

    /** Visit every recorded span (with no span open on any thread). */
    template <typename Visit>
    void
    forEach(Visit visit) const
    {
        std::lock_guard<std::mutex> guard(mutex_);
        for (const auto &t : threads_) {
            for (const Span &span : t->spans)
                visit(span);
        }
    }

  private:
    struct Thread
    {
        std::uint32_t id = 0;
        std::vector<Span> spans;
        std::vector<std::uint32_t> stack;
    };

    Thread &
    thread()
    {
        thread_local Thread *mine = nullptr;
        if (mine == nullptr) {
            std::lock_guard<std::mutex> guard(mutex_);
            threads_.push_back(std::make_unique<Thread>());
            mine = threads_.back().get();
            mine->id = static_cast<std::uint32_t>(threads_.size());
        }
        return *mine;
    }

    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Thread>> threads_;
};

/** RAII span around one call into a layer. */
class BenchSpan
{
  public:
    explicit BenchSpan(const char *name)
        : handle_(SpanLog::global().open(name))
    {}
    ~BenchSpan() { SpanLog::global().close(handle_); }
    BenchSpan(const BenchSpan &) = delete;
    BenchSpan &operator=(const BenchSpan &) = delete;

  private:
    std::uint32_t handle_;
};

/** Span names the driver records, in report order. */
const char *const kSpanNames[] = {
    "kv.construct", "kv.load",    "kv.get",     "kv.put",
    "kv.crash",     "kv.recover", "net.open_loop", "stamp.setup",
    "stamp.run",    "sim.replay",
};

/**
 * Write the recorded spans as Chrome trace-event JSON. Per-op spans
 * are capped per name so the file stays small; the metrics use every
 * span.
 */
void
writeSpans(const std::string &path)
{
    constexpr std::size_t kPerNameCap = 20000;
    std::ofstream out(path);
    if (!out)
        return;
    std::map<const char *, std::size_t> written;
    out << "{\"traceEvents\":[";
    bool first = true;
    SpanLog::global().forEach([&](const Span &s) {
        if (written[s.name]++ >= kPerNameCap)
            return;
        char line[256];
        std::snprintf(line, sizeof(line),
                      "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\","
                      "\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
                      "\"tid\":%u,\"args\":{\"self_us\":%.3f}}",
                      first ? "" : ",", s.name,
                      static_cast<double>(s.start) / 1e3,
                      static_cast<double>(s.end - s.start) / 1e3,
                      s.thread, static_cast<double>(s.selfNs()) / 1e3);
        out << line;
        first = false;
    });
    out << "\n]}\n";
}

// ---------------------------------------------------------------------
// Shared persistent-state helpers
// ---------------------------------------------------------------------

/** Highest written byte of @p dev's persistent image, plus one. */
std::size_t
footprintBytes(const pmem::PmemDevice &dev)
{
    const std::uint8_t *image = dev.persistentRaw();
    std::size_t n = dev.size() & ~std::size_t{7};
    while (n >= 8) {
        std::uint64_t word;
        std::memcpy(&word, image + n - 8, sizeof(word));
        if (word != 0)
            break;
        n -= 8;
    }
    while (n > 0 && image[n - 1] == 0)
        --n;
    return n;
}

std::uint64_t
nextPow2(std::uint64_t x)
{
    std::uint64_t p = 1;
    while (p < x)
        p <<= 1;
    return p;
}

std::uint64_t
roundSeed(std::uint64_t seed, unsigned round)
{
    return seed * 1000003u + round;
}

/** Insert keys 1..keys with payload 0 (the load phase). */
void
loadKeys(kv::KvService &service, std::uint64_t keys)
{
    constexpr std::size_t kBatch = 64;
    std::vector<std::pair<kv::KvKey, kv::KvValue>> batch;
    for (std::uint64_t key = 1; key <= keys; ++key) {
        batch.emplace_back(key, kv::KvValue::tagged(key, 0));
        if (batch.size() == kBatch || key == keys) {
            check(service.multiPut(0, batch), "load: map full");
            batch.clear();
        }
    }
}

/** Per-shard footprint metrics, scanned after the crash. */
void
footprintMetrics(const kv::KvService &service, std::uint64_t live_bytes,
                 Metrics &e2e, Metrics &layer)
{
    double total = 0.0;
    double headroom = 1.0;
    for (unsigned s = 0; s < service.numShards(); ++s) {
        const auto &dev = service.shardDevice(s);
        const double bytes = static_cast<double>(footprintBytes(dev));
        total += bytes;
        headroom = std::min(
            headroom, 1.0 - bytes / static_cast<double>(dev.size()));
        layer["pmem.footprint_mb.shard" + std::to_string(s)] =
            bytes / (1u << 20);
    }
    layer["pmem.headroom_frac"] = headroom;
    e2e["space_amp"] = total / static_cast<double>(live_bytes);
}

/**
 * Time crash(nothing) + recover(), scanning the crashed images for
 * their footprint in between; fills recover_s, space_amp and the
 * pmem/kv cells. @p live_bytes: user bytes the service holds.
 */
void
crashAndRecover(kv::KvService &service, std::uint64_t live_bytes,
                Metrics &e2e, Metrics &layer)
{
    RegistryDelta delta;
    const std::uint64_t t0 = nowNs();
    {
        BenchSpan span("kv.crash");
        service.crash(pmem::CrashPolicy::nothing());
    }
    const std::uint64_t t1 = nowNs();
    footprintMetrics(service, live_bytes, e2e, layer);
    const std::uint64_t t2 = nowNs();
    {
        BenchSpan span("kv.recover");
        service.recover();
    }
    const std::uint64_t t3 = nowNs();
    delta.finish();
    e2e["recover_s"] = static_cast<double>((t1 - t0) + (t3 - t2)) / 1e9;
    layer["kv.crash_s"] = static_cast<double>(t1 - t0) / 1e9;
    layer["kv.shard_recovery_ms_max"] =
        delta.histogram("specpmt_kv_shard_recovery_ns").percentile(100) /
        1e6;
}

/** pmem and core cells of a log-structured run (SpecTx counters). */
template <typename Counters>
void
coreLayerMetrics(const Counters &delta, double ops, double updates,
                 double fences, double clwbs, double lines,
                 Metrics &layer)
{
    layer["pmem.fences_per_op"] = ratio(fences, ops);
    layer["pmem.clwbs_per_op"] = ratio(clwbs, ops);
    layer["pmem.line_writes_per_op"] = ratio(lines, ops);
    layer["pmem.sim_ns_fence_drain_frac"] = simNsFrac(delta, "fence_drain");
    layer["pmem.sim_ns_wpq_stall_frac"] = simNsFrac(delta, "wpq_stall");
    const double log_bytes =
        delta.counter("specpmt_spec_tx_log_bytes_written_total");
    layer["core.log_bytes_per_update"] = ratio(log_bytes, updates);
    layer["core.write_amp"] =
        ratio(delta.counter("specpmt_pm_log_bytes_total"),
              delta.counter("specpmt_pm_user_bytes_total"));
    layer["core.reclaim_cycles"] =
        delta.counter("specpmt_reclaim_cycles_total");
    layer["core.reclaim_freed_frac"] = ratio(
        delta.counter("specpmt_reclaim_bytes_freed_total"), log_bytes);
    layer["core.dedup_hits_per_tx"] =
        ratio(delta.counter("specpmt_spec_tx_dedup_hits_total"),
              delta.counter("specpmt_spec_tx_commits_total"));
}

/**
 * Run-phase layer cells of a KvService whose stats were cleared at
 * the start of the run (@p base_lines: media line writes then).
 * Finishes @p delta. Returns the modelled makespan (max shard clock).
 */
SimNs
serviceLayerMetrics(kv::KvService &service,
                    const std::vector<std::uint64_t> &base_lines,
                    double ops, double updates, RegistryDelta &delta,
                    Metrics &layer)
{
    double fences = 0.0;
    double clwbs = 0.0;
    double lines = 0.0;
    double log_peak = 0.0;
    SimNs sim_ns = 0;
    for (unsigned s = 0; s < service.numShards(); ++s) {
        service.shardDevice(s).publishMetrics();
        const auto snap = service.shardSnapshot(s);
        fences += static_cast<double>(snap.device.fences);
        clwbs += static_cast<double>(snap.device.totalClwbs());
        lines += static_cast<double>(snap.pmLineWrites - base_lines[s]);
        sim_ns = std::max(sim_ns, snap.simNs);
        if (auto *spec_tx = dynamic_cast<core::SpecTx *>(
                &service.shardRuntime(s))) {
            log_peak += static_cast<double>(spec_tx->peakLogBytes());
        }
    }
    delta.finish();
    coreLayerMetrics(delta, ops, updates, fences, clwbs, lines, layer);
    layer["core.log_peak_mb"] = log_peak / (1u << 20);
    layer["core.epoch_txs_per_seal"] =
        ratio(delta.counter("specpmt_epoch_txs_sealed_total"),
              delta.counter("specpmt_epoch_seals_total"));
    layer["kv.readonly_rejects"] =
        delta.counter("specpmt_kv_readonly_rejects_total");
    layer["kv.put_failures"] =
        delta.counter("specpmt_kv_put_failures_total");
    return sim_ns;
}

/** Clear @p service 's stats; returns each shard's media line writes. */
std::vector<std::uint64_t>
startRunPhase(kv::KvService &service)
{
    service.clearStats();
    std::vector<std::uint64_t> base_lines;
    for (unsigned s = 0; s < service.numShards(); ++s)
        base_lines.push_back(service.shardSnapshot(s).pmLineWrites);
    return base_lines;
}

// ---------------------------------------------------------------------
// Round bookkeeping
// ---------------------------------------------------------------------

struct RoundOut
{
    Metrics e2e;
    Metrics layer;
    /**
     * Exact latency samples by group: one group per STAMP kernel, a
     * single group elsewhere. Percentiles are taken per group and
     * combined by geometric mean, so a suite's figure does not jump
     * when the rank lands on the boundary between two kernels.
     */
    std::map<std::string, std::vector<std::uint64_t>> readNs;
    std::map<std::string, std::vector<std::uint64_t>> updateNs;
    Buckets readHist;
    Buckets updateHist;
    /** Latencies come from bucketed histograms, not exact samples. */
    bool bucketed = false;
    /** Time bases of the latency samples and of goodput_kops. */
    const char *latencyBase = "wall, per call";
    const char *goodputBase = "wall";
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool traced = false;
};

// ---------------------------------------------------------------------
// kv-a-zipf / kv-b-uniform
// ---------------------------------------------------------------------

struct KvWorkload
{
    kv::Mix mix;
    kv::KeyDist dist;
    std::uint64_t opsPerThread;
};

constexpr std::uint64_t kKvKeys = 65536;
constexpr unsigned kKvShards = 2;
constexpr unsigned kKvThreads = 2;
constexpr std::uint64_t kValueBytes = sizeof(kv::KvValue);

RoundOut
kvRound(const KvWorkload &w, std::uint64_t seed)
{
    RoundOut out;
    kv::KvServiceConfig config;
    config.shards = kKvShards;
    config.threads = kKvThreads;
    config.runtime = "spec";
    config.bucketsPerShard = nextPow2(4 * kKvKeys / kKvShards);

    const std::uint64_t t0 = nowNs();
    std::optional<kv::KvService> service;
    {
        BenchSpan span("kv.construct");
        service.emplace(config);
    }
    const std::uint64_t t1 = nowNs();
    {
        BenchSpan span("kv.load");
        loadKeys(*service, kKvKeys);
    }
    const std::uint64_t t2 = nowNs();
    out.e2e["setup_s"] = static_cast<double>(t2 - t0) / 1e9;
    out.layer["kv.construct_s"] = static_cast<double>(t1 - t0) / 1e9;
    out.layer["kv.load_s"] = static_cast<double>(t2 - t1) / 1e9;

    kv::WorkloadSpec spec;
    spec.keys = kKvKeys;
    spec.mix = w.mix;
    spec.dist = w.dist;
    const kv::ZipfianGenerator zipf(kKvKeys, spec.zipfTheta);
    const kv::ZipfianGenerator *zipf_ptr =
        w.dist == kv::KeyDist::Zipfian ? &zipf : nullptr;

    struct Worker
    {
        std::vector<std::uint64_t> readNs;
        std::vector<std::uint64_t> updateNs;
        /** Payload of this thread's last acked put per key. */
        std::vector<std::uint64_t> lastPayload;
        std::vector<std::uint8_t> wrote;
        std::uint64_t failed = 0;
        std::string error;
    };
    std::vector<Worker> workers(kKvThreads);
    for (auto &worker : workers) {
        worker.readNs.reserve(w.opsPerThread);
        worker.updateNs.reserve(w.opsPerThread);
        worker.lastPayload.assign(kKvKeys + 1, 0);
        worker.wrote.assign(kKvKeys + 1, 0);
    }

    const auto base_lines = startRunPhase(*service);
    RegistryDelta delta;
    const std::uint64_t run_start = nowNs();
    auto work = [&](unsigned t) {
        Worker &me = workers[t];
        kv::OpGenerator gen(spec, zipf_ptr,
                            kv::OpGenerator::workerSeed(seed, t));
        for (std::uint64_t i = 0; i < w.opsPerThread; ++i) {
            const kv::WorkloadOp op = gen.next();
            if (op.kind == kv::WorkloadOp::Kind::Get) {
                std::optional<kv::KvValue> value;
                const std::uint64_t begin = nowNs();
                {
                    BenchSpan span("kv.get");
                    value = service->get(t, op.key);
                }
                me.readNs.push_back(nowNs() - begin);
                if (!value || !value->checkTag(op.key)) {
                    me.error = "get returned a missing or foreign value "
                               "for key " +
                               std::to_string(op.key);
                    return;
                }
            } else {
                bool ok;
                const std::uint64_t begin = nowNs();
                {
                    BenchSpan span("kv.put");
                    ok = service->put(t, op.key, op.value);
                }
                me.updateNs.push_back(nowNs() - begin);
                if (ok) {
                    me.lastPayload[op.key] = op.value.words[1];
                    me.wrote[op.key] = 1;
                } else {
                    ++me.failed;
                }
            }
        }
    };
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kKvThreads; ++t) {
        threads.emplace_back([&, t] {
            // An escaping exception (e.g. PoolExhausted from a put)
            // would terminate the process; report it instead.
            try {
                work(t);
            } catch (const std::exception &e) {
                workers[t].error = std::string("worker stopped: ") + e.what();
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    const double wall = secondsSince(run_start);
    for (const auto &worker : workers)
        check(worker.error.empty(), worker.error);

    std::uint64_t updates = 0;
    for (const auto &worker : workers) {
        out.attempted += worker.readNs.size() + worker.updateNs.size();
        updates += worker.updateNs.size();
        out.failed += worker.failed;
    }
    const double ok_ops = static_cast<double>(out.attempted - out.failed);
    const SimNs sim_ns = serviceLayerMetrics(
        *service, base_lines, static_cast<double>(out.attempted),
        static_cast<double>(updates), delta, out.layer);
    out.e2e["goodput_kops"] = ok_ops / wall / 1e3;
    out.e2e["sim_kops"] =
        ok_ops / (static_cast<double>(sim_ns) / 1e9) / 1e3;
    out.layer["run_wall_s"] = wall;

    // Output check 1: every key holds a tagged value, and a key some
    // thread updated holds one of the threads' last acked payloads.
    std::vector<kv::KvValue> live(kKvKeys + 1);
    for (kv::KvKey key = 1; key <= kKvKeys; ++key) {
        const auto value = service->get(0, key);
        check(value && value->checkTag(key),
              "key " + std::to_string(key) + " lost or corrupt after run");
        bool any = false;
        bool match = false;
        for (const auto &worker : workers) {
            if (worker.wrote[key]) {
                any = true;
                match = match ||
                        value->words[1] == worker.lastPayload[key];
            }
        }
        check(any ? match : value->words[1] == 0,
              "key " + std::to_string(key) +
                  " does not hold its last acked put");
        live[key] = *value;
    }

    // Output check 2: crash with nothing extra drained, recover, and
    // every acked (strict) put must read back unchanged.
    crashAndRecover(*service, kKvKeys * kValueBytes, out.e2e, out.layer);
    for (kv::KvKey key = 1; key <= kKvKeys; ++key) {
        const auto value = service->get(0, key);
        check(value && *value == live[key],
              "key " + std::to_string(key) +
                  " differs after crash + recover");
    }
    service->shutdown();

    for (auto &worker : workers) {
        auto &reads = out.readNs[""];
        auto &writes = out.updateNs[""];
        reads.insert(reads.end(), worker.readNs.begin(),
                     worker.readNs.end());
        writes.insert(writes.end(), worker.updateNs.begin(),
                      worker.updateNs.end());
    }
    return out;
}

// ---------------------------------------------------------------------
// net-epoch
// ---------------------------------------------------------------------

constexpr std::uint64_t kNetKeys = 16384;
constexpr unsigned kNetShards = 2;
constexpr double kNetQps = 4000.0;

RoundOut
netRound(double timeline_s, std::uint64_t seed)
{
    RoundOut out;
    out.bucketed = true;
    out.latencyBase = "wall, from intended departure";
    kv::KvServiceConfig config;
    config.shards = kNetShards;
    config.threads = kNetShards; // loop i transacts as thread i
    config.runtime = "spec";
    config.bucketsPerShard = nextPow2(4 * kNetKeys / kNetShards);
    config.runtimeOptions.groupCommit = true;

    net::ServerConfig server_config;
    server_config.groupCommit = true;
    server_config.epochMaxOps = 16;
    server_config.epochMaxDelayUs = 300;

    const std::uint64_t t0 = nowNs();
    std::optional<kv::KvService> service;
    {
        BenchSpan span("kv.construct");
        service.emplace(config);
    }
    const std::uint64_t t1 = nowNs();
    {
        BenchSpan span("kv.load");
        loadKeys(*service, kNetKeys);
    }
    const std::uint64_t t2 = nowNs();
    net::NetServer server(*service, server_config);
    server.start();
    out.e2e["setup_s"] = secondsSince(t0);
    out.layer["kv.construct_s"] = static_cast<double>(t1 - t0) / 1e9;
    out.layer["kv.load_s"] = static_cast<double>(t2 - t1) / 1e9;

    net::LoadgenConfig load;
    load.port = server.port();
    load.targetQps = kNetQps;
    load.seconds = timeline_s;
    load.arrival = net::Arrival::Poisson;
    load.workload.keys = kNetKeys;
    load.workload.mix = kv::Mix::A;
    load.workload.dist = kv::KeyDist::Zipfian;
    load.seed = seed;
    load.strictFraction = 0.1;
    load.drainSeconds = 5.0;

    const auto base_lines = startRunPhase(*service);
    RegistryDelta delta;
    net::LoadgenResult result;
    {
        BenchSpan span("net.open_loop");
        result = net::runOpenLoop(load);
    }
    server.stop();
    service->sealAllEpochs();
    check(!result.aborted, "load generator aborted: " + result.error);

    out.attempted = result.scheduled;
    out.failed = result.errors + result.lost + result.busyResponses +
                 result.notFound + result.protocolErrors;
    const double acked = static_cast<double>(result.acked);
    const SimNs sim_ns = serviceLayerMetrics(
        *service, base_lines, acked,
        static_cast<double>(result.updateLatency.count()), delta,
        out.layer);
    out.readHist = fromHistogram(result.readLatency);
    out.updateHist = fromHistogram(result.updateLatency);
    out.e2e["goodput_kops"] = ratio(acked, result.wallSeconds) / 1e3;
    out.e2e["sim_kops"] =
        acked / (static_cast<double>(sim_ns) / 1e9) / 1e3;
    out.layer["run_wall_s"] = result.wallSeconds;
    for (const char *stage : {"queue", "exec", "seal_wait", "write"}) {
        const Buckets h = delta.histogram(
            std::string("specpmt_net_stage_") + stage);
        const std::string base = std::string("net.stage_") + stage;
        out.layer[base + "_us_p50"] = h.percentile(50) / 1e3;
        out.layer[base + "_us_p99"] = h.percentile(99) / 1e3;
    }
    out.layer["net.ops_per_commit"] =
        ratio(delta.counter("specpmt_net_batch_ops_total"),
              delta.counter("specpmt_net_batch_commits_total"));
    out.layer["net.epoch_seals_per_s"] =
        ratio(delta.counter("specpmt_epoch_seals_total"),
              result.wallSeconds);
    out.layer["net.busy"] = delta.counter("specpmt_net_busy_total");
    out.layer["loadgen.lost"] = static_cast<double>(result.lost);
    out.layer["loadgen.errors"] = static_cast<double>(result.errors);
    out.layer["loadgen.send_lag_p99_us"] =
        fromHistogram(result.sendLag).percentile(99) / 1e3;

    // Output check: every acked put is what the service serves, and
    // (acks wait for their epoch seal) still is after crash+recover.
    auto check_acked = [&](const char *when) {
        for (const auto &[key, payload] : result.ackedPuts) {
            const auto value = service->get(0, key);
            check(value && *value == kv::KvValue::tagged(key, payload),
                  "key " + std::to_string(key) +
                      " does not hold its last acked put " + when);
        }
    };
    check_acked("after the run");
    crashAndRecover(*service, kNetKeys * kValueBytes, out.e2e,
                    out.layer);
    check_acked("after crash + recover");
    service->shutdown();
    return out;
}

// ---------------------------------------------------------------------
// stamp
// ---------------------------------------------------------------------

/**
 * Forwarding runtime that times each transaction, txBegin to txCommit,
 * on the device's modelled clock, split by whether it stored anything.
 * (On the wall clock these emulated transactions last from under a
 * microsecond to a few, and their percentiles moved by a third between
 * runs of one seed.)
 */
class TimedRuntime final : public txn::TxRuntime
{
  public:
    explicit TimedRuntime(txn::TxRuntime &inner)
        : TxRuntime(inner.pool(), inner.numThreads()), inner_(inner)
    {}

    const char *name() const override { return inner_.name(); }

    void
    txBegin(ThreadId tid) override
    {
        stored_ = false;
        begin_ = dev_.timing().now();
        inner_.txBegin(tid);
    }

    void
    txStore(ThreadId tid, PmOff off, const void *src,
            std::size_t size) override
    {
        stored_ = true;
        ++stores;
        inner_.txStore(tid, off, src, size);
    }

    void
    txLoad(ThreadId tid, PmOff off, void *dst, std::size_t size) override
    {
        inner_.txLoad(tid, off, dst, size);
    }

    void
    txCommit(ThreadId tid) override
    {
        inner_.txCommit(tid);
        (stored_ ? updateNs : readNs)
            .push_back(dev_.timing().now() - begin_);
    }

    void txAbort(ThreadId tid) override { inner_.txAbort(tid); }
    void recover() override { inner_.recover(); }
    void shutdown() override { inner_.shutdown(); }

    void
    compute(ThreadId tid, SimNs ns) override
    {
        inner_.compute(tid, ns);
    }

    std::vector<std::uint64_t> readNs;
    std::vector<std::uint64_t> updateNs;
    std::uint64_t stores = 0;

  private:
    txn::TxRuntime &inner_;
    SimNs begin_ = 0;
    bool stored_ = false;
};

constexpr double kStampScale = 0.25;
/**
 * Emulated device per kernel run (bench::runSoftware uses 320 MiB).
 * The largest SpecSPMT footprint at kStampScale, log included, is under
 * a quarter of it (pmem.headroom_frac).
 */
constexpr std::size_t kStampDeviceBytes = 64u << 20;

/**
 * No background helper threads. With SpecTx's reclaimer running,
 * whether and when it compacts a kernel's log depends on thread
 * timing, which moved one seed's SpecSPMT sim-ns by 4 % and ssca2's
 * wall time by 6x between runs. Without it the kernels are
 * deterministic per seed; kv-a-zipf measures reclamation.
 */
txn::RuntimeOptions
stampRuntimeOptions()
{
    txn::RuntimeOptions options;
    options.backgroundWorkers = false;
    return options;
}

/** Counter deltas summed over several runs. */
struct CounterTotals
{
    std::map<std::string, double> sums;

    void
    add(const RegistryDelta &delta)
    {
        for (const auto &[name, value] : delta.after().counters)
            sums[name] += delta.counter(name);
    }

    double
    counter(const std::string &name) const
    {
        auto it = sums.find(name);
        return it == sums.end() ? 0.0 : it->second;
    }
};

/** One software scheme's cells, summed over the kernels. */
struct SchemeTotals
{
    double setupS = 0.0;
    double runS = 0.0;
    double simNs = 0.0;
    double txs = 0.0;
    double stores = 0.0;
    double fences = 0.0;
    double clwbs = 0.0;
    double lines = 0.0;
    double live = 0.0;
    double logPeak = 0.0;
    double recoverS = 0.0;
    double footprint = 0.0;
    double maxFootprint = 0.0;
    double updates = 0.0;
    CounterTotals counters;
    /** Per-transaction wall latencies by kernel. */
    std::map<std::string, std::vector<std::uint64_t>> readNs;
    std::map<std::string, std::vector<std::uint64_t>> updateNs;
};

/**
 * Run @p kind under @p scheme on a fresh device, as bench::runSoftware
 * does, but with set-up and run timed apart and each transaction timed
 * through TimedRuntime. With @p crash the runtime is not shut down:
 * the device crashes with nothing extra drained and a fresh runtime
 * recovers it, and the recovered state must match the committed one.
 * Returns the measured phase's simulated ns and the state digest.
 */
std::pair<SimNs, std::uint64_t>
runScheme(const char *scheme, workloads::WorkloadKind kind,
          const workloads::WorkloadConfig &config, bool crash,
          SchemeTotals &t)
{
    const std::string what =
        std::string(workloads::workloadKindName(kind)) + " under " +
        scheme;
    const std::uint64_t t0 = nowNs();
    pmem::PmemDevice dev(kStampDeviceBytes);
    pmem::PmemPool pool(dev);
    auto runtime =
        txn::makeRuntime(scheme, pool, 1, stampRuntimeOptions());
    auto workload = workloads::makeWorkload(kind, config);
    {
        BenchSpan span("stamp.setup");
        workload->setup(*runtime);
    }
    t.setupS += secondsSince(t0);
    t.live += static_cast<double>(pool.bytesAllocated());

    // Measure only the transactional phase, on this thread's clock.
    dev.clearStats();
    dev.timing().reset();
    dev.timeOnlyCallingThread();
    RegistryDelta delta;
    auto timed = std::make_unique<TimedRuntime>(*runtime);
    const std::uint64_t t1 = nowNs();
    {
        BenchSpan span("stamp.run");
        workload->run(*timed);
    }
    t.runS += secondsSince(t1);
    const SimNs ns = dev.timing().now();
    t.simNs += static_cast<double>(ns);
    t.fences += static_cast<double>(dev.stats().fences);
    t.clwbs += static_cast<double>(dev.stats().totalClwbs());
    t.lines += static_cast<double>(dev.timing().pmLineWrites());
    dev.publishMetrics();
    delta.finish();
    t.counters.add(delta);
    t.txs += static_cast<double>(timed->readNs.size() +
                                 timed->updateNs.size());
    t.stores += static_cast<double>(timed->stores);
    t.updates += static_cast<double>(timed->updateNs.size());
    const std::string kernel = workloads::workloadKindName(kind);
    t.readNs[kernel] = std::move(timed->readNs);
    t.updateNs[kernel] = std::move(timed->updateNs);
    timed.reset();
    if (auto *spec_tx = dynamic_cast<core::SpecTx *>(runtime.get()))
        t.logPeak += static_cast<double>(spec_tx->peakLogBytes());

    if (!crash)
        runtime->shutdown();
    check(workload->verify(*runtime), what + ": verify() fails");
    const std::uint64_t digest = workload->digest(*runtime);
    if (!crash)
        return {ns, digest};

    const std::uint64_t c0 = nowNs();
    runtime.reset(); // the old process is gone
    dev.simulateCrash(pmem::CrashPolicy::nothing());
    pool.reopenAfterCrash();
    const std::uint64_t c1 = nowNs();
    const double bytes = static_cast<double>(footprintBytes(dev));
    t.footprint += bytes;
    t.maxFootprint = std::max(t.maxFootprint, bytes);
    const std::uint64_t c2 = nowNs();
    auto recovered =
        txn::makeRuntime(scheme, pool, 1, stampRuntimeOptions());
    recovered->recover();
    t.recoverS += static_cast<double>(c1 - c0) / 1e9 + secondsSince(c2);
    check(workload->verifyStructural(*recovered),
          what + ": recovered state fails verifyStructural()");
    check(workload->digest(*recovered) == digest,
          what + ": recovered digest differs from the committed one");
    recovered->shutdown();
    return {ns, digest};
}

RoundOut
stampRound(std::uint64_t seed)
{
    RoundOut out;
    out.latencyBase = "simulated ns, per tx; geomean of kernels";
    out.goodputBase = "simulated ns (the modelled machine)";
    SchemeTotals pmdk;
    SchemeTotals spec;
    std::vector<double> sw;
    std::vector<double> hw;
    double trace_setup_s = 0.0;
    double replay_s = 0.0;
    double ede_writes = 0.0;
    double hpmt_writes = 0.0;

    for (const auto kind : workloads::allWorkloads()) {
        const std::string kname = workloads::workloadKindName(kind);
        workloads::WorkloadConfig config;
        config.seed = seed;
        config.scale = kStampScale;

        // Fig 12 pair on identical inputs: same logical outcome.
        const auto [pmdk_ns, pmdk_digest] =
            runScheme("pmdk", kind, config, false, pmdk);
        const auto [spec_ns, spec_digest] =
            runScheme("spec", kind, config, true, spec);
        check(spec_digest == pmdk_digest,
              kname + ": SpecSPMT and PMDK digests differ");
        sw.push_back(static_cast<double>(pmdk_ns) /
                     static_cast<double>(spec_ns));
        out.layer["stamp." + kname + ".sw_speedup"] = sw.back();

        // Fig 13 pair: record the kernel's trace and replay it through
        // EDE and SpecHPMT.
        txn::MemTrace trace;
        {
            const std::uint64_t t0 = nowNs();
            pmem::PmemDevice dev(kStampDeviceBytes);
            pmem::PmemPool pool(dev);
            txn::TraceRecorder recorder(pool, 1);
            auto workload = workloads::makeWorkload(kind, config);
            {
                BenchSpan span("stamp.setup");
                workload->setup(recorder);
            }
            trace_setup_s += secondsSince(t0);
            recorder.startRecording();
            workload->run(recorder);
            recorder.stopRecording();
            check(workload->verify(recorder),
                  kname + ": traced run fails verify()");
            trace = recorder.takeTrace();
            trace.residentBytes = pool.bytesAllocated();
        }
        const sim::SimConfig sim_config;
        const std::uint64_t r0 = nowNs();
        sim::HwStats ede;
        sim::HwStats hpmt;
        {
            BenchSpan span("sim.replay");
            ede = sim::simulate(sim::HwScheme::Ede, sim_config, trace);
            hpmt = sim::simulate(sim::HwScheme::SpecHpmt, sim_config,
                                 trace);
        }
        replay_s += secondsSince(r0);
        hw.push_back(static_cast<double>(ede.ns) /
                     static_cast<double>(hpmt.ns));
        out.layer["stamp." + kname + ".hw_speedup"] = hw.back();
        ede_writes += static_cast<double>(ede.pmLineWrites());
        hpmt_writes += static_cast<double>(hpmt.pmLineWrites());
    }

    out.attempted = static_cast<std::uint64_t>(spec.txs);
    out.readNs = std::move(spec.readNs);
    out.updateNs = std::move(spec.updateNs);
    out.e2e["setup_s"] = pmdk.setupS + spec.setupS + trace_setup_s;
    // On stamp the system under test is the modelled ADR machine, as
    // in the paper's Fig 12: its throughput is the sim figure. The
    // emulator's own wall rate (stamp.spec.wall_s) moved by a fifth
    // between runs of one seed on a 4-vCPU host.
    out.e2e["sim_kops"] = spec.txs / (spec.simNs / 1e9) / 1e3;
    out.e2e["goodput_kops"] = out.e2e["sim_kops"];
    out.e2e["space_amp"] = spec.footprint / spec.live;
    out.e2e["recover_s"] = spec.recoverS;

    const double wall = pmdk.runS + spec.runS + replay_s;
    out.layer["run_wall_s"] = wall;
    out.layer["stamp.wall_s"] = wall;
    out.layer["stamp.pmdk.wall_s"] = pmdk.runS;
    out.layer["stamp.spec.wall_s"] = spec.runS;
    out.layer["stamp.sw_speedup_geomean"] = geomean(sw);
    out.layer["stamp.hw_speedup_geomean"] = geomean(hw);
    out.layer["stamp.pmdk.fences_per_tx"] = ratio(pmdk.fences, pmdk.txs);
    out.layer["stamp.spec.fences_per_tx"] = ratio(spec.fences, spec.txs);
    out.layer["stamp.spec.log_bytes_per_tx"] = ratio(
        spec.counters.counter("specpmt_spec_tx_log_bytes_written_total"),
        spec.txs);
    out.layer["sim.spec_hpmt.pm_write_ratio"] =
        ratio(hpmt_writes, ede_writes);
    coreLayerMetrics(spec.counters, spec.txs, spec.updates, spec.fences,
                     spec.clwbs, spec.lines, out.layer);
    out.layer["pmem.footprint_mb.shard0"] = spec.maxFootprint / (1u << 20);
    out.layer["pmem.headroom_frac"] =
        1.0 - spec.maxFootprint / static_cast<double>(kStampDeviceBytes);
    out.layer["core.log_peak_mb"] = spec.logPeak / (1u << 20);
    out.layer["core.dedup_hit_frac"] = ratio(
        spec.counters.counter("specpmt_spec_tx_dedup_hits_total"),
        spec.stores);
    return out;
}

// ---------------------------------------------------------------------
// Run loop and report
// ---------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *prefix) -> const char * {
            const std::size_t n = std::strlen(prefix);
            return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n
                                                  : nullptr;
        };
        if (const char *v = value("--workload="))
            args.workload = v;
        else if (const char *v = value("--seed="))
            args.seed = std::strtoull(v, nullptr, 10);
        else if (const char *v = value("--seconds="))
            args.seconds = std::atof(v);
        else if (const char *v = value("--trace="))
            args.trace = std::atoi(v) != 0;
        else if (const char *v = value("--trace-out="))
            args.traceOut = v;
        else
            throw std::invalid_argument("unknown argument: " + arg);
    }
    return args;
}

/** End-to-end metrics: name, unit, time base. */
struct MetricDef
{
    const char *name;
    const char *unit;
    const char *base;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s", "wall"},
    {"goodput_kops", "kops/s", "wall"},
    {"sim_kops", "kops/s", "simulated ns"},
    {"update_p50_us", "us", "wall"},
    {"update_p99_us", "us", "wall"},
    {"space_amp", "ratio", "bytes / bytes"},
    {"recover_s", "s", "wall"},
};

/** Stamp's paper figures, reported beside the end-to-end table. */
const MetricDef kStampFigures[] = {
    {"stamp.sw_speedup_geomean", "ratio", "simulated ns"},
    {"stamp.hw_speedup_geomean", "ratio", "simulated ns"},
    {"stamp.wall_s", "s", "wall"},
};

/** Per-layer metrics and units, in report order. */
std::vector<std::pair<std::string, std::string>>
layerDefs()
{
    std::vector<std::pair<std::string, std::string>> defs = {
        {"pmem.fences_per_op", "count"},
        {"pmem.clwbs_per_op", "count"},
        {"pmem.line_writes_per_op", "count"},
        {"pmem.sim_ns_fence_drain_frac", "ratio"},
        {"pmem.sim_ns_wpq_stall_frac", "ratio"},
        {"pmem.footprint_mb.shard0", "MiB"},
        {"pmem.footprint_mb.shard1", "MiB"},
        {"pmem.headroom_frac", "ratio"},
        {"core.log_bytes_per_update", "bytes"},
        {"core.write_amp", "ratio"},
        {"core.log_peak_mb", "MiB"},
        {"core.reclaim_cycles", "count"},
        {"core.reclaim_freed_frac", "ratio"},
        {"core.epoch_txs_per_seal", "count"},
        {"core.dedup_hit_frac", "ratio"},
        {"core.dedup_hits_per_tx", "count"},
        {"kv.construct_s", "s"},
        {"kv.load_s", "s"},
        {"kv.crash_s", "s"},
        {"kv.shard_recovery_ms_max", "ms"},
        {"kv.get_self_us_p50", "us"},
        {"kv.get_self_us_p99", "us"},
        {"kv.put_self_us_p50", "us"},
        {"kv.put_self_us_p99", "us"},
        {"kv.readonly_rejects", "count"},
        {"kv.put_failures", "count"},
        {"net.stage_queue_us_p50", "us"},
        {"net.stage_queue_us_p99", "us"},
        {"net.stage_exec_us_p50", "us"},
        {"net.stage_exec_us_p99", "us"},
        {"net.stage_seal_wait_us_p50", "us"},
        {"net.stage_seal_wait_us_p99", "us"},
        {"net.stage_write_us_p50", "us"},
        {"net.stage_write_us_p99", "us"},
        {"net.ops_per_commit", "count"},
        {"net.epoch_seals_per_s", "1/s"},
        {"net.busy", "count"},
        {"loadgen.lost", "count"},
        {"loadgen.errors", "count"},
        {"loadgen.send_lag_p99_us", "us"},
        {"stamp.sw_speedup_geomean", "ratio"},
        {"stamp.hw_speedup_geomean", "ratio"},
        {"stamp.pmdk.fences_per_tx", "count"},
        {"stamp.spec.fences_per_tx", "count"},
        {"stamp.spec.log_bytes_per_tx", "bytes"},
        {"sim.spec_hpmt.pm_write_ratio", "ratio"},
        {"stamp.wall_s", "s"},
        {"stamp.pmdk.wall_s", "s"},
        {"stamp.spec.wall_s", "s"},
        {"failed_frac", "ratio"},
        {"obs.trace_overhead_frac", "ratio"},
    };
    for (const auto kind : workloads::allWorkloads()) {
        const std::string k = workloads::workloadKindName(kind);
        defs.emplace_back("stamp." + k + ".sw_speedup", "ratio");
        defs.emplace_back("stamp." + k + ".hw_speedup", "ratio");
    }
    for (const char *span : kSpanNames)
        defs.emplace_back(std::string("self_ms.") + span, "ms");
    return defs;
}

/**
 * Relative cost of tracing: traced over untraced rounds, on update p50
 * for the open-loop workload (its wall time is fixed by the arrival
 * schedule) and on wall time per attempted op elsewhere. Positive
 * means tracing slowed the workload down.
 */
double
traceOverhead(const std::vector<RoundOut> &rounds)
{
    std::vector<double> plain;
    std::vector<double> traced;
    for (const auto &r : rounds) {
        const double v =
            r.bucketed ? r.updateHist.percentile(50)
                       : r.layer.at("run_wall_s") /
                             static_cast<double>(r.attempted);
        (r.traced ? traced : plain).push_back(v);
    }
    return ratio(median(traced), median(plain)) - 1.0;
}

/** Operations attempted and failed over all rounds. */
std::pair<std::uint64_t, std::uint64_t>
opCounts(const std::vector<RoundOut> &rounds)
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (const auto &r : rounds) {
        attempted += r.attempted;
        failed += r.failed;
    }
    return {attempted, failed};
}

/** Median over rounds of per-round cell @p name (0 when absent). */
double
roundMedian(const std::vector<RoundOut> &rounds,
            Metrics RoundOut::*cells, const std::string &name)
{
    std::vector<double> values;
    for (const auto &r : rounds) {
        auto it = (r.*cells).find(name);
        if (it != (r.*cells).end())
            values.push_back(it->second);
    }
    return median(values);
}

/**
 * End-to-end metrics, plus a table of them and of the figures the
 * issue names that are not gated (see perfbench/README.md).
 */
Metrics
endToEnd(const std::vector<RoundOut> &rounds, std::string &table)
{
    const RoundOut &first = rounds.front();
    Metrics m;
    for (const char *name :
         {"setup_s", "goodput_kops", "sim_kops", "space_amp",
          "recover_s"})
        m[name] = roundMedian(rounds, &RoundOut::e2e, name);
    std::size_t read_samples = 0;
    std::size_t update_samples = 0;
    if (first.bucketed) {
        Buckets reads;
        Buckets updates;
        for (const auto &r : rounds) {
            reads.merge(r.readHist);
            updates.merge(r.updateHist);
        }
        read_samples = reads.count();
        update_samples = updates.count();
        m["read_p50_us"] = reads.percentile(50) / 1e3;
        m["read_p99_us"] = reads.percentile(99) / 1e3;
        m["update_p50_us"] = updates.percentile(50) / 1e3;
        m["update_p99_us"] = updates.percentile(99) / 1e3;
    } else {
        using Groups = std::map<std::string, std::vector<std::uint64_t>>;
        auto pool = [&](Groups RoundOut::*field, std::size_t &samples) {
            Groups groups;
            for (const auto &r : rounds) {
                for (const auto &[group, ns] : r.*field) {
                    auto &all = groups[group];
                    all.insert(all.end(), ns.begin(), ns.end());
                    samples += ns.size();
                }
            }
            return groups;
        };
        // Percentile per group, geometric mean over the groups with
        // at least ten samples beyond the p99 (labyrinth's few dozen
        // transactions would make its p99 its maximum).
        auto cell = [](Groups &groups, double p) {
            std::vector<double> values;
            for (auto &[group, ns] : groups) {
                if (ns.size() >= 1000)
                    values.push_back(percentile(ns, p));
            }
            return values.empty() ? 0.0 : geomean(values) / 1e3;
        };
        Groups reads = pool(&RoundOut::readNs, read_samples);
        Groups updates = pool(&RoundOut::updateNs, update_samples);
        m["read_p50_us"] = cell(reads, 50);
        m["read_p99_us"] = cell(reads, 99);
        m["update_p50_us"] = cell(updates, 50);
        m["update_p99_us"] = cell(updates, 99);
    }
    const auto [attempted, failed] = opCounts(rounds);
    m["failed_frac"] = ratio(static_cast<double>(failed),
                             static_cast<double>(attempted));

    const std::string kind =
        first.bucketed ? " bucketed samples" : " exact samples";
    const std::string rounds_n = std::to_string(rounds.size()) + " rounds";
    char line[200];
    auto row = [&](const std::string &name, double value, const char *unit,
                   const std::string &base, const std::string &samples) {
        std::snprintf(line, sizeof(line), "%-26s %14.4f %-7s %-42s %s\n",
                      name.c_str(), value, unit, base.c_str(),
                      samples.c_str());
        table += line;
    };
    for (const auto &def : kEndToEnd) {
        const std::string name = def.name;
        if (name.rfind("update_", 0) == 0) {
            row(name, m[name], def.unit, first.latencyBase,
                std::to_string(update_samples) + kind);
        } else if (name == "goodput_kops") {
            row(name, m[name], def.unit, first.goodputBase, rounds_n);
        } else {
            row(name, m[name], def.unit, def.base, rounds_n);
        }
    }
    table += "not gated:\n";
    row("read_p50_us", m["read_p50_us"], "us", first.latencyBase,
        std::to_string(read_samples) + kind);
    row("read_p99_us", m["read_p99_us"], "us", first.latencyBase,
        std::to_string(read_samples) + kind);
    row("failed_frac", m["failed_frac"], "ratio", "failed / attempted",
        std::to_string(attempted) + " ops");
    for (const MetricDef &def : kStampFigures) {
        if (first.layer.count(def.name) != 0) {
            row(def.name, roundMedian(rounds, &RoundOut::layer, def.name),
                def.unit, def.base, rounds_n);
        }
    }
    return m;
}

Metrics
perLayer(const std::vector<RoundOut> &rounds)
{
    Metrics m;
    for (const auto &[name, unit] : layerDefs())
        m[name] = roundMedian(rounds, &RoundOut::layer, name);
    const auto [attempted, failed] = opCounts(rounds);
    m["failed_frac"] = ratio(static_cast<double>(failed),
                             static_cast<double>(attempted));
    m["obs.trace_overhead_frac"] = traceOverhead(rounds);

    // Span-derived self times, from the traced rounds only.
    unsigned traced_rounds = 0;
    for (const auto &r : rounds)
        traced_rounds += r.traced ? 1 : 0;
    std::map<std::string, double> self_ns;
    std::vector<std::uint64_t> get_self;
    std::vector<std::uint64_t> put_self;
    SpanLog::global().forEach([&](const Span &s) {
        self_ns[s.name] += static_cast<double>(s.selfNs());
        if (std::strcmp(s.name, "kv.get") == 0)
            get_self.push_back(s.selfNs());
        else if (std::strcmp(s.name, "kv.put") == 0)
            put_self.push_back(s.selfNs());
    });
    for (const char *span : kSpanNames) {
        m[std::string("self_ms.") + span] =
            self_ns[span] / 1e6 / std::max(traced_rounds, 1u);
    }
    m["kv.get_self_us_p50"] = percentile(get_self, 50) / 1e3;
    m["kv.get_self_us_p99"] = percentile(get_self, 99) / 1e3;
    m["kv.put_self_us_p50"] = percentile(put_self, 50) / 1e3;
    m["kv.put_self_us_p99"] = percentile(put_self, 99) / 1e3;
    return m;
}

RoundOut
runRound(const Args &args, unsigned round)
{
    const std::uint64_t seed = roundSeed(args.seed, round);
    if (args.workload == "kv-a-zipf") {
        return kvRound({kv::Mix::A, kv::KeyDist::Zipfian, 200000}, seed);
    }
    if (args.workload == "kv-b-uniform") {
        return kvRound({kv::Mix::B, kv::KeyDist::Uniform, 400000}, seed);
    }
    if (args.workload == "net-epoch")
        return netRound(3.0, seed);
    if (args.workload == "stamp")
        return stampRound(seed);
    throw std::invalid_argument("unknown workload: " + args.workload);
}

void
printJson(const Metrics &m, const std::map<std::string, std::string> &units,
          std::uint64_t attempted, std::uint64_t failed)
{
    std::string out = "{\"correct\": true, \"attempted\": " +
                      std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, unit] : units) {
        const double value = m.at(name);
        if (!std::isfinite(value))
            throw std::runtime_error("metric " + name + " is not finite");
        char cell[256];
        std::snprintf(cell, sizeof(cell),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      first ? "" : ", ", name.c_str(), value, unit.c_str());
        out += cell;
        first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

int
run(const Args &args)
{
    const std::uint64_t start = nowNs();
    std::vector<RoundOut> rounds;
    // A traced run alternates untraced and traced rounds and needs at
    // least one of each.
    while (rounds.empty() || secondsSince(start) < args.seconds ||
           (args.trace && rounds.size() < 2)) {
        const unsigned round = static_cast<unsigned>(rounds.size());
        const bool traced = args.trace && round % 2 == 1;
        SpanLog::global().setEnabled(traced);
        if (traced) {
            obs::Tracer::global().clear();
            obs::Tracer::global().enable();
        }
        RoundOut out = runRound(args, round);
        obs::Tracer::global().disable();
        SpanLog::global().setEnabled(false);
        out.traced = traced;
        std::string cells;
        for (const auto &[name, value] : out.e2e)
            cells += " " + name + "=" + std::to_string(value);
        std::fprintf(stderr, "round %u%s at %.2f s:%s\n", round,
                     traced ? " (traced)" : "", secondsSince(start),
                     cells.c_str());
        rounds.push_back(std::move(out));
    }

    const auto [attempted, failed] = opCounts(rounds);
    std::printf("perfbench %s seed=%llu rounds=%zu attempted=%llu "
                "failed=%llu\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), rounds.size(),
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));

    std::map<std::string, std::string> units;
    Metrics metrics;
    if (!args.trace) {
        std::string table;
        metrics = endToEnd(rounds, table);
        std::printf("%-26s %14s %-7s %-42s %s\n", "metric", "value",
                    "unit", "time base", "samples");
        std::printf("%s", table.c_str());
        for (const auto &def : kEndToEnd)
            units[def.name] = def.unit;
    } else {
        metrics = perLayer(rounds);
        for (const auto &[name, unit] : layerDefs()) {
            units[name] = unit;
            std::printf("%-34s %14.4f %s\n", name.c_str(), metrics[name],
                        unit.c_str());
        }
        if (!args.traceOut.empty()) {
            writeSpans(args.traceOut);
            obs::Tracer::global().writeChromeJson(args.traceOut +
                                                  ".lib.json");
        }
    }
    printJson(metrics, units, attempted, failed);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const CheckFailed &e) {
        std::fprintf(stderr, "perfbench: output check failed: %s\n",
                     e.what());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
