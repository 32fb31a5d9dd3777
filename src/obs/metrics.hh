/**
 * @file
 * Runtime-wide metrics registry: the one place every layer of the
 * stack (pmem device/timing model, transaction runtimes, KV service,
 * hardware simulators, crash explorer) publishes its persistence
 * events, so benches and CI jobs emit comparable machine-readable
 * snapshots instead of hand-rolled printf dumps.
 *
 * Three instrument kinds:
 *
 *  - Counter: monotonically increasing; the add() fast path is one
 *    relaxed fetch_add on a cache-line-padded per-thread shard, so
 *    hot paths (every emulated store) pay no shared-line contention;
 *  - Gauge: a settable signed level (bytes in use, last recovery ns);
 *  - Histogram: a striped-lock wrapper over LatencyHistogram, for
 *    latency/size distributions recorded from many threads.
 *
 * Instruments are registered by (name, labels) and live for the
 * registry's lifetime, so call sites cache a reference once:
 *
 *     static auto &commits = obs::Registry::global().counter(
 *         "specpmt_spec_tx_commits_total",
 *         "committed SpecSPMT transactions");
 *     commits.add();
 *
 * snapshot() folds the shards into a point-in-time Snapshot that
 * serializes as Prometheus text or JSON. Snapshots are torn-free per
 * sample (each shard read is atomic and counters are monotone) though
 * not a cross-metric atomic cut — the same contract real scrape-based
 * systems provide.
 *
 * Tests that need exact isolated counts construct their own Registry;
 * production code shares Registry::global().
 */

#ifndef SPECPMT_OBS_METRICS_HH
#define SPECPMT_OBS_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stats.hh"

namespace specpmt::obs
{

/** Label pairs attached to an instrument, e.g. {{"class","log"}}. */
using Labels = std::vector<std::pair<std::string, std::string>>;

/** Per-thread shard slots per counter (a power of two). */
constexpr unsigned kCounterShards = 16;

/** Stripes per histogram (each holds a mutex + LatencyHistogram). */
constexpr unsigned kHistogramStripes = 8;

namespace detail
{
/** Hands out the next thread shard id; only threadShard() calls it. */
unsigned nextThreadShard();
} // namespace detail

/**
 * Index of the calling thread's shard slot: a small id handed out on
 * first use, fixed for the thread's lifetime. Distinct threads may
 * share a slot (adds are atomic); a single thread never migrates, so
 * its adds stay on one cache line. Inline so hot add() sites reduce
 * to a TLS load plus the fetch_add.
 */
inline unsigned
threadShard()
{
    thread_local const unsigned shard = detail::nextThreadShard();
    return shard;
}

/** Monotonically increasing event counter; see file comment. */
class Counter
{
  public:
    void
    add(std::uint64_t delta = 1)
    {
        slots_[threadShard() & (kCounterShards - 1)].value.fetch_add(
            delta, std::memory_order_relaxed);
    }

    /** Sum over shards (torn-free: monotone, per-shard atomic). */
    std::uint64_t
    value() const
    {
        std::uint64_t sum = 0;
        for (const auto &slot : slots_)
            sum += slot.value.load(std::memory_order_relaxed);
        return sum;
    }

  private:
    struct alignas(64) Slot
    {
        std::atomic<std::uint64_t> value{0};
    };
    std::array<Slot, kCounterShards> slots_;
};

/**
 * A settable floating-point level, for derived ratios (write
 * amplification, flushes per transaction) that lose their meaning
 * truncated to integers. Serialized into the gauge sections of the
 * expositions alongside integer Gauges.
 */
class FloatGauge
{
  public:
    void
    set(double value)
    {
        value_.store(value, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/** A settable signed level. */
class Gauge
{
  public:
    void
    set(std::int64_t value)
    {
        value_.store(value, std::memory_order_relaxed);
    }

    void
    add(std::int64_t delta)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    std::int64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::int64_t> value_{0};
};

/**
 * Thread-safe distribution instrument over LatencyHistogram. record()
 * takes the calling thread's stripe lock (uncontended in steady
 * state); snapshot() merges all stripes.
 */
class Histogram
{
  public:
    /**
     * Record one sample. A nonzero @p exemplarId attaches an
     * OpenMetrics-style exemplar to the sample's bucket: the bucket
     * remembers (id, value) of the most recent exemplified sample,
     * so a live scrape can link a tail bucket straight to the trace
     * of a request that landed in it.
     */
    void record(std::uint64_t value, std::uint64_t exemplarId = 0);

    /** Fold a thread-local LatencyHistogram in post-run (bulk path). */
    void mergeFrom(const LatencyHistogram &other);

    /** Merged copy of all stripes. */
    LatencyHistogram snapshot() const;

    /** Merged exemplars: bucket index -> (exemplar id, value). */
    std::map<unsigned, std::array<std::uint64_t, 2>> exemplars() const;

  private:
    struct Stripe
    {
        mutable std::mutex mutex;
        LatencyHistogram hist;
        /** Bucket index -> (exemplar id, value); latest wins. */
        std::map<unsigned, std::array<std::uint64_t, 2>> exemplars;
    };
    std::array<Stripe, kHistogramStripes> stripes_;
};

/** One serialized histogram in a Snapshot. */
struct HistogramSample
{
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    /** (lower bound, upper bound, count) of every non-empty bucket. */
    std::vector<std::array<std::uint64_t, 3>> buckets;
    /**
     * (bucket upper bound, exemplar id, sample value) for every
     * bucket that holds an exemplar, sorted by bound. Empty unless
     * record() was called with a nonzero exemplar id, so expositions
     * without exemplars are byte-identical to the pre-exemplar form.
     */
    std::vector<std::array<std::uint64_t, 3>> exemplars;
};

/**
 * Point-in-time view of a registry, keyed by exposition name
 * (`name{label="value",...}`), ready to serialize or diff.
 */
struct Snapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, std::int64_t> gauges;
    /** FloatGauge levels; merged into the gauge output sections. */
    std::map<std::string, double> floatGauges;
    std::map<std::string, HistogramSample> histograms;
    /** Base metric name -> help string (for # HELP lines). */
    std::map<std::string, std::string> help;

    /** Prometheus text exposition format. */
    std::string toPrometheus() const;

    /** JSON object with counters/gauges/histograms sections. */
    std::string toJson() const;
};

/**
 * Flat view of a Prometheus text file: exposition name -> value.
 * Histogram series appear as their _bucket/_sum/_count samples.
 */
using FlatSamples = std::map<std::string, double>;

/**
 * Parse Prometheus text exposition (as produced by toPrometheus, but
 * accepting any conforming file). Returns false and sets @p error on
 * the first malformed line.
 */
bool parsePrometheus(std::string_view text, FlatSamples &out,
                     std::string &error);

/** Build the exposition name: `name{k1="v1",k2="v2"}`. */
std::string expositionName(std::string_view name, const Labels &labels);

/**
 * Append @p text to @p out as the body of a JSON string literal, with
 * the quote, the backslash and every control character escaped. Every
 * JSON writer in the tree escapes through this one function.
 */
void appendJsonEscaped(std::string &out, std::string_view text);

/**
 * Force @p name into the Prometheus metric-name charset
 * `[a-zA-Z_:][a-zA-Z0-9_:]*`: every illegal byte becomes '_', an
 * illegal (or missing) leading byte gains a '_' prefix. Applied on
 * every registration so dynamically composed names (e.g. derived from
 * workload or shard identifiers) can never produce an unparseable
 * exposition.
 */
std::string sanitizeMetricName(std::string_view name);

/** The instrument registry; see file comment. */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** The process-wide registry every runtime publishes into. */
    static Registry &global();

    /**
     * Find or create the counter `name{labels}`. @p help is recorded
     * on first registration (later values are ignored). The returned
     * reference stays valid for the registry's lifetime.
     */
    Counter &counter(std::string_view name, std::string_view help = {},
                     const Labels &labels = {});

    Gauge &gauge(std::string_view name, std::string_view help = {},
                 const Labels &labels = {});

    FloatGauge &floatGauge(std::string_view name,
                           std::string_view help = {},
                           const Labels &labels = {});

    Histogram &histogram(std::string_view name,
                         std::string_view help = {},
                         const Labels &labels = {});

    /** Point-in-time copy of every instrument. */
    Snapshot snapshot() const;

    /** Snapshot serialized and written to @p path; false on IO error. */
    bool writePrometheus(const std::string &path) const;
    bool writeJson(const std::string &path) const;

  private:
    enum class Kind
    {
        Counter,
        Gauge,
        FloatGauge,
        Histogram,
    };

    struct Entry
    {
        Kind kind;
        std::string baseName;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<class FloatGauge> floatGauge;
        std::unique_ptr<Histogram> histogram;
    };

    Entry &entry(Kind kind, std::string_view name,
                 std::string_view help, const Labels &labels);

    mutable std::mutex mutex_;
    /** Exposition name -> instrument; map keeps output sorted. */
    std::map<std::string, Entry> entries_;
    std::map<std::string, std::string> help_;
};

} // namespace specpmt::obs

#endif // SPECPMT_OBS_METRICS_HH
