/**
 * @file
 * Tracer implementation: per-thread ring buffers chained on a
 * lock-free list, steady-clock time base, Chrome trace-event JSON
 * serialization.
 */

#include "obs/trace.hh"

#include <chrono>
#include <cstdio>
#include <mutex>
#include <vector>

#include "obs/metrics.hh"

namespace specpmt::obs
{

namespace
{

/** One buffered span. */
struct Event
{
    const char *name;
    const char *category;
    std::uint64_t startNs;
    std::uint64_t endNs;
    /** Correlation id (0 = none); see Tracer::record. */
    std::uint64_t id;
    /** Numeric arguments (keys are literals, like name/category). */
    TraceArg args[Tracer::kMaxTraceArgs];
    unsigned numArgs;
};

} // namespace

/**
 * Fixed ring of events owned by one thread. Only the owner writes;
 * the serializer reads under the buffer mutex, which the owner also
 * takes per record — uncontended in steady state since serialization
 * happens at artifact-write time.
 */
struct Tracer::ThreadBuffer
{
    std::mutex mutex;
    std::vector<Event> ring = std::vector<Event>(kRingCapacity);
    std::size_t head = 0;  // next write position
    std::size_t size = 0;  // events held (<= kRingCapacity)
    std::uint64_t dropped = 0;
    std::uint64_t tid = 0;
    ThreadBuffer *next = nullptr;
};

Tracer &
Tracer::global()
{
    static Tracer instance;
    return instance;
}

std::uint64_t
Tracer::now()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
Tracer::enable()
{
    enabled_.store(true, std::memory_order_relaxed);
}

void
Tracer::disable()
{
    enabled_.store(false, std::memory_order_relaxed);
}

Tracer::ThreadBuffer &
Tracer::threadBuffer()
{
    thread_local ThreadBuffer *mine = nullptr;
    if (mine == nullptr) {
        static std::atomic<std::uint64_t> nextTid{1};
        // Leaked deliberately: the serializer may walk the list after
        // the owning thread exits, and tracing threads are few.
        auto *fresh = new ThreadBuffer;
        fresh->tid = nextTid.fetch_add(1, std::memory_order_relaxed);
        fresh->next = buffers_.load(std::memory_order_acquire);
        while (!buffers_.compare_exchange_weak(fresh->next, fresh,
                                               std::memory_order_release,
                                               std::memory_order_acquire)) {
        }
        mine = fresh;
    }
    return *mine;
}

void
Tracer::record(const char *name, const char *category,
               std::uint64_t startNs, std::uint64_t endNs,
               std::uint64_t id, const TraceArg *args,
               unsigned numArgs)
{
    // Registered up front (outside the buffer lock) so a live scrape
    // can alert on trace loss; the per-buffer counter below feeds
    // droppedEvents() and is reset by clear(), while this registry
    // counter stays cumulative like every other *_total series.
    static Counter &droppedTotal = Registry::global().counter(
        "specpmt_trace_dropped_total",
        "trace spans overwritten by ring-buffer wraparound");
    ThreadBuffer &buf = threadBuffer();
    std::lock_guard<std::mutex> guard(buf.mutex);
    if (buf.size == kRingCapacity) {
        ++buf.dropped;
        droppedTotal.add();
    } else {
        ++buf.size;
    }
    Event &e = buf.ring[buf.head];
    e = Event{};
    e.name = name;
    e.category = category;
    e.startNs = startNs;
    e.endNs = endNs;
    e.id = id;
    e.numArgs = numArgs < kMaxTraceArgs ? numArgs : kMaxTraceArgs;
    for (unsigned i = 0; i < e.numArgs; ++i)
        e.args[i] = args[i];
    buf.head = (buf.head + 1) % kRingCapacity;
}

std::uint64_t
Tracer::droppedEvents() const
{
    std::uint64_t total = 0;
    for (ThreadBuffer *buf = buffers_.load(std::memory_order_acquire);
         buf != nullptr; buf = buf->next) {
        std::lock_guard<std::mutex> guard(buf->mutex);
        total += buf->dropped;
    }
    return total;
}

std::size_t
Tracer::bufferedEvents() const
{
    std::size_t total = 0;
    for (ThreadBuffer *buf = buffers_.load(std::memory_order_acquire);
         buf != nullptr; buf = buf->next) {
        std::lock_guard<std::mutex> guard(buf->mutex);
        total += buf->size;
    }
    return total;
}

std::string
Tracer::toChromeJson(std::uint64_t sinceNs) const
{
    std::string out = "{\"traceEvents\": [";
    bool first = true;
    for (ThreadBuffer *buf = buffers_.load(std::memory_order_acquire);
         buf != nullptr; buf = buf->next) {
        std::lock_guard<std::mutex> guard(buf->mutex);
        std::size_t start =
            (buf->head + kRingCapacity - buf->size) % kRingCapacity;
        for (std::size_t i = 0; i < buf->size; ++i) {
            const Event &e = buf->ring[(start + i) % kRingCapacity];
            if (e.endNs < sinceNs)
                continue;
            out += first ? "\n" : ",\n";
            first = false;
            out += "{\"name\": \"";
            appendJsonEscaped(out, e.name);
            out += "\", \"cat\": \"";
            appendJsonEscaped(out, e.category);
            // Chrome trace timestamps are microseconds; keep sub-µs
            // resolution by emitting three decimal places.
            char buf2[160];
            std::uint64_t durNs =
                e.endNs > e.startNs ? e.endNs - e.startNs : 0;
            std::snprintf(buf2, sizeof buf2,
                          "\", \"ph\": \"X\", \"ts\": %llu.%03u, "
                          "\"dur\": %llu.%03u, \"pid\": 1, \"tid\": %llu",
                          static_cast<unsigned long long>(e.startNs / 1000),
                          static_cast<unsigned>(e.startNs % 1000),
                          static_cast<unsigned long long>(durNs / 1000),
                          static_cast<unsigned>(durNs % 1000),
                          static_cast<unsigned long long>(buf->tid));
            out += buf2;
            if (e.id != 0 || e.numArgs != 0) {
                out += ", \"args\": {";
                bool firstArg = true;
                if (e.id != 0) {
                    std::snprintf(buf2, sizeof buf2, "\"id\": %llu",
                                  static_cast<unsigned long long>(e.id));
                    out += buf2;
                    firstArg = false;
                }
                for (unsigned a = 0; a < e.numArgs; ++a) {
                    if (!firstArg)
                        out += ", ";
                    firstArg = false;
                    out += '"';
                    appendJsonEscaped(out, e.args[a].key);
                    std::snprintf(
                        buf2, sizeof buf2, "\": %llu",
                        static_cast<unsigned long long>(e.args[a].value));
                    out += buf2;
                }
                out += '}';
            }
            out += '}';
        }
    }
    out += "\n]}\n";
    return out;
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::string json = toChromeJson();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    ok = std::fclose(f) == 0 && ok;
    return ok;
}

void
Tracer::clear()
{
    for (ThreadBuffer *buf = buffers_.load(std::memory_order_acquire);
         buf != nullptr; buf = buf->next) {
        std::lock_guard<std::mutex> guard(buf->mutex);
        buf->head = 0;
        buf->size = 0;
        buf->dropped = 0;
    }
}

} // namespace specpmt::obs
