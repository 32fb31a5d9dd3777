/**
 * @file
 * Metrics registry implementation: shard assignment, snapshot fold,
 * Prometheus/JSON serialization and the text-exposition parser used
 * by specstat and the golden tests.
 */

#include "obs/metrics.hh"

#include <cctype>
#include <charconv>
#include <cstdio>

#include "common/logging.hh"

namespace specpmt::obs
{

unsigned
detail::nextThreadShard()
{
    static std::atomic<unsigned> next{0};
    return next.fetch_add(1, std::memory_order_relaxed);
}

void
Histogram::record(std::uint64_t value, std::uint64_t exemplarId)
{
    auto &stripe = stripes_[threadShard() & (kHistogramStripes - 1)];
    std::lock_guard<std::mutex> guard(stripe.mutex);
    stripe.hist.record(value);
    if (exemplarId != 0)
        stripe.exemplars[LatencyHistogram::bucketIndex(value)] = {
            exemplarId, value};
}

std::map<unsigned, std::array<std::uint64_t, 2>>
Histogram::exemplars() const
{
    std::map<unsigned, std::array<std::uint64_t, 2>> merged;
    for (const auto &stripe : stripes_) {
        std::lock_guard<std::mutex> guard(stripe.mutex);
        for (const auto &[bucket, ex] : stripe.exemplars)
            merged[bucket] = ex;
    }
    return merged;
}

void
Histogram::mergeFrom(const LatencyHistogram &other)
{
    auto &stripe = stripes_[threadShard() & (kHistogramStripes - 1)];
    std::lock_guard<std::mutex> guard(stripe.mutex);
    stripe.hist.merge(other);
}

LatencyHistogram
Histogram::snapshot() const
{
    LatencyHistogram merged;
    for (const auto &stripe : stripes_) {
        std::lock_guard<std::mutex> guard(stripe.mutex);
        merged.merge(stripe.hist);
    }
    return merged;
}

std::string
expositionName(std::string_view name, const Labels &labels)
{
    std::string out(name);
    if (labels.empty())
        return out;
    out += '{';
    bool first = true;
    for (const auto &[key, value] : labels) {
        if (!first)
            out += ',';
        first = false;
        out += key;
        out += "=\"";
        for (char c : value) {
            // Prometheus label values escape backslash, quote, newline.
            if (c == '\\' || c == '"')
                out += '\\';
            if (c == '\n') {
                out += "\\n";
                continue;
            }
            out += c;
        }
        out += '"';
    }
    out += '}';
    return out;
}

std::string
sanitizeMetricName(std::string_view name)
{
    auto legal = [](char c, bool leading) {
        if (c == '_' || c == ':')
            return true;
        if (std::isalpha(static_cast<unsigned char>(c)))
            return true;
        return !leading && std::isdigit(static_cast<unsigned char>(c));
    };
    std::string out;
    out.reserve(name.size() + 1);
    if (name.empty() || !legal(name[0], true))
        out += '_';
    for (char c : name)
        out += legal(c, false) ? c : '_';
    return out;
}

namespace
{

/** `name{a="b"}` -> `name`; plain names pass through. */
std::string
baseOf(const std::string &exposition)
{
    auto brace = exposition.find('{');
    return brace == std::string::npos ? exposition
                                      : exposition.substr(0, brace);
}

/**
 * Rewrite `name{a="b"}` to `name{a="b",extra}` (or `name{extra}`),
 * used to splice `le="..."` into histogram bucket series.
 */
std::string
withExtraLabel(const std::string &exposition, const std::string &extra)
{
    auto brace = exposition.find('{');
    if (brace == std::string::npos)
        return exposition + '{' + extra + '}';
    std::string out = exposition;
    out.insert(out.size() - 1, "," + extra);
    return out;
}

void
appendHelpType(std::string &out, const Snapshot &snap,
               const std::string &base, const char *type,
               std::string &lastBase)
{
    if (base == lastBase)
        return;
    lastBase = base;
    auto it = snap.help.find(base);
    if (it != snap.help.end() && !it->second.empty())
        out += "# HELP " + base + ' ' + it->second + '\n';
    out += "# TYPE " + base + ' ' + type + '\n';
}

/**
 * Shortest %g form that still distinguishes the ratios we publish
 * (write amp, flushes/tx); parses back via from_chars<double>.
 */
std::string
formatDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

void
appendJsonString(std::string &out, std::string_view s)
{
    out += '"';
    appendJsonEscaped(out, s);
    out += '"';
}

} // namespace

void
appendJsonEscaped(std::string &out, std::string_view text)
{
    for (char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

std::string
Snapshot::toPrometheus() const
{
    std::string out;
    std::string lastBase;
    for (const auto &[name, value] : counters) {
        appendHelpType(out, *this, baseOf(name), "counter", lastBase);
        out += name + ' ' + std::to_string(value) + '\n';
    }
    lastBase.clear();
    {
        // Integer and float gauges interleave in name order so the
        // output stays sorted (and byte-identical to the pre-float
        // format when no FloatGauge is registered).
        auto g = gauges.begin();
        auto f = floatGauges.begin();
        while (g != gauges.end() || f != floatGauges.end()) {
            bool takeInt = f == floatGauges.end() ||
                           (g != gauges.end() && g->first < f->first);
            const std::string &name = takeInt ? g->first : f->first;
            appendHelpType(out, *this, baseOf(name), "gauge", lastBase);
            out += name + ' ' +
                   (takeInt ? std::to_string(g->second)
                            : formatDouble(f->second)) +
                   '\n';
            if (takeInt)
                ++g;
            else
                ++f;
        }
    }
    lastBase.clear();
    for (const auto &[name, h] : histograms) {
        appendHelpType(out, *this, baseOf(name), "histogram", lastBase);
        // Cumulative buckets over the non-empty LatencyHistogram
        // buckets; the final +Inf bucket always equals count. A
        // bucket holding an exemplar gets the OpenMetrics suffix
        // ` # {trace_id="..."} value` on its own sample line.
        std::uint64_t cumulative = 0;
        std::string base = baseOf(name);
        for (const auto &bucket : h.buckets) {
            cumulative += bucket[2];
            out += withExtraLabel(base + "_bucket" + name.substr(base.size()),
                                  "le=\"" + std::to_string(bucket[1]) + "\"") +
                   ' ' + std::to_string(cumulative);
            for (const auto &ex : h.exemplars) {
                if (ex[0] != bucket[1])
                    continue;
                out += " # {trace_id=\"" + std::to_string(ex[1]) +
                       "\"} " + std::to_string(ex[2]);
                break;
            }
            out += '\n';
        }
        out += withExtraLabel(base + "_bucket" + name.substr(base.size()),
                              "le=\"+Inf\"") +
               ' ' + std::to_string(h.count) + '\n';
        out += base + "_sum" + name.substr(base.size()) + ' ' +
               std::to_string(h.sum) + '\n';
        out += base + "_count" + name.substr(base.size()) + ' ' +
               std::to_string(h.count) + '\n';
    }
    return out;
}

std::string
Snapshot::toJson() const
{
    std::string out = "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, value] : counters) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        appendJsonString(out, name);
        out += ": " + std::to_string(value);
    }
    out += first ? "},\n" : "\n  },\n";
    out += "  \"gauges\": {";
    first = true;
    {
        auto g = gauges.begin();
        auto f = floatGauges.begin();
        while (g != gauges.end() || f != floatGauges.end()) {
            bool takeInt = f == floatGauges.end() ||
                           (g != gauges.end() && g->first < f->first);
            out += first ? "\n    " : ",\n    ";
            first = false;
            appendJsonString(out, takeInt ? g->first : f->first);
            out += ": ";
            out += takeInt ? std::to_string(g->second)
                           : formatDouble(f->second);
            if (takeInt)
                ++g;
            else
                ++f;
        }
    }
    out += first ? "},\n" : "\n  },\n";
    out += "  \"histograms\": {";
    first = true;
    for (const auto &[name, h] : histograms) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        appendJsonString(out, name);
        out += ": {\"count\": " + std::to_string(h.count) +
               ", \"sum\": " + std::to_string(h.sum) +
               ", \"max\": " + std::to_string(h.max) + ", \"buckets\": [";
        bool firstBucket = true;
        for (const auto &bucket : h.buckets) {
            if (!firstBucket)
                out += ", ";
            firstBucket = false;
            out += "[" + std::to_string(bucket[0]) + ", " +
                   std::to_string(bucket[1]) + ", " +
                   std::to_string(bucket[2]) + "]";
        }
        out += "]";
        // Exemplars only when present, so exemplar-free snapshots
        // keep the historical (golden-tested) shape.
        if (!h.exemplars.empty()) {
            out += ", \"exemplars\": [";
            bool firstEx = true;
            for (const auto &ex : h.exemplars) {
                if (!firstEx)
                    out += ", ";
                firstEx = false;
                out += "[" + std::to_string(ex[0]) + ", " +
                       std::to_string(ex[1]) + ", " +
                       std::to_string(ex[2]) + "]";
            }
            out += "]";
        }
        out += "}";
    }
    out += first ? "}\n" : "\n  }\n";
    out += "}\n";
    return out;
}

bool
parsePrometheus(std::string_view text, FlatSamples &out,
                std::string &error)
{
    std::size_t lineNo = 0;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        auto end = text.find('\n', pos);
        if (end == std::string_view::npos)
            end = text.size();
        std::string_view line = text.substr(pos, end - pos);
        pos = end + 1;
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        // OpenMetrics exemplars ride bucket lines as a ` # {...} v`
        // suffix; drop it before the name/value split. Label values
        // in this codebase never contain " # ", so the first match
        // is always the exemplar marker.
        auto exemplar = line.find(" # ");
        if (exemplar != std::string_view::npos)
            line = line.substr(0, exemplar);
        // A sample line is `name[{labels}] value`; split on the last
        // space so quoted label values containing spaces survive.
        auto space = line.rfind(' ');
        if (space == std::string_view::npos || space == 0 ||
            space + 1 == line.size()) {
            error = "line " + std::to_string(lineNo) +
                    ": expected `name value`";
            return false;
        }
        std::string_view name = line.substr(0, space);
        std::string_view value = line.substr(space + 1);
        // Validate the metric name: [a-zA-Z_:][a-zA-Z0-9_:]* with an
        // optional balanced {..} label block.
        auto brace = name.find('{');
        std::string_view ident =
            brace == std::string_view::npos ? name : name.substr(0, brace);
        if (ident.empty() ||
            (!std::isalpha(static_cast<unsigned char>(ident[0])) &&
             ident[0] != '_' && ident[0] != ':')) {
            error = "line " + std::to_string(lineNo) +
                    ": bad metric name";
            return false;
        }
        for (char c : ident) {
            if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
                c != ':') {
                error = "line " + std::to_string(lineNo) +
                        ": bad metric name";
                return false;
            }
        }
        if (brace != std::string_view::npos && name.back() != '}') {
            error = "line " + std::to_string(lineNo) +
                    ": unterminated label block";
            return false;
        }
        double parsed = 0;
        auto [ptr, ec] = std::from_chars(value.data(),
                                         value.data() + value.size(),
                                         parsed);
        if (ec != std::errc{} || ptr != value.data() + value.size()) {
            error = "line " + std::to_string(lineNo) + ": bad value `" +
                    std::string(value) + '`';
            return false;
        }
        out[std::string(name)] = parsed;
    }
    return true;
}

Registry &
Registry::global()
{
    // Intentionally leaked: device/timing destructors publish their
    // final deltas here, and those may run during static teardown
    // after a function-local static registry would be gone.
    static Registry *instance = new Registry;
    return *instance;
}

Registry::Entry &
Registry::entry(Kind kind, std::string_view rawName, std::string_view help,
                const Labels &labels)
{
    std::string name = sanitizeMetricName(rawName);
    std::string key = expositionName(name, labels);
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
        Entry fresh;
        fresh.kind = kind;
        fresh.baseName = std::string(name);
        switch (kind) {
        case Kind::Counter:
            fresh.counter = std::make_unique<Counter>();
            break;
        case Kind::Gauge:
            fresh.gauge = std::make_unique<Gauge>();
            break;
        case Kind::FloatGauge:
            fresh.floatGauge = std::make_unique<class FloatGauge>();
            break;
        case Kind::Histogram:
            fresh.histogram = std::make_unique<Histogram>();
            break;
        }
        it = entries_.emplace(std::move(key), std::move(fresh)).first;
        if (!help.empty())
            help_.emplace(std::string(name), std::string(help));
    }
    if (it->second.kind != kind)
        SPECPMT_PANIC("metric `%s` re-registered as a different kind",
                      it->first.c_str());
    return it->second;
}

Counter &
Registry::counter(std::string_view name, std::string_view help,
                  const Labels &labels)
{
    return *entry(Kind::Counter, name, help, labels).counter;
}

Gauge &
Registry::gauge(std::string_view name, std::string_view help,
                const Labels &labels)
{
    return *entry(Kind::Gauge, name, help, labels).gauge;
}

FloatGauge &
Registry::floatGauge(std::string_view name, std::string_view help,
                     const Labels &labels)
{
    return *entry(Kind::FloatGauge, name, help, labels).floatGauge;
}

Histogram &
Registry::histogram(std::string_view name, std::string_view help,
                    const Labels &labels)
{
    return *entry(Kind::Histogram, name, help, labels).histogram;
}

Snapshot
Registry::snapshot() const
{
    Snapshot snap;
    std::lock_guard<std::mutex> guard(mutex_);
    snap.help = help_;
    for (const auto &[name, e] : entries_) {
        switch (e.kind) {
        case Kind::Counter:
            snap.counters.emplace(name, e.counter->value());
            break;
        case Kind::Gauge:
            snap.gauges.emplace(name, e.gauge->value());
            break;
        case Kind::FloatGauge:
            snap.floatGauges.emplace(name, e.floatGauge->value());
            break;
        case Kind::Histogram: {
            LatencyHistogram merged = e.histogram->snapshot();
            HistogramSample sample;
            sample.count = merged.count();
            sample.sum = merged.sum();
            sample.max = merged.max();
            const auto &buckets = merged.buckets();
            for (unsigned i = 0; i < LatencyHistogram::kBuckets; ++i) {
                if (buckets[i] == 0)
                    continue;
                sample.buckets.push_back(
                    {LatencyHistogram::bucketLowerBound(i),
                     LatencyHistogram::bucketUpperBound(i), buckets[i]});
            }
            for (const auto &[bucket, ex] : e.histogram->exemplars())
                sample.exemplars.push_back(
                    {LatencyHistogram::bucketUpperBound(bucket), ex[0],
                     ex[1]});
            snap.histograms.emplace(name, std::move(sample));
            break;
        }
        }
    }
    return snap;
}

namespace
{

bool
writeFile(const std::string &path, const std::string &content)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    bool ok = std::fwrite(content.data(), 1, content.size(), f) ==
              content.size();
    ok = std::fclose(f) == 0 && ok;
    return ok;
}

} // namespace

bool
Registry::writePrometheus(const std::string &path) const
{
    return writeFile(path, snapshot().toPrometheus());
}

bool
Registry::writeJson(const std::string &path) const
{
    return writeFile(path, snapshot().toJson());
}

} // namespace specpmt::obs
