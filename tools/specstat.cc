/**
 * @file
 * specstat — inspect, diff and validate the observability artifacts
 * emitted by the benches and tools (--metrics-out= Prometheus text,
 * --trace-out= Chrome trace-event JSON).
 *
 * Subcommands:
 *   dump FILE        parse a Prometheus exposition and pretty-print
 *                    every sample, sorted by name;
 *   diff OLD NEW     compare two expositions: changed samples with
 *                    deltas, plus added/removed series;
 *   check FILE...    validate artifacts: .json files must be
 *                    syntactically valid JSON (trace files must also
 *                    carry a traceEvents array), everything else must
 *                    parse as Prometheus text. Repeatable
 *                    --require=<metric><op><value> flags (ops ==, !=,
 *                    >=, <=, >, <) assert against the merged samples
 *                    of every Prometheus file; a missing metric fails
 *                    the assertion.
 *   top              poll a live speckv admin endpoint (--admin-port=)
 *                    and render QPS, per-stage latency percentiles,
 *                    fences/tx, epoch state, per-shard balance and the
 *                    slowest histogram exemplar per stage as deltas
 *                    between /metrics scrapes; a cumulative counter
 *                    that decreases between scrapes means the server
 *                    restarted, so the frame re-baselines instead of
 *                    printing negative rates; --once emits a single
 *                    frame for CI capture.
 *   trace FILE...    merge Chrome trace-event captures (client
 *                    --trace-out= files and server /trace?ms=N
 *                    scrapes), group spans by correlation id and
 *                    print per-request waterfalls for the slowest
 *                    traced requests (--slowest=N, --id=ID), with
 *                    the PM cost vector the server attached to each
 *                    srv_exec span.
 *
 * Every FILE argument also accepts `-` (read stdin once) and
 * `http://HOST:PORT/PATH` (scrape a live admin endpoint; a non-200
 * response fails the command, so `specstat check http://..../healthz`
 * gates on shard liveness). JSON inputs are sniffed by content, so
 * `curl :PORT/stats.json | specstat dump -` works: a metrics snapshot
 * flattens counters/gauges verbatim and histograms to NAME_count,
 * NAME_sum and NAME_max samples.
 *
 * Exit status: 0 = success, 1 = check found an invalid artifact or a
 * failed --require assertion; 2 = usage error or unreadable/malformed
 * input.
 */

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/http_client.hh"
#include "obs/metrics.hh"

namespace
{

using specpmt::obs::FlatSamples;

bool
readFile(const std::string &path, std::string &out)
{
    if (path == "-") {
        std::ostringstream buffer;
        buffer << std::cin.rdbuf();
        out = buffer.str();
        return true;
    }
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    out = buffer.str();
    return true;
}

bool
isHttpUrl(std::string_view path)
{
    return path.rfind("http://", 0) == 0;
}

/**
 * Load one artifact: `-` is stdin, `http://` scrapes a live endpoint
 * (non-200 fails, which is how `check .../healthz` gates liveness),
 * anything else is a file.
 */
bool
fetchArtifact(const std::string &path, std::string &text,
              std::string &error)
{
    if (isHttpUrl(path)) {
        std::string host, url_path;
        std::uint16_t port = 0;
        if (!specpmt::obs::parseHttpUrl(path, host, port, url_path)) {
            error = "malformed http:// URL";
            return false;
        }
        specpmt::obs::HttpResponse response;
        if (!specpmt::obs::httpGet(host, port, url_path, response,
                                   error))
            return false;
        text = std::move(response.body);
        if (response.status != 200) {
            error = "HTTP " + std::to_string(response.status);
            return false;
        }
        return true;
    }
    if (!readFile(path, text)) {
        error = "cannot read";
        return false;
    }
    return true;
}

/** First non-whitespace byte opens a JSON value. */
bool
looksLikeJson(std::string_view text)
{
    for (const char c : text) {
        if (std::isspace(static_cast<unsigned char>(c)))
            continue;
        return c == '{' || c == '[';
    }
    return false;
}

/** Integral values print without a fractional part. */
std::string
formatValue(double value)
{
    char buf[64];
    if (value == static_cast<double>(static_cast<long long>(value))) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(value));
    } else {
        std::snprintf(buf, sizeof(buf), "%.6g", value);
    }
    return buf;
}

bool
endsWith(std::string_view s, std::string_view suffix)
{
    return s.size() >= suffix.size() &&
           s.substr(s.size() - suffix.size()) == suffix;
}

/**
 * A JSON document flattened to dotted leaf paths
 * ("traceEvents.0.dur" -> 12.5); array elements index numerically.
 * Strings and numbers are kept, booleans map to 0/1, nulls are
 * dropped.
 */
struct FlatJson
{
    std::map<std::string, double> numbers;
    std::map<std::string, std::string> strings;
};

/**
 * Recursive-descent JSON parser and flattener — the one JSON reader
 * behind check, trace and the metrics-JSON inputs. With a null sink
 * it only validates, storing no leaves.
 */
class JsonFlattener
{
  public:
    explicit JsonFlattener(std::string_view text) : text_(text) {}

    bool
    parse(FlatJson *out, std::string &error)
    {
        out_ = out;
        error_ = &error;
        if (!value())
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing garbage after JSON value");
        return true;
    }

  private:
    bool
    fail(const char *message)
    {
        *error_ = std::string(message) + " at byte " +
                  std::to_string(pos_);
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    stringBody(std::string &out)
    {
        ++pos_; // opening quote
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\' && pos_ + 1 < text_.size()) {
                out.push_back(text_[pos_ + 1]);
                pos_ += 2;
                continue;
            }
            out.push_back(c);
            ++pos_;
        }
        return fail("unterminated string");
    }

    bool
    value()
    {
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        switch (text_[pos_]) {
          case '{':
            return object();
          case '[':
            return array();
          case '"': {
            std::string s;
            if (!stringBody(s))
                return false;
            if (out_ != nullptr)
                out_->strings[path_] = std::move(s);
            return true;
          }
          case 't':
            storeNumber(1);
            return literal("true");
          case 'f':
            storeNumber(0);
            return literal("false");
          case 'n':
            return literal("null");
          default: {
            // strtod alone would also take "inf", "nan" and hex.
            const char c = text_[pos_];
            char *end = nullptr;
            const double v =
                std::strtod(text_.data() + pos_, &end);
            if ((c != '-' &&
                 !std::isdigit(static_cast<unsigned char>(c))) ||
                end == text_.data() + pos_)
                return fail("bad number");
            storeNumber(v);
            pos_ = static_cast<std::size_t>(end - text_.data());
            return true;
          }
        }
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return fail("bad literal");
        pos_ += word.size();
        return true;
    }

    void
    storeNumber(double value)
    {
        if (out_ != nullptr)
            out_->numbers[path_] = value;
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        const std::string parent = path_;
        for (;;) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key");
            std::string key;
            if (!stringBody(key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':'");
            ++pos_;
            path_ = parent.empty() ? key : parent + "." + key;
            if (!value())
                return false;
            path_ = parent;
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        const std::string parent = path_;
        for (std::size_t i = 0;; ++i) {
            path_ = (parent.empty() ? "" : parent + ".") +
                    std::to_string(i);
            if (!value())
                return false;
            path_ = parent;
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    std::string path_;
    FlatJson *out_ = nullptr;
    std::string *error_ = nullptr;
};

/** Insert a metric suffix before the label set, if any:
 * `name{l} + _count` -> `name_count{l}`. */
std::string
withMetricSuffix(const std::string &name, const char *suffix)
{
    const std::size_t brace = name.find('{');
    if (brace == std::string::npos)
        return name + suffix;
    return name.substr(0, brace) + suffix + name.substr(brace);
}

/**
 * Flatten a Registry::toJson() metrics snapshot into Prometheus-style
 * flat samples.
 */
bool
flattenMetricsJson(std::string_view text, FlatSamples &out,
                   std::string &error)
{
    FlatJson json;
    if (!JsonFlattener(text).parse(&json, error))
        return false;
    for (const auto &[path, value] : json.numbers) {
        if (path.rfind("counters.", 0) == 0) {
            out[path.substr(9)] = value;
        } else if (path.rfind("gauges.", 0) == 0) {
            out[path.substr(7)] = value;
        } else if (path.rfind("histograms.", 0) == 0) {
            // histograms.NAME.{count,sum,max} -> NAME_{count,sum,max};
            // the raw bucket triples are dropped (the Prometheus
            // exposition is the bucket-level format).
            const std::string rest = path.substr(11);
            static const std::pair<const char *, const char *>
                kSuffixes[] = {
                    {".count", "_count"},
                    {".sum", "_sum"},
                    {".max", "_max"},
                };
            for (const auto &[json_suffix, metric_suffix] : kSuffixes) {
                if (!endsWith(rest, json_suffix))
                    continue;
                const std::string name = rest.substr(
                    0, rest.size() -
                           std::string_view(json_suffix).size());
                out[withMetricSuffix(name, metric_suffix)] = value;
                break;
            }
        }
    }
    return true;
}

/**
 * Load samples from a Prometheus exposition or a metrics-JSON
 * snapshot (file, stdin or URL) or exit with status 2.
 */
FlatSamples
loadSamples(const std::string &path)
{
    std::string text;
    std::string error;
    if (!fetchArtifact(path, text, error)) {
        std::fprintf(stderr, "specstat: %s: %s\n", path.c_str(),
                     error.c_str());
        std::exit(2);
    }
    FlatSamples samples;
    if (looksLikeJson(text)) {
        if (text.find("\"counters\"") == std::string::npos) {
            std::fprintf(stderr,
                         "specstat: %s: JSON input is not a metrics "
                         "snapshot (no counters section)\n",
                         path.c_str());
            std::exit(2);
        }
        if (!flattenMetricsJson(text, samples, error)) {
            std::fprintf(stderr, "specstat: %s: %s\n", path.c_str(),
                         error.c_str());
            std::exit(2);
        }
        return samples;
    }
    if (!specpmt::obs::parsePrometheus(text, samples, error)) {
        std::fprintf(stderr, "specstat: %s: %s\n", path.c_str(),
                     error.c_str());
        std::exit(2);
    }
    return samples;
}

int
cmdDump(const std::string &path)
{
    const FlatSamples samples = loadSamples(path);
    for (const auto &[name, value] : samples) {
        std::printf("%-64s %s\n", name.c_str(),
                    formatValue(value).c_str());
    }
    std::printf("# %zu samples\n", samples.size());
    return 0;
}

int
cmdDiff(const std::string &old_path, const std::string &new_path)
{
    const FlatSamples before = loadSamples(old_path);
    const FlatSamples after = loadSamples(new_path);

    std::size_t changed = 0;
    for (const auto &[name, new_value] : after) {
        const auto it = before.find(name);
        if (it == before.end()) {
            std::printf("+ %-62s %s\n", name.c_str(),
                        formatValue(new_value).c_str());
            ++changed;
        } else if (it->second != new_value) {
            std::printf("  %-62s %s -> %s (%+g)\n", name.c_str(),
                        formatValue(it->second).c_str(),
                        formatValue(new_value).c_str(),
                        new_value - it->second);
            ++changed;
        }
    }
    for (const auto &[name, old_value] : before) {
        if (after.find(name) == after.end()) {
            std::printf("- %-62s %s\n", name.c_str(),
                        formatValue(old_value).c_str());
            ++changed;
        }
    }
    std::printf("# %zu samples differ (%zu -> %zu series)\n", changed,
                before.size(), after.size());
    return 0;
}

/**
 * Validate one artifact and merge any samples it carries into
 * @p merged for the --require assertions (later inputs overwrite
 * same-named series).
 */
bool
checkOne(const std::string &path, FlatSamples &merged)
{
    std::string text;
    std::string error;
    if (!fetchArtifact(path, text, error)) {
        std::fprintf(stderr, "specstat: %s: %s\n", path.c_str(),
                     error.c_str());
        return false;
    }
    if (endsWith(path, ".json") || looksLikeJson(text)) {
        // A metrics JSON dump (the counters section) flattens into
        // samples; any other JSON artifact is only validated.
        const bool metrics =
            text.find("\"counters\"") != std::string::npos;
        FlatSamples samples;
        if (!(metrics ? flattenMetricsJson(text, samples, error)
                      : JsonFlattener(text).parse(nullptr, error))) {
            std::fprintf(stderr, "specstat: %s: %s\n", path.c_str(),
                         error.c_str());
            return false;
        }
        // A trace artifact must carry its event array, a /healthz
        // body its own marker.
        if (!metrics &&
            text.find("\"traceEvents\"") == std::string::npos &&
            text.find("\"healthz\"") == std::string::npos) {
            std::fprintf(stderr,
                         "specstat: %s: neither a trace (traceEvents) "
                         "nor a metrics (counters) nor a health "
                         "(healthz) JSON artifact\n",
                         path.c_str());
            return false;
        }
        for (const auto &[name, value] : samples)
            merged[name] = value;
        std::printf("OK %s (json, %zu bytes)\n", path.c_str(),
                    text.size());
        return true;
    }
    FlatSamples samples;
    if (!specpmt::obs::parsePrometheus(text, samples, error)) {
        std::fprintf(stderr, "specstat: %s: %s\n", path.c_str(),
                     error.c_str());
        return false;
    }
    for (const auto &[name, value] : samples)
        merged[name] = value;
    std::printf("OK %s (%zu samples)\n", path.c_str(),
                samples.size());
    return true;
}

/**
 * ======================== specstat top ========================
 *
 * A polling terminal view against a live speckv admin endpoint. Every
 * frame is the delta between two /metrics scrapes: cumulative
 * histogram buckets subtract into an exact windowed histogram (the
 * buckets are cumulative-by-le, so the difference of two scrapes is
 * the cumulative histogram of just that window), from which p50/p99/
 * p999 are read off; counters subtract into rates.
 */

/** One cumulative bucket point: le upper bound and count <= le. */
struct BucketPoint
{
    double le = 0;
    double cumulative = 0;
};

/** Histogram base name -> ascending cumulative bucket points. */
using BucketMap = std::map<std::string, std::vector<BucketPoint>>;

BucketMap
collectBuckets(const FlatSamples &samples)
{
    BucketMap out;
    for (const auto &[name, value] : samples) {
        const std::size_t pos = name.find("_bucket{");
        if (pos == std::string::npos)
            continue;
        const std::size_t le = name.find("le=\"", pos);
        if (le == std::string::npos)
            continue;
        double upper;
        if (name.compare(le + 4, 4, "+Inf") == 0)
            upper = std::numeric_limits<double>::infinity();
        else
            upper = std::strtod(name.c_str() + le + 4, nullptr);
        out[name.substr(0, pos)].push_back({upper, value});
    }
    for (auto &[name, points] : out) {
        (void)name;
        std::sort(points.begin(), points.end(),
                  [](const BucketPoint &a, const BucketPoint &b) {
                      return a.le < b.le;
                  });
    }
    return out;
}

/**
 * Histogram base name -> (value, trace id) of its highest-valued
 * OpenMetrics exemplar in one scrape. parsePrometheus strips the
 * `# {trace_id="N"} V` suffixes to keep FlatSamples numeric, so the
 * exemplars are re-scanned from the raw exposition text here.
 */
using ExemplarMap =
    std::map<std::string, std::pair<double, std::uint64_t>>;

ExemplarMap
collectExemplars(const std::string &body)
{
    ExemplarMap out;
    std::size_t line_start = 0;
    while (line_start < body.size()) {
        std::size_t line_end = body.find('\n', line_start);
        if (line_end == std::string::npos)
            line_end = body.size();
        const std::string_view line(body.data() + line_start,
                                    line_end - line_start);
        line_start = line_end + 1;
        if (line.empty() || line[0] == '#')
            continue;
        static constexpr std::string_view kMarker =
            " # {trace_id=\"";
        const std::size_t marker = line.find(kMarker);
        if (marker == std::string_view::npos)
            continue;
        const std::size_t id_pos = marker + kMarker.size();
        const std::uint64_t id =
            std::strtoull(line.data() + id_pos, nullptr, 10);
        const std::size_t close = line.find("\"} ", id_pos);
        if (close == std::string_view::npos || id == 0)
            continue;
        const double value =
            std::strtod(line.data() + close + 3, nullptr);
        std::size_t name_end = line.find("_bucket{");
        if (name_end == std::string_view::npos)
            name_end = line.find_first_of(" {");
        if (name_end == std::string_view::npos)
            continue;
        const std::string base(line.substr(0, name_end));
        const auto it = out.find(base);
        if (it == out.end() || value > it->second.first)
            out[base] = {value, id};
    }
    return out;
}

/** One /metrics scrape plus its parsed bucket series and timestamp. */
struct Scrape
{
    FlatSamples samples;
    BucketMap buckets;
    ExemplarMap exemplars;
    std::chrono::steady_clock::time_point when;
};

double
sampleOr(const FlatSamples &samples, const std::string &name,
         double fallback = 0)
{
    const auto it = samples.find(name);
    return it == samples.end() ? fallback : it->second;
}

double
sampleDelta(const Scrape &prev, const Scrape &cur,
            const std::string &name)
{
    return sampleOr(cur.samples, name) - sampleOr(prev.samples, name);
}

/**
 * Quantile of the windowed histogram between two cumulative bucket
 * series: the smallest le whose windowed cumulative count reaches
 * q * total. Returns NaN when the window saw no samples; +Inf when
 * the quantile falls in the overflow bucket.
 */
double
windowQuantile(const Scrape &prev, const Scrape &cur,
               const std::string &base, double q, double &total_out)
{
    total_out = 0;
    const auto cur_it = cur.buckets.find(base);
    if (cur_it == cur.buckets.end() || cur_it->second.empty())
        return std::numeric_limits<double>::quiet_NaN();
    const auto prev_it = prev.buckets.find(base);
    const auto prevCumulative = [&](double le) -> double {
        if (prev_it == prev.buckets.end())
            return 0;
        for (const auto &point : prev_it->second) {
            if (point.le == le)
                return point.cumulative;
        }
        return 0;
    };
    const auto &points = cur_it->second;
    const double total =
        points.back().cumulative - prevCumulative(points.back().le);
    total_out = total;
    if (total <= 0)
        return std::numeric_limits<double>::quiet_NaN();
    const double target = q * total;
    for (const auto &point : points) {
        const double windowed =
            point.cumulative - prevCumulative(point.le);
        if (windowed >= target)
            return point.le;
    }
    return points.back().le;
}

/** Nanoseconds -> a human column ("3.2us", "1.8ms", "-" for NaN). */
std::string
formatNs(double ns)
{
    char buf[32];
    if (std::isnan(ns))
        return "-";
    if (std::isinf(ns))
        return ">max";
    if (ns < 1000.0)
        std::snprintf(buf, sizeof(buf), "%.0fns", ns);
    else if (ns < 1e6)
        std::snprintf(buf, sizeof(buf), "%.1fus", ns / 1e3);
    else if (ns < 1e9)
        std::snprintf(buf, sizeof(buf), "%.2fms", ns / 1e6);
    else
        std::snprintf(buf, sizeof(buf), "%.2fs", ns / 1e9);
    return buf;
}

void
renderTopFrame(const Scrape &prev, const Scrape &cur,
               const std::string &where, std::size_t frame)
{
    const double dt =
        std::chrono::duration<double>(cur.when - prev.when).count();
    const double safe_dt = dt > 0 ? dt : 1;

    const double qps =
        sampleDelta(prev, cur, "specpmt_net_frames_rx_total") /
        safe_dt;
    double commits =
        sampleDelta(prev, cur, "specpmt_spec_tx_commits_total");
    if (commits <= 0)
        commits = sampleDelta(prev, cur, "specpmt_txn_commits_total");
    if (commits <= 0)
        commits =
            sampleDelta(prev, cur, "specpmt_net_batch_commits_total");
    double fences;
    if (cur.samples.count("specpmt_pmem_fences_total") != 0) {
        fences = sampleDelta(prev, cur, "specpmt_pmem_fences_total");
    } else {
        // The live server persists through the real pmem path, which
        // carries no fence counter; estimate from the SpecPMT fence
        // discipline — one fence per strict commit, one per epoch
        // seal (relaxed commits amortize into their epoch's seal).
        const double relaxed = sampleDelta(
            prev, cur, "specpmt_epoch_relaxed_commits_total");
        fences = sampleDelta(prev, cur, "specpmt_epoch_seals_total") +
                 std::max(0.0, commits - relaxed);
    }
    const double slow_total =
        sampleOr(cur.samples, "specpmt_net_slow_requests_total");
    const double slow_delta =
        sampleDelta(prev, cur, "specpmt_net_slow_requests_total");

    std::printf("specstat top — %s  window %.1fs  frame %zu\n",
                where.c_str(), dt, frame);
    std::printf("qps %.1f   fences/tx %s   slow %.0f (%+.0f)\n", qps,
                commits > 0 ? formatValue(fences / commits).c_str()
                            : "-",
                slow_total, slow_delta);

    std::printf("%-10s %10s %10s %10s %10s  %s\n", "stage", "p50",
                "p99", "p999", "count/s", "exemplar");
    static const std::pair<const char *, const char *> kStages[] = {
        {"queue", "specpmt_net_stage_queue"},
        {"exec", "specpmt_net_stage_exec"},
        {"seal_wait", "specpmt_net_stage_seal_wait"},
        {"write", "specpmt_net_stage_write"},
    };
    for (const auto &[label, base] : kStages) {
        double total = 0;
        const double p50 = windowQuantile(prev, cur, base, 0.50, total);
        const double p99 = windowQuantile(prev, cur, base, 0.99, total);
        const double p999 =
            windowQuantile(prev, cur, base, 0.999, total);
        // Slowest exemplar of the stage histogram: a concrete trace
        // id behind the tail, ready for `specstat trace --id=`.
        std::string exemplar = "-";
        const auto ex = cur.exemplars.find(base);
        if (ex != cur.exemplars.end())
            exemplar = formatNs(ex->second.first) + " id=" +
                       std::to_string(ex->second.second);
        std::printf("%-10s %10s %10s %10s %10.0f  %s\n", label,
                    formatNs(p50).c_str(), formatNs(p99).c_str(),
                    formatNs(p999).c_str(), total / safe_dt,
                    exemplar.c_str());
    }

    const double pending =
        sampleOr(cur.samples, "specpmt_epoch_pending_txs");
    const double seals =
        sampleDelta(prev, cur, "specpmt_net_epoch_seals_total");
    double max_seal_lag = 0;
    for (const auto &[name, value] : cur.samples) {
        if (name.rfind("specpmt_epoch_seal_lag{", 0) == 0)
            max_seal_lag = std::max(max_seal_lag, value);
    }
    std::printf("epoch: pending %.0f   seals/s %.1f   seal_lag max "
                "%.0f\n",
                pending, seals / safe_dt, max_seal_lag);

    std::printf("shard ops/s:");
    bool any_shard = false;
    for (const auto &[name, value] : cur.samples) {
        static const std::string kPrefix =
            "specpmt_net_shard_ops_total{shard=\"";
        if (name.rfind(kPrefix, 0) != 0)
            continue;
        const std::string shard = name.substr(
            kPrefix.size(), name.size() - kPrefix.size() - 2);
        const double rate =
            (value - sampleOr(prev.samples, name)) / safe_dt;
        std::printf("  [%s] %.0f", shard.c_str(), rate);
        any_shard = true;
    }
    std::printf(any_shard ? "\n" : "  (none)\n");
}

/**
 * Cumulative series (counters, histogram counts) never decrease in a
 * live process; a lower reading means the scraped endpoint restarted
 * (or now belongs to a different process) and every delta this frame
 * would come out negative. The frame re-baselines instead.
 */
bool
countersReset(const Scrape &prev, const Scrape &cur)
{
    for (const auto &[name, value] : prev.samples) {
        if (!endsWith(name, "_total") && !endsWith(name, "_count") &&
            name.find("_bucket{") == std::string::npos)
            continue;
        const auto it = cur.samples.find(name);
        if (it != cur.samples.end() && it->second < value)
            return true;
    }
    return false;
}

int
cmdTop(const std::vector<std::string> &args)
{
    std::string host = "127.0.0.1";
    std::string url;
    int port = -1;
    double interval = 1.0;
    long count = -1;
    bool once = false;

    for (const auto &arg : args) {
        const auto val = [&](const char *prefix) -> const char * {
            const std::size_t n = std::string_view(prefix).size();
            return arg.rfind(prefix, 0) == 0 ? arg.c_str() + n
                                             : nullptr;
        };
        if (const char *v = val("--url=")) {
            url = v;
        } else if (const char *v = val("--host=")) {
            host = v;
        } else if (const char *v = val("--port=")) {
            port = std::atoi(v);
        } else if (const char *v = val("--interval=")) {
            interval = std::strtod(v, nullptr);
        } else if (const char *v = val("--count=")) {
            count = std::atol(v);
        } else if (arg == "--once") {
            once = true;
        } else {
            std::fprintf(stderr, "specstat: unknown top arg %s\n",
                         arg.c_str());
            return 2;
        }
    }
    std::string path = "/metrics";
    if (!url.empty()) {
        std::uint16_t parsed_port = 0;
        std::string parsed_path;
        if (!specpmt::obs::parseHttpUrl(url, host, parsed_port,
                                        parsed_path)) {
            std::fprintf(stderr, "specstat: bad --url=%s\n",
                         url.c_str());
            return 2;
        }
        port = parsed_port;
        if (parsed_path != "/")
            path = parsed_path;
    }
    if (port <= 0 || port > 65535) {
        std::fputs("specstat: top needs --port= or --url=\n", stderr);
        return 2;
    }
    if (interval < 0.05)
        interval = 0.05;
    if (once)
        count = 1;

    const std::string where = host + ":" + std::to_string(port);
    const auto scrape = [&](Scrape &out) -> bool {
        specpmt::obs::HttpResponse response;
        std::string error;
        if (!specpmt::obs::httpGet(host,
                                   static_cast<std::uint16_t>(port),
                                   path, response, error)) {
            std::fprintf(stderr, "specstat: %s%s: %s\n",
                         where.c_str(), path.c_str(), error.c_str());
            return false;
        }
        if (response.status != 200) {
            std::fprintf(stderr, "specstat: %s%s: HTTP %d\n",
                         where.c_str(), path.c_str(),
                         response.status);
            return false;
        }
        out.samples.clear();
        if (!specpmt::obs::parsePrometheus(response.body, out.samples,
                                           error)) {
            std::fprintf(stderr, "specstat: %s%s: %s\n",
                         where.c_str(), path.c_str(), error.c_str());
            return false;
        }
        out.buckets = collectBuckets(out.samples);
        out.exemplars = collectExemplars(response.body);
        out.when = std::chrono::steady_clock::now();
        return true;
    };

    Scrape prev;
    if (!scrape(prev))
        return 2;
    for (std::size_t frame = 1;
         count < 0 || frame <= static_cast<std::size_t>(count);
         ++frame) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(interval));
        Scrape cur;
        if (!scrape(cur))
            return 2;
        if (!once)
            std::printf("\x1b[H\x1b[2J");
        if (countersReset(prev, cur)) {
            std::printf("specstat top — %s  counter reset detected "
                        "(server restart?), re-baselining\n",
                        where.c_str());
        } else {
            renderTopFrame(prev, cur, where, frame);
        }
        std::fflush(stdout);
        prev = std::move(cur);
    }
    return 0;
}

int usage();

/**
 * ======================== specstat trace ========================
 *
 * Merge Chrome trace-event captures — client --trace-out= files and
 * server /trace?ms=N scrapes share the steady-clock time base when
 * both processes run on the same host — group spans by their
 * correlation id (args.id, the 64-bit wire trace id) and print a
 * waterfall per traced request, slowest first: client_send and
 * client_rtt from the load generator interleaved with srv_queue,
 * srv_exec, flush_batch, epoch_seal, seal_wait and ack_write from the
 * server, each positioned on a shared time axis. The PM cost vector
 * the server attaches to srv_exec (user vs log bytes, flushes,
 * fences, log-space watermarks) prints below each waterfall with the
 * derived write amplification.
 */

/** One parsed trace event carrying a correlation id. */
struct TraceSpan
{
    std::string name;
    std::string cat;
    double startNs = 0;
    double durNs = 0;
    std::size_t source = 0; ///< index into the input list
    std::uint64_t id = 0;
    /** Numeric args minus the id, in file order. */
    std::vector<std::pair<std::string, double>> args;
};

/**
 * Load one trace artifact and append its events. The flattener turns
 * `traceEvents[i].field` into `traceEvents.<i>.<field>` leaf paths;
 * string fields (name, cat) and numeric fields (ts, dur, args.*)
 * land in separate maps and are re-joined by index here.
 */
bool
loadTraceSpans(const std::string &path, std::size_t source,
               std::vector<TraceSpan> &out, std::string &error)
{
    std::string text;
    if (!fetchArtifact(path, text, error))
        return false;
    if (text.find("\"traceEvents\"") == std::string::npos) {
        error = "not a trace artifact (no traceEvents)";
        return false;
    }
    FlatJson json;
    if (!JsonFlattener(text).parse(&json, error))
        return false;
    const auto indexOf = [](const std::string &key,
                            std::string &field) -> long {
        static const std::string kPrefix = "traceEvents.";
        if (key.rfind(kPrefix, 0) != 0)
            return -1;
        const std::size_t dot = key.find('.', kPrefix.size());
        if (dot == std::string::npos)
            return -1;
        field = key.substr(dot + 1);
        return std::atol(key.c_str() + kPrefix.size());
    };
    std::map<long, TraceSpan> events;
    for (const auto &[key, value] : json.strings) {
        std::string field;
        const long i = indexOf(key, field);
        if (i < 0)
            continue;
        if (field == "name")
            events[i].name = value;
        else if (field == "cat")
            events[i].cat = value;
    }
    for (const auto &[key, value] : json.numbers) {
        std::string field;
        const long i = indexOf(key, field);
        if (i < 0)
            continue;
        if (field == "ts") {
            // Chrome trace timestamps are microseconds.
            events[i].startNs = value * 1000.0;
        } else if (field == "dur") {
            events[i].durNs = value * 1000.0;
        } else if (field == "args.id") {
            events[i].id = static_cast<std::uint64_t>(value);
        } else if (field.rfind("args.", 0) == 0) {
            events[i].args.emplace_back(field.substr(5), value);
        }
    }
    for (auto &[i, span] : events) {
        (void)i;
        span.source = source;
        out.push_back(std::move(span));
    }
    return true;
}

/** Render one waterfall bar on a @p width-column shared time axis. */
std::string
waterfallBar(double offset_ns, double dur_ns, double total_ns,
             int width)
{
    std::string bar(static_cast<std::size_t>(width), '.');
    if (total_ns <= 0)
        return bar;
    int begin = static_cast<int>(offset_ns / total_ns * width);
    int fill = static_cast<int>(dur_ns / total_ns * width);
    begin = std::clamp(begin, 0, width - 1);
    fill = std::clamp(fill, 1, width - begin);
    for (int i = 0; i < fill; ++i)
        bar[static_cast<std::size_t>(begin + i)] = '=';
    return bar;
}

int
cmdTrace(const std::vector<std::string> &args)
{
    std::size_t slowest = 10;
    std::uint64_t only_id = 0;
    std::vector<std::string> paths;
    for (const auto &arg : args) {
        if (arg.rfind("--slowest=", 0) == 0) {
            slowest = std::strtoull(arg.c_str() + 10, nullptr, 10);
        } else if (arg.rfind("--id=", 0) == 0) {
            only_id = std::strtoull(arg.c_str() + 5, nullptr, 10);
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "specstat: unknown trace arg %s\n",
                         arg.c_str());
            return 2;
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.empty() || slowest == 0)
        return usage();

    std::vector<TraceSpan> spans;
    for (std::size_t i = 0; i < paths.size(); ++i) {
        std::string error;
        if (!loadTraceSpans(paths[i], i, spans, error)) {
            std::fprintf(stderr, "specstat: %s: %s\n",
                         paths[i].c_str(), error.c_str());
            return 2;
        }
        std::printf("input %zu: %s\n", i, paths[i].c_str());
    }

    std::map<std::uint64_t, std::vector<const TraceSpan *>> traces;
    for (const TraceSpan &span : spans) {
        if (span.id == 0 || (only_id != 0 && span.id != only_id))
            continue;
        traces[span.id].push_back(&span);
    }
    if (traces.empty()) {
        std::fprintf(stderr,
                     "specstat: no correlated spans (args.id%s) "
                     "among %zu events\n",
                     only_id != 0 ? " matching --id" : "",
                     spans.size());
        return 1;
    }

    struct Ranked
    {
        std::uint64_t id;
        double start;
        double end;
        const std::vector<const TraceSpan *> *spans;
    };
    std::vector<Ranked> ranked;
    for (const auto &[id, members] : traces) {
        Ranked r{id, std::numeric_limits<double>::infinity(), 0,
                 &members};
        for (const TraceSpan *span : members) {
            r.start = std::min(r.start, span->startNs);
            r.end = std::max(r.end, span->startNs + span->durNs);
        }
        ranked.push_back(r);
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const Ranked &a, const Ranked &b) {
                  return a.end - a.start > b.end - b.start;
              });

    std::printf("%zu correlated trace(s) across %zu spans; showing "
                "slowest %zu\n",
                ranked.size(), spans.size(),
                std::min(slowest, ranked.size()));

    constexpr int kBarWidth = 40;
    for (std::size_t t = 0; t < ranked.size() && t < slowest; ++t) {
        const Ranked &r = ranked[t];
        const double total = r.end - r.start;
        std::vector<const TraceSpan *> ordered = *r.spans;
        std::sort(ordered.begin(), ordered.end(),
                  [](const TraceSpan *a, const TraceSpan *b) {
                      return a->startNs != b->startNs
                                 ? a->startNs < b->startNs
                                 : a->durNs > b->durNs;
                  });
        std::printf("\ntrace %llu  total %s  spans %zu\n",
                    static_cast<unsigned long long>(r.id),
                    formatNs(total).c_str(), ordered.size());
        const TraceSpan *exec = nullptr;
        for (const TraceSpan *span : ordered) {
            std::printf("  %-12s %-7s [%zu] +%-9s %-9s |%s|",
                        span->name.c_str(), span->cat.c_str(),
                        span->source,
                        formatNs(span->startNs - r.start).c_str(),
                        formatNs(span->durNs).c_str(),
                        waterfallBar(span->startNs - r.start,
                                     span->durNs, total, kBarWidth)
                            .c_str());
            for (const auto &[key, value] : span->args)
                std::printf(" %s=%s", key.c_str(),
                            formatValue(value).c_str());
            std::printf("\n");
            if (span->name == "srv_exec" && exec == nullptr)
                exec = span;
        }
        if (exec != nullptr && !exec->args.empty()) {
            const auto arg = [&](const char *key) -> double {
                for (const auto &[k, v] : exec->args)
                    if (k == key)
                        return v;
                return 0;
            };
            const double user = arg("user_bytes");
            const double log = arg("log_bytes");
            std::printf("  pm: user %sB  log %sB  write_amp %s  "
                        "flushes %s (%sB)  fences %s  log_peak %sB  "
                        "reclaim_debt %sB\n",
                        formatValue(user).c_str(),
                        formatValue(log).c_str(),
                        user > 0 ? formatValue(log / user).c_str()
                                 : "-",
                        formatValue(arg("flushes")).c_str(),
                        formatValue(arg("flush_bytes")).c_str(),
                        formatValue(arg("fences")).c_str(),
                        formatValue(arg("log_peak")).c_str(),
                        formatValue(arg("reclaim_debt")).c_str());
        }
    }
    return 0;
}

/** One parsed --require=<metric><op><value> assertion. */
struct Requirement
{
    std::string metric;
    std::string op;
    double value = 0;
    std::string raw; ///< the spec as typed, for messages
};

bool
parseRequirement(std::string_view spec, Requirement &out,
                 std::string &error)
{
    out.raw = spec;
    // A labeled metric (`name{kind="poison"}>=1`) carries '=' inside
    // the label block; the comparison operator can only start after
    // the closing brace.
    std::size_t search_from = 0;
    const std::size_t brace = spec.find('{');
    if (brace != std::string_view::npos &&
        brace < spec.find_first_of("<>!=")) {
        const std::size_t close = spec.find('}', brace);
        if (close == std::string_view::npos) {
            error = "unterminated label block";
            return false;
        }
        search_from = close + 1;
    }
    const std::size_t pos = spec.find_first_of("<>!=", search_from);
    if (pos == 0 || pos == std::string_view::npos) {
        error = "want <metric><op><value> with op one of "
                "== != >= <= > <";
        return false;
    }
    out.metric = spec.substr(0, pos);
    std::size_t value_pos = pos + 1;
    if (value_pos < spec.size() && spec[value_pos] == '=')
        ++value_pos;
    out.op = spec.substr(pos, value_pos - pos);
    if (out.op != "==" && out.op != "!=" && out.op != ">=" &&
        out.op != "<=" && out.op != ">" && out.op != "<") {
        error = "unknown operator '" + out.op + "'";
        return false;
    }
    const std::string value_str(spec.substr(value_pos));
    char *end = nullptr;
    out.value = std::strtod(value_str.c_str(), &end);
    if (value_str.empty() || end == nullptr || *end != '\0') {
        error = "bad numeric value '" + value_str + "'";
        return false;
    }
    return true;
}

bool
evalRequirement(const FlatSamples &samples, const Requirement &req)
{
    const auto it = samples.find(req.metric);
    if (it == samples.end()) {
        std::fprintf(stderr,
                     "specstat: REQUIRE FAILED %s: metric %s not "
                     "found in the checked files\n",
                     req.raw.c_str(), req.metric.c_str());
        return false;
    }
    const double actual = it->second;
    bool ok = false;
    if (req.op == "==")
        ok = actual == req.value;
    else if (req.op == "!=")
        ok = actual != req.value;
    else if (req.op == ">=")
        ok = actual >= req.value;
    else if (req.op == "<=")
        ok = actual <= req.value;
    else if (req.op == ">")
        ok = actual > req.value;
    else if (req.op == "<")
        ok = actual < req.value;
    if (ok) {
        std::printf("REQUIRE ok %s (actual %s)\n", req.raw.c_str(),
                    formatValue(actual).c_str());
    } else {
        std::fprintf(stderr,
                     "specstat: REQUIRE FAILED %s (actual %s)\n",
                     req.raw.c_str(), formatValue(actual).c_str());
    }
    return ok;
}

int
usage()
{
    std::fputs("usage: specstat dump FILE\n"
               "       specstat diff OLD NEW\n"
               "       specstat check [--require=METRIC<OP>VALUE]... "
               "FILE...\n"
               "       specstat top --port=P [--host=H] [--url=U]\n"
               "                    [--interval=SEC] [--count=N] "
               "[--once]\n"
               "       specstat trace [--slowest=N] [--id=ID] "
               "FILE...\n"
               "FILE may be a path, `-` (stdin) or an http:// URL.\n",
               stderr);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string_view command = argv[1];
    if (command == "dump" && argc == 3)
        return cmdDump(argv[2]);
    if (command == "diff" && argc == 4)
        return cmdDiff(argv[2], argv[3]);
    if (command == "top") {
        std::vector<std::string> args(argv + 2, argv + argc);
        return cmdTop(args);
    }
    if (command == "trace" && argc >= 3) {
        std::vector<std::string> args(argv + 2, argv + argc);
        return cmdTrace(args);
    }
    if (command == "check" && argc >= 3) {
        std::vector<Requirement> requirements;
        std::vector<std::string> files;
        for (int i = 2; i < argc; ++i) {
            const std::string_view arg = argv[i];
            if (arg.rfind("--require=", 0) == 0) {
                Requirement req;
                std::string error;
                if (!parseRequirement(arg.substr(10), req, error)) {
                    std::fprintf(stderr,
                                 "specstat: bad %s: %s\n", argv[i],
                                 error.c_str());
                    return 2;
                }
                requirements.push_back(std::move(req));
            } else {
                files.emplace_back(arg);
            }
        }
        if (files.empty())
            return usage();
        bool ok = true;
        FlatSamples merged;
        for (const auto &file : files)
            ok = checkOne(file, merged) && ok;
        for (const auto &req : requirements)
            ok = evalRequirement(merged, req) && ok;
        return ok ? 0 : 1;
    }
    return usage();
}
