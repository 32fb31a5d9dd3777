/**
 * @file
 * specnet_bench — open-loop load generator CLI for a running
 * `speckv serve` instance.
 *
 * Schedules departures on a target-QPS arrival timeline (Poisson or
 * fixed-rate) and reports latency percentiles measured from each
 * request's INTENDED departure time, so coordinated omission cannot
 * hide server stalls (see src/net/loadgen.hh). A closed-loop client
 * under the same stall would simply emit fewer requests and report a
 * flattering tail.
 *
 * Usage:
 *   specnet_bench [--host=127.0.0.1] (--port=N | --port-file=PATH)
 *                 [--qps=20000] [--seconds=2]
 *                 [--arrival=poisson|fixed] [--mix=A|B|C]
 *                 [--dist=zipfian|uniform] [--keys=4096]
 *                 [--multiput=0.0] [--strict=0.0] [--seed=1]
 *                 [--load] [--json=out.json] [--metrics-out=m.prom]
 *                 [--trace-sample=0.0] [--trace-out=trace.json]
 *                 [--timeout-ms=0] [--retries=0] [--reconnect]
 *                 [--backoff-base-ms=10] [--backoff-max-ms=500]
 *
 * --load first PUTs the whole keyspace (shard-grouped batches), so
 * GETs in the timed phase hit. --strict=F sends fraction F of
 * mutation frames with the protocol's kFlagStrict, forcing a
 * per-request commit fence on a server running epoch group commit
 * (no effect on a strict server, where every commit fences anyway).
 * --trace-sample=F sends fraction F of requests with the wire trace
 * extension: the server emits correlated spans and histogram
 * exemplars for them, and with --trace-out= the client writes its
 * own client_send/client_rtt spans (same trace ids) for `specstat
 * trace` to merge with a server-side /trace capture.
 * --timeout-ms / --retries / --reconnect arm the resilient-client
 * machinery (per-request deadlines, idempotent same-id resends of
 * timed-out or Busy-shed requests, re-dial with capped backoff) for
 * chaos runs against a faulting or restarting server.
 * Exit status is nonzero when the run aborted, a connection died,
 * frames were malformed, or requests went unanswered.
 */

#include <cstdio>
#include <string>

#include "common/flags.hh"
#include "common/logging.hh"
#include "net/loadgen.hh"
#include "obs/artifacts.hh"

using namespace specpmt;

namespace
{

std::uint16_t
readPortFile(const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "r");
    if (f == nullptr)
        SPECPMT_FATAL("cannot read %s", path.c_str());
    unsigned port = 0;
    if (std::fscanf(f, "%u", &port) != 1 || port == 0 ||
        port > 65535) {
        std::fclose(f);
        SPECPMT_FATAL("no port in %s", path.c_str());
    }
    std::fclose(f);
    return static_cast<std::uint16_t>(port);
}

void
printPercentiles(const char *label, const LatencyHistogram &h)
{
    std::printf("  %-7s %9llu samples  p50 %8.1fus  p99 %8.1fus  "
                "p999 %8.1fus  max %8.1fus\n",
                label, static_cast<unsigned long long>(h.count()),
                h.percentile(50) / 1e3, h.percentile(99) / 1e3,
                h.percentile(99.9) / 1e3, h.max() / 1e3);
}

void
jsonHistogram(FILE *f, const char *name, const LatencyHistogram &h,
              bool last)
{
    std::fprintf(f,
                 "  \"%s\": {\"count\": %llu, \"mean_ns\": %.1f, "
                 "\"p50_ns\": %llu, "
                 "\"p99_ns\": %llu, \"p999_ns\": %llu, "
                 "\"max_ns\": %llu}%s\n",
                 name, static_cast<unsigned long long>(h.count()),
                 h.mean(),
                 static_cast<unsigned long long>(h.percentile(50)),
                 static_cast<unsigned long long>(h.percentile(99)),
                 static_cast<unsigned long long>(h.percentile(99.9)),
                 static_cast<unsigned long long>(h.max()),
                 last ? "" : ",");
}

} // namespace

int
main(int argc, char **argv)
{
    net::LoadgenConfig config;
    std::string json_path;
    obs::OutputFlags obs_flags;

    Flags flags;
    flags.text("--host", config.host)
        .count("--port", config.port)
        .option("--port-file",
                [&config](std::string_view path) {
                    config.port = readPortFile(std::string(path));
                    return std::string();
                })
        .real("--qps", config.targetQps)
        .real("--seconds", config.seconds)
        .choice("--arrival", config.arrival, net::parseArrival)
        .choice("--mix", config.workload.mix, kv::parseMix)
        .choice("--dist", config.workload.dist, kv::parseKeyDist)
        .count("--keys", config.workload.keys, 1)
        .real("--multiput", config.workload.multiPutFraction, 0, 1)
        .real("--strict", config.strictFraction, 0, 1)
        .real("--trace-sample", config.traceSample, 0, 1)
        .count("--seed", config.seed)
        .flag("--load", config.loadFirst)
        .count("--timeout-ms", config.requestTimeoutMs)
        .count("--retries", config.maxRetries)
        .flag("--reconnect", config.reconnect)
        .count("--backoff-base-ms", config.backoffBaseMs)
        .count("--backoff-max-ms", config.backoffMaxMs)
        .text("--json", json_path);
    obs_flags.declare(flags);
    if (const std::string error = flags.parse(argc, argv); !error.empty())
        SPECPMT_FATAL("%s", error.c_str());
    if (config.port == 0)
        SPECPMT_FATAL("--port or --port-file is required");
    if (config.targetQps <= 0 || config.seconds <= 0)
        SPECPMT_FATAL("--qps and --seconds must be positive");
    if (config.workload.dist == kv::KeyDist::Zipfian &&
        config.workload.keys < 2)
        SPECPMT_FATAL("--keys must be at least 2 with --dist=zipfian");

    std::printf("specnet_bench: %s:%u qps=%.0f seconds=%.1f "
                "arrival=%s mix=%s dist=%s keys=%llu%s\n",
                config.host.c_str(), config.port, config.targetQps,
                config.seconds, net::arrivalName(config.arrival),
                kv::mixName(config.workload.mix),
                kv::keyDistName(config.workload.dist),
                static_cast<unsigned long long>(config.workload.keys),
                config.loadFirst ? " (+load)" : "");
    std::fflush(stdout);

    const net::LoadgenResult result = net::runOpenLoop(config);
    if (result.aborted) {
        std::printf("specnet_bench: ABORTED: %s\n",
                    result.error.c_str());
        return 2;
    }

    std::printf(
        "scheduled %llu  sent %llu  acked %llu  errors %llu  "
        "notFound %llu  lost %llu  protocolErrors %llu  strict %llu  "
        "traced %llu\n",
        static_cast<unsigned long long>(result.scheduled),
        static_cast<unsigned long long>(result.sent),
        static_cast<unsigned long long>(result.acked),
        static_cast<unsigned long long>(result.errors),
        static_cast<unsigned long long>(result.notFound),
        static_cast<unsigned long long>(result.lost),
        static_cast<unsigned long long>(result.protocolErrors),
        static_cast<unsigned long long>(result.strictSent),
        static_cast<unsigned long long>(result.tracedSent));
    if (result.timeouts || result.retries || result.reconnects ||
        result.busyResponses)
        std::printf("timeouts %llu  retries %llu  reconnects %llu  "
                    "busy %llu\n",
                    static_cast<unsigned long long>(result.timeouts),
                    static_cast<unsigned long long>(result.retries),
                    static_cast<unsigned long long>(result.reconnects),
                    static_cast<unsigned long long>(
                        result.busyResponses));
    std::printf("wall %.3fs  achieved %.1f kops/s (target %.1f)\n",
                result.wallSeconds, result.achievedQps / 1e3,
                config.targetQps / 1e3);
    std::printf("latency from INTENDED departure time:\n");
    printPercentiles("read", result.readLatency);
    printPercentiles("update", result.updateLatency);
    printPercentiles("sendlag", result.sendLag);

    if (!json_path.empty()) {
        FILE *f = std::fopen(json_path.c_str(), "w");
        if (f == nullptr)
            SPECPMT_FATAL("cannot write %s", json_path.c_str());
        std::fprintf(
            f,
            "{\n"
            "  \"target_qps\": %.1f,\n"
            "  \"achieved_qps\": %.1f,\n"
            "  \"wall_seconds\": %.3f,\n"
            "  \"arrival\": \"%s\",\n"
            "  \"scheduled\": %llu,\n"
            "  \"sent\": %llu,\n"
            "  \"acked\": %llu,\n"
            "  \"errors\": %llu,\n"
            "  \"not_found\": %llu,\n"
            "  \"lost\": %llu,\n"
            "  \"protocol_errors\": %llu,\n"
            "  \"strict_fraction\": %.4f,\n"
            "  \"strict_sent\": %llu,\n"
            "  \"trace_sample\": %.4f,\n"
            "  \"traced_sent\": %llu,\n"
            "  \"timeouts\": %llu,\n"
            "  \"retries\": %llu,\n"
            "  \"reconnects\": %llu,\n"
            "  \"busy_responses\": %llu,\n",
            config.targetQps, result.achievedQps,
            result.wallSeconds, net::arrivalName(config.arrival),
            static_cast<unsigned long long>(result.scheduled),
            static_cast<unsigned long long>(result.sent),
            static_cast<unsigned long long>(result.acked),
            static_cast<unsigned long long>(result.errors),
            static_cast<unsigned long long>(result.notFound),
            static_cast<unsigned long long>(result.lost),
            static_cast<unsigned long long>(result.protocolErrors),
            config.strictFraction,
            static_cast<unsigned long long>(result.strictSent),
            config.traceSample,
            static_cast<unsigned long long>(result.tracedSent),
            static_cast<unsigned long long>(result.timeouts),
            static_cast<unsigned long long>(result.retries),
            static_cast<unsigned long long>(result.reconnects),
            static_cast<unsigned long long>(result.busyResponses));
        jsonHistogram(f, "read_latency", result.readLatency, false);
        jsonHistogram(f, "update_latency", result.updateLatency,
                      false);
        jsonHistogram(f, "send_lag", result.sendLag, true);
        std::fprintf(f, "}\n");
        std::fclose(f);
    }
    if (const std::string error = obs_flags.writeArtifacts();
        !error.empty())
        SPECPMT_FATAL("%s", error.c_str());

    const bool failed = result.connectionLost ||
                        result.protocolErrors != 0 ||
                        result.lost != 0;
    std::printf("specnet_bench: %s\n", failed ? "FAIL" : "OK");
    return failed ? 1 : 0;
}
