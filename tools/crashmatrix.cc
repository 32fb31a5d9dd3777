/**
 * @file
 * crashmatrix — exhaustive crash-schedule exploration driver.
 *
 * Enumerates every persistence-event crash point of one cell
 * (runtime x workload x crash policy x seed), or replays a single
 * failing schedule from its token. See src/sim/crash_explorer.hh for
 * the engine; this tool adds cell selection, sharding for CI
 * parallelism, and a JSON report whose failures carry replay tokens.
 *
 * Exit status: 0 = every candidate point explored or pruned and none
 * failed; 1 = at least one failing schedule (tokens printed); 2 = the
 * cell itself was invalid or could not run.
 */

#include <cstdio>
#include <fstream>
#include <string>

#include "common/flags.hh"
#include "forensic/inspector.hh"
#include "forensic/recovery_audit.hh"
#include "kv/kv_crash_workload.hh"
#include "obs/artifacts.hh"
#include "obs/metrics.hh"
#include "pmem/image_io.hh"
#include "sim/crash_explorer.hh"
#include "workloads/stamp_crash_workload.hh"

namespace
{

using namespace specpmt;

/** Every workload any layer of the repo can plug into the explorer. */
sim::CrashWorkloadFactory
fullWorkloadFactory()
{
    return [](const sim::CrashCell &cell)
               -> std::unique_ptr<sim::CrashWorkload> {
        if (cell.workload == "kv")
            return kv::makeKvCrashWorkload(cell);
        if (workloads::isStampWorkloadName(cell.workload))
            return workloads::makeStampCrashWorkload(cell);
        return sim::builtinCrashWorkloadFactory()(cell);
    };
}

void
usage(std::FILE *out)
{
    std::fputs(
        "usage: crashmatrix [cell options] [driver options]\n"
        "       crashmatrix --replay=<token> [--continue]\n"
        "       crashmatrix --explain=<token> [--image-out=DIR]\n"
        "                   [--json=PATH]\n"
        "\n"
        "Explores every persistence-event crash point of one cell of\n"
        "the crash matrix, or replays one schedule from its token.\n"
        "--explain replays a token, saves the post-crash image(s) and\n"
        "prints the pminspect forensic report (transaction verdicts,\n"
        "seal CRCs, flight-recorder ring) plus a recovery audit.\n"
        "\n"
        "cell options\n"
        "  --runtime=NAME   pmdk|spht|spec|spec-dp|hybrid    [spec]\n"
        "  --workload=NAME  slots|kv|genome|intruder|...     [slots]\n"
        "  --policy=NAME    nothing|everything|random        [nothing]\n"
        "  --p=FLOAT        random-policy line survival prob [0.5]\n"
        "  --seed=N         workload RNG seed                [42]\n"
        "  --fault=NAME     none|drop-fences                 [none]\n"
        "  --slots=N --tx=N --stores=N --reclaim-every=N\n"
        "                   slots workload sizing\n"
        "  --kv-shards=N --kv-keys=N --kv-ops=N\n"
        "                   kv workload sizing\n"
        "  --kv-epoch-ops=N kv epoch group commit: relaxed puts,\n"
        "                   epoch sealed every N mutations (0 = off)\n"
        "  --scale=FLOAT    STAMP-analog workload scale      [0.05]\n"
        "\n"
        "driver options (never part of replay tokens)\n"
        "  --shard=K/N      explore points with id%N == K     [0/1]\n"
        "  --jobs=N         worker threads (0 = hardware)    [1]\n"
        "  --max-points=N   bound points per run (0 = all)   [0]\n"
        "  --continue       verify post-recovery continuation\n"
        "  --json=PATH      write the JSON report (- = stdout)\n"
        "  --metrics-out=P  dump the metrics registry (text/.json)\n"
        "  --trace-out=P    enable tracing, dump Chrome trace JSON\n"
        "  --replay=TOKEN   replay one schedule and exit\n"
        "  --explain=TOKEN  replay + forensic report and exit\n"
        "  --image-out=DIR  (--explain) save post-crash images there\n"
        "  --help           this text\n",
        out);
}

/** Write @p json to @p path ("-" = stdout, "" = nowhere). */
bool
writeJson(const std::string &path, const std::string &json)
{
    if (path == "-")
        std::fputs(json.c_str(), stdout);
    else if (!path.empty() && !(std::ofstream(path) << json)) {
        std::fprintf(stderr, "crashmatrix: cannot write %s\n",
                     path.c_str());
        return false;
    }
    return true;
}

int
replayToken(const std::string &token, bool verify_continuation)
{
    const auto result = sim::CrashExplorer::replay(
        token, fullWorkloadFactory(), verify_continuation);
    if (!result.error.empty()) {
        std::fprintf(stderr, "crashmatrix: bad token: %s\n",
                     result.error.c_str());
        return 2;
    }
    std::printf("replay %s\n", token.c_str());
    std::printf("  crash point %llu %s\n",
                static_cast<unsigned long long>(result.point),
                result.fired ? "fired" : "did not fire (run too short)");
    if (!result.failure.empty()) {
        std::printf("  FAIL: %s\n", result.failure.c_str());
        return 1;
    }
    std::printf("  recovered state consistent\n");
    return 0;
}

/**
 * Replay @p token's crash point, export the post-crash image(s), and
 * emit the forensic report: pminspect classification per image plus a
 * recovery audit (spec family). Deterministic text on stdout (golden
 * testable; metrics only appear in the JSON report).
 */
int
explainToken(const std::string &token, const std::string &image_dir,
             const std::string &json_path)
{
    sim::CrashCell cell;
    std::uint64_t point = 0;
    std::string error;
    if (!sim::CrashCell::parseToken(token, cell, point, error)) {
        std::fprintf(stderr, "crashmatrix: bad token: %s\n",
                     error.c_str());
        return 2;
    }

    sim::CrashedWorkload crashed;
    try {
        crashed = sim::crashWorkload(cell, fullWorkloadFactory(), point);
    } catch (const std::exception &ex) {
        std::fprintf(stderr, "crashmatrix: %s\n", ex.what());
        return 2;
    }
    const auto devices = crashed.workload->devices();

    std::printf("explain %s\n", token.c_str());
    std::printf("  crash point %llu %s, policy %s, %zu image(s)\n",
                static_cast<unsigned long long>(point),
                crashed.fired ? "fired" : "did not fire (run too short)",
                cell.policy.c_str(), devices.size());

    const bool audit_supported =
        forensic::isAuditableRuntime(cell.runtime);
    bool disagreement = false;
    std::string json = "{\"token\": \"" + token + "\", \"point\": " +
                       std::to_string(point) + ", \"fired\": " +
                       (crashed.fired ? "true" : "false") +
                       ", \"images\": [";
    bool first = true;

    for (const sim::CrashDevice &device : devices) {
        const std::vector<std::uint8_t> image(
            device.device->persistentRaw(),
            device.device->persistentRaw() + device.device->size());
        const auto report = forensic::inspectImage(
            *device.device, device.threads, device.name);

        std::printf("--- image %s ---\n", device.name.c_str());
        std::fputs(report.toText().c_str(), stdout);

        forensic::AuditResult audit;
        if (audit_supported) {
            audit = forensic::auditRecovery(image, cell.runtime,
                                            device.threads, report);
            std::fputs(audit.toText().c_str(), stdout);
            if (!audit.agrees)
                disagreement = true;
        }

        if (!image_dir.empty()) {
            const std::string path =
                image_dir + "/" + device.name + ".img";
            std::string io_error;
            if (!pmem::saveImage(path, image, io_error)) {
                std::fprintf(stderr, "crashmatrix: %s: %s\n",
                             path.c_str(), io_error.c_str());
                return 2;
            }
        }

        if (!first)
            json += ",";
        first = false;
        json += "\n  {\"name\": \"" + device.name + "\", \"report\": ";
        json += report.toJson(
            obs::Registry::global().snapshot().toJson());
        if (audit_supported)
            json += ", \"audit\": " + audit.toJson();
        json += "}";
    }
    json += "\n]}\n";
    if (!writeJson(json_path, json))
        return 2;

    if (disagreement) {
        std::printf("recovery audit DISAGREES with the inspector\n");
        return 1;
    }
    return 0;
}

/** Write the requested artifacts; false (reported) on failure. */
bool
writeArtifacts(const obs::OutputFlags &obs_flags)
{
    const std::string error = obs_flags.writeArtifacts();
    if (!error.empty())
        std::fprintf(stderr, "crashmatrix: %s\n", error.c_str());
    return error.empty();
}

} // namespace

int
main(int argc, char **argv)
{
    sim::CrashCell cell;
    sim::ExploreOptions options;
    std::string json_path;
    std::string replay_token;
    std::string explain_token;
    std::string image_dir;
    bool verify_continuation = false;
    obs::OutputFlags obs_flags;
    bool help = false;

    Flags flags;
    flags.flag("--help", help)
        .flag("-h", help)
        .flag("--continue", verify_continuation)
        .text("--runtime", cell.runtime)
        .text("--workload", cell.workload)
        .text("--policy", cell.policy)
        .real("--p", cell.persistProbability, 0, 1)
        .count("--seed", cell.seed)
        .text("--fault", cell.fault)
        .count("--slots", cell.slots, 1)
        .count("--tx", cell.txCount)
        .count("--stores", cell.maxStoresPerTx, 1)
        .count("--reclaim-every", cell.reclaimEvery)
        .count("--kv-shards", cell.kvShards, 1)
        .count("--kv-keys", cell.kvKeys, 1)
        .count("--kv-ops", cell.kvOps)
        .count("--kv-epoch-ops", cell.kvEpochOps)
        .real("--scale", cell.scale)
        .option("--shard",
                [&options](std::string_view spec) {
                    unsigned index = 0, count = 0;
                    if (std::sscanf(std::string(spec).c_str(), "%u/%u",
                                    &index, &count) != 2 ||
                        count == 0 || index >= count)
                        return "bad --shard=" + std::string(spec) +
                               " (want K/N, K < N)";
                    options.shardIndex = index;
                    options.shardCount = count;
                    return std::string();
                })
        .count("--jobs", options.jobs)
        .count("--max-points", options.maxPoints)
        .text("--json", json_path)
        .text("--replay", replay_token)
        .text("--explain", explain_token)
        .text("--image-out", image_dir);
    obs_flags.declare(flags);
    if (const std::string error = flags.parse(argc, argv); !error.empty()) {
        std::fprintf(stderr, "crashmatrix: %s\n", error.c_str());
        usage(stderr);
        return 2;
    }
    if (help) {
        usage(stdout);
        return 0;
    }
    if (!replay_token.empty()) {
        const int status =
            replayToken(replay_token, verify_continuation);
        return writeArtifacts(obs_flags) ? status : 2;
    }

    if (!explain_token.empty()) {
        const int status =
            explainToken(explain_token, image_dir, json_path);
        return writeArtifacts(obs_flags) ? status : 2;
    }

    options.verifyContinuation = verify_continuation;
    sim::CrashExplorer explorer(cell, fullWorkloadFactory());
    const auto report = explorer.explore(options);

    if (!report.error.empty()) {
        std::fprintf(stderr, "crashmatrix: %s\n", report.error.c_str());
        return 2;
    }

    std::printf(
        "cell %s/%s policy=%s seed=%llu fault=%s\n",
        cell.runtime.c_str(), cell.workload.c_str(),
        cell.policy.c_str(), static_cast<unsigned long long>(cell.seed),
        cell.fault.c_str());
    std::printf(
        "  %llu persistence events, shard %u/%u -> %llu candidate "
        "points\n",
        static_cast<unsigned long long>(report.totalEvents),
        options.shardIndex, options.shardCount,
        static_cast<unsigned long long>(report.candidatePoints));
    std::printf(
        "  explored %llu, pruned %llu (bit-identical post-crash "
        "state), failures %zu\n",
        static_cast<unsigned long long>(report.explored),
        static_cast<unsigned long long>(report.pruned),
        report.failures.size());
    for (const auto &failure : report.failures) {
        std::printf("  FAIL point %llu: %s\n",
                    static_cast<unsigned long long>(failure.point),
                    failure.message.c_str());
        std::printf("    replay: crashmatrix --replay='%s'\n",
                    failure.token.c_str());
    }

    if (!writeJson(json_path, report.toJson(cell) + "\n"))
        return 2;

    if (!writeArtifacts(obs_flags))
        return 2;
    return report.ok() ? 0 : 1;
}
