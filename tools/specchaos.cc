/**
 * @file
 * specchaos — chaos scenario harness for the networked KV service.
 *
 * Each scenario launches a real `speckv serve` subprocess, drives it
 * with open-loop load (src/net/loadgen — per-request deadlines,
 * idempotent retries, reconnect) while injecting one class of
 * failure, then verifies the service's durability and availability
 * contract held:
 *
 *   media_poison      seeded poisoned-read cache lines mid-traffic;
 *                     server must keep serving, every acked write
 *                     must read back intact or be *accounted* (typed
 *                     Io error, media metrics nonzero).
 *   media_eio         seeded write-EIO lines; transactions abort
 *                     cleanly with Err(Io), nothing half-applied.
 *   latent_corruption seeded silent bit flips in the persistent
 *                     image, SIGKILL, then offline inspection: the
 *                     forensic inspector and runtime recovery must
 *                     agree (recovery_audit), CRC-failing segments
 *                     must be quarantined, and any lost acked write
 *                     must be covered by a nonzero quarantine count.
 *   log_exhaustion    tiny PM pool; sustained writes must trip the
 *                     read-only degraded mode (Err(ReadOnly) on
 *                     mutations) while reads keep being served.
 *   sigkill           SIGKILL mid-traffic, restart on the SAME port
 *                     over the same --pm-dir while the load window
 *                     is still open: the client must reconnect to
 *                     the revived server, and recovery must
 *                     resurface EVERY acked write (the last acked
 *                     value, or a later unacked overwrite of the
 *                     same key) — no exceptions, this is the
 *                     strict-durability contract.
 *   sigstop           SIGSTOP/SIGCONT mid-traffic (a long stall, not
 *                     a crash): the resilient client must ride it
 *                     out via timeouts/retries and the run must end
 *                     with zero lost acked writes.
 *   conn_reset        rogue clients send garbage frames, oversized
 *                     frames, and hard RSTs (SO_LINGER 0) mid-
 *                     response; the server must shrug and keep
 *                     serving the well-behaved connections.
 *
 * Post-crash verification is in-process: the `.pm` backing files a
 * crashed server leaves behind are raw persistence-domain bytes, so
 * the harness reads them, rebuilds an offline device
 * (pmem::deviceFromImage), walks it with forensic::inspectImage and
 * cross-checks runtime recovery with forensic::auditRecovery — the
 * same machinery `pminspect --audit` applies to saved crash images.
 *
 * Usage:
 *   specchaos [--scenario=NAME[,NAME...]] [--list] [--seed=1]
 *             [--speckv=PATH] [--workdir=DIR] [--keep]
 *             [--json=out.json] [--metrics-out=client.prom]
 *             [--inspect=PMDIR]
 *
 * Default runs every scenario. Exit status is nonzero if any
 * scenario fails; the scratch directory (server logs, metrics
 * snapshots, port files, .pm images) is kept on failure or --keep so
 * CI can attach it as an artifact.
 */

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "forensic/inspector.hh"
#include "forensic/recovery_audit.hh"
#include "kv/kv_service.hh"
#include "net/client.hh"
#include "net/loadgen.hh"
#include "net/protocol.hh"
#include "obs/metrics.hh"
#include "pmem/image_io.hh"
#include "pmem/pmem_device.hh"

using namespace specpmt;
namespace fs = std::filesystem;

namespace
{

struct HarnessConfig
{
    std::string speckv;
    std::string workdir;
    std::uint64_t seed = 1;
    bool keep = false;
};

// ---------------------------------------------------------------------
// Server subprocess management.
// ---------------------------------------------------------------------

struct ServerHandle
{
    pid_t pid = -1;
    std::uint16_t port = 0;
    std::string logPath;
    std::string metricsPath;

    bool
    alive() const
    {
        if (pid <= 0)
            return false;
        return ::waitpid(pid, nullptr, WNOHANG) == 0;
    }
};

void
msleep(std::uint64_t ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/**
 * fork/exec `speckv serve` with @p extra flags appended. stdout and
 * stderr go to <workdir>/<tag>.log; the bound port is read back from
 * a --port-file. Returns pid -1 with @p err set on failure.
 */
ServerHandle
launchServer(const HarnessConfig &cfg, const std::string &tag,
             const std::vector<std::string> &extra, std::string &err)
{
    ServerHandle h;
    const std::string port_file = cfg.workdir + "/" + tag + ".port";
    h.logPath = cfg.workdir + "/" + tag + ".log";
    h.metricsPath = cfg.workdir + "/" + tag + ".prom";
    ::unlink(port_file.c_str());

    std::vector<std::string> args = {cfg.speckv,
                                     "serve",
                                     "--port=0",
                                     "--port-file=" + port_file,
                                     "--metrics-out=" + h.metricsPath};
    args.insert(args.end(), extra.begin(), extra.end());

    const pid_t pid = ::fork();
    if (pid < 0) {
        err = std::string("fork: ") + std::strerror(errno);
        return h;
    }
    if (pid == 0) {
        const int log_fd = ::open(h.logPath.c_str(),
                                  O_CREAT | O_WRONLY | O_APPEND, 0644);
        if (log_fd >= 0) {
            ::dup2(log_fd, STDOUT_FILENO);
            ::dup2(log_fd, STDERR_FILENO);
            ::close(log_fd);
        }
        std::vector<char *> argv;
        for (auto &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        ::execv(argv[0], argv.data());
        std::fprintf(stderr, "execv %s: %s\n", argv[0],
                     std::strerror(errno));
        ::_exit(127);
    }
    h.pid = pid;

    // Wait for the port file (the server writes it only after its
    // listener is live), bailing early if the child died.
    for (int i = 0; i < 300; ++i) {
        if (::waitpid(pid, nullptr, WNOHANG) != 0) {
            err = "server exited before binding; see " + h.logPath;
            h.pid = -1;
            return h;
        }
        std::ifstream f(port_file);
        unsigned port = 0;
        if (f && (f >> port) && port != 0 && port <= 65535) {
            h.port = static_cast<std::uint16_t>(port);
            return h;
        }
        msleep(50);
    }
    err = "timed out waiting for " + port_file;
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    h.pid = -1;
    return h;
}

/** Signal @p sig and reap, escalating to SIGKILL after @p graceMs. */
bool
stopServer(ServerHandle &h, int sig = SIGTERM,
           std::uint64_t graceMs = 10000)
{
    if (h.pid <= 0)
        return false;
    ::kill(h.pid, sig);
    for (std::uint64_t waited = 0; waited < graceMs; waited += 50) {
        if (::waitpid(h.pid, nullptr, WNOHANG) != 0) {
            h.pid = -1;
            return true;
        }
        msleep(50);
    }
    ::kill(h.pid, SIGKILL);
    ::waitpid(h.pid, nullptr, 0);
    h.pid = -1;
    return false;
}

/** SIGKILL and reap — the crash scenarios' power button. */
void
killServer(ServerHandle &h)
{
    if (h.pid <= 0)
        return;
    ::kill(h.pid, SIGKILL);
    ::waitpid(h.pid, nullptr, 0);
    h.pid = -1;
}

// ---------------------------------------------------------------------
// Prometheus text-format scraping (the --metrics-out snapshot a
// cleanly stopped server leaves behind).
// ---------------------------------------------------------------------

/** Sum of every sample of @p name (across label sets); -1 if absent. */
double
metricSum(const std::string &promPath, const std::string &name)
{
    std::ifstream f(promPath);
    if (!f)
        return -1;
    std::ostringstream text;
    text << f.rdbuf();
    obs::FlatSamples samples;
    std::string error;
    if (!obs::parsePrometheus(text.str(), samples, error))
        return -1;
    double total = 0;
    bool seen = false;
    for (const auto &[series, value] : samples) {
        if (series.substr(0, series.find('{')) != name)
            continue;
        total += value;
        seen = true;
    }
    return seen ? total : -1;
}

// ---------------------------------------------------------------------
// Verification probes over net::BlockingClient: outcome
// classification and pipelined bulk reads/writes (the open-loop
// loadgen drives the chaos; this reads back).
// ---------------------------------------------------------------------

class ChaosClient
{
  public:
    enum class Outcome
    {
        Value,
        Ok,
        NotFound,
        Io,
        ReadOnly,
        Busy,
        OtherErr,
        Broken,
    };

    /** Connect to the local server on @p port, bound to any shard. */
    bool
    connectTo(std::uint16_t port, std::string &err)
    {
        std::uint32_t shards = 0;
        std::uint32_t bound = 0;
        return conn_.connect("127.0.0.1", port, err) &&
               conn_.hello(net::kAnyShard, shards, bound, err);
    }

    void close() { conn_.close(); }

    /** One GET round trip; on Value the cell lands in @p value. */
    Outcome
    get(kv::KvKey key, kv::KvValue &value, std::string &err)
    {
        std::vector<std::uint8_t> out;
        const std::uint64_t id = nextId_++;
        net::appendGet(out, id, key);
        net::Frame resp;
        if (!conn_.sendAll(out, err) || !conn_.recvFrame(resp, err))
            return Outcome::Broken;
        if (resp.id != id) {
            err = "response id mismatch";
            conn_.close();
            return Outcome::Broken;
        }
        if (resp.op == net::Op::Value)
            return net::parseValue(resp, value) ? Outcome::Value
                                                : Outcome::Broken;
        return classify(resp);
    }

    struct BulkResult
    {
        std::uint64_t ok = 0;
        std::uint64_t notFound = 0;
        std::uint64_t io = 0;
        std::uint64_t readOnly = 0;
        std::uint64_t busy = 0;
        std::uint64_t otherErr = 0;
        bool broken = false;
        std::string err;
    };

    /**
     * Pipeline @p count PUTs (keys cycling startKey..startKey+span-1,
     * payload = payloadBase + i) and collect every response — the
     * write hammer the exhaustion scenario swings.
     */
    BulkResult
    bulkPut(kv::KvKey startKey, std::uint64_t span, std::uint64_t count,
            std::uint64_t payloadBase)
    {
        BulkResult r;
        std::vector<std::uint8_t> out;
        const std::uint64_t firstId = nextId_;
        for (std::uint64_t i = 0; i < count; ++i) {
            const kv::KvKey key = startKey + (i % span);
            net::appendPut(out, nextId_++, key,
                           kv::KvValue::tagged(key, payloadBase + i));
        }
        drainBulk(out, firstId, count, r);
        return r;
    }

    /** Pipeline GETs for keys startKey..startKey+count-1. */
    BulkResult
    bulkGet(kv::KvKey startKey, std::uint64_t count)
    {
        BulkResult r;
        std::vector<std::uint8_t> out;
        const std::uint64_t firstId = nextId_;
        for (std::uint64_t i = 0; i < count; ++i)
            net::appendGet(out, nextId_++, startKey + i);
        drainBulk(out, firstId, count, r);
        return r;
    }

  private:
    static Outcome
    classify(const net::Frame &resp)
    {
        switch (resp.op) {
        case net::Op::Ok:
            return Outcome::Ok;
        case net::Op::NotFound:
            return Outcome::NotFound;
        case net::Op::Busy:
            return Outcome::Busy;
        case net::Op::Err: {
            net::ErrCode code;
            std::string msg;
            if (!net::parseErr(resp, code, msg))
                return Outcome::OtherErr;
            if (code == net::ErrCode::Io)
                return Outcome::Io;
            if (code == net::ErrCode::ReadOnly)
                return Outcome::ReadOnly;
            return Outcome::OtherErr;
        }
        default:
            return Outcome::OtherErr;
        }
    }

    void
    drainBulk(const std::vector<std::uint8_t> &out,
              std::uint64_t firstId, std::uint64_t count, BulkResult &r)
    {
        if (!conn_.sendAll(out, r.err)) {
            r.broken = true;
            return;
        }
        for (std::uint64_t i = 0; i < count; ++i) {
            net::Frame resp;
            if (!conn_.recvFrame(resp, r.err)) {
                r.broken = true;
                return;
            }
            if (resp.id != firstId + i) {
                r.err = "bulk response id mismatch";
                r.broken = true;
                conn_.close();
                return;
            }
            if (resp.op == net::Op::Value) {
                ++r.ok; // a GET hit
                continue;
            }
            switch (classify(resp)) {
            case Outcome::Ok:
                ++r.ok;
                break;
            case Outcome::NotFound:
                ++r.notFound;
                break;
            case Outcome::Io:
                ++r.io;
                break;
            case Outcome::ReadOnly:
                ++r.readOnly;
                break;
            case Outcome::Busy:
                ++r.busy;
                break;
            default:
                ++r.otherErr;
                break;
            }
        }
    }

    net::BlockingClient conn_;
    std::uint64_t nextId_ = 1;
};

// ---------------------------------------------------------------------
// Durability verification: read back every acked write.
// ---------------------------------------------------------------------

struct SweepResult
{
    std::uint64_t checked = 0;
    std::uint64_t ok = 0;          ///< last acked value intact
    std::uint64_t okUnacked = 0;   ///< a later unacked overwrite won
    std::uint64_t ioAccounted = 0; ///< typed Err(Io) — accounted
    std::uint64_t missing = 0;     ///< NotFound: acked write vanished
    std::uint64_t staleAcked = 0;  ///< an OLDER acked value: rollback
    std::uint64_t wrongValue = 0;  ///< present but matches nothing sent
    std::uint64_t busyGaveUp = 0;  ///< still Busy after retries
    bool broken = false;
    std::string err;

    /**
     * staleAcked counts here too: recovery rolling a key back to an
     * older committed value is lost durability just like NotFound —
     * but unlike wrongValue it is a *rollback*, not corruption, so
     * scenarios that accept accounted loss (torn/quarantined > 0)
     * accept it while a garbage value remains unforgivable.
     */
    std::uint64_t
    violations() const
    {
        return missing + staleAcked + wrongValue + busyGaveUp;
    }

    std::string
    text() const
    {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "checked=%llu ok=%llu unackedWin=%llu io=%llu "
                      "missing=%llu stale=%llu wrong=%llu busy=%llu",
                      static_cast<unsigned long long>(checked),
                      static_cast<unsigned long long>(ok),
                      static_cast<unsigned long long>(okUnacked),
                      static_cast<unsigned long long>(ioAccounted),
                      static_cast<unsigned long long>(missing),
                      static_cast<unsigned long long>(staleAcked),
                      static_cast<unsigned long long>(wrongValue),
                      static_cast<unsigned long long>(busyGaveUp));
        return buf;
    }
};

/**
 * For every key the load run got a write ack for, GET it and demand
 * the last acked payload — or a later *unacked* overwrite of the same
 * key (the server may have applied a mutation whose ack died with the
 * connection), or a typed Err(Io) the caller decides to accept. A
 * value matching an *older* acked payload is classified staleAcked
 * (rollback: a violation, but an accountable one); a value matching
 * nothing ever sent for the key is wrongValue (corruption: never
 * acceptable).
 */
SweepResult
verifyAcked(ChaosClient &client, const net::LoadgenResult &load)
{
    SweepResult sweep;
    for (const auto &[key, payload] : load.ackedPuts) {
        ++sweep.checked;
        kv::KvValue value = {};
        ChaosClient::Outcome outcome = ChaosClient::Outcome::Busy;
        for (int attempt = 0;
             attempt < 10 && outcome == ChaosClient::Outcome::Busy;
             ++attempt) {
            if (attempt != 0)
                msleep(20);
            outcome = client.get(key, value, sweep.err);
        }
        switch (outcome) {
        case ChaosClient::Outcome::Value: {
            if (value == kv::KvValue::tagged(key, payload)) {
                ++sweep.ok;
                break;
            }
            bool matched = false;
            if (const auto it = load.unackedPuts.find(key);
                it != load.unackedPuts.end()) {
                for (const std::uint64_t alt : it->second) {
                    if (value == kv::KvValue::tagged(key, alt)) {
                        matched = true;
                        break;
                    }
                }
            }
            if (matched) {
                ++sweep.okUnacked;
                break;
            }
            // An OLDER acked payload is a rollback (recovery
            // discarded the newest committed value), not corruption.
            bool stale = false;
            if (const auto it = load.ackedPutHistory.find(key);
                it != load.ackedPutHistory.end()) {
                for (const std::uint64_t old : it->second) {
                    if (value == kv::KvValue::tagged(key, old)) {
                        stale = true;
                        break;
                    }
                }
            }
            stale ? ++sweep.staleAcked : ++sweep.wrongValue;
            break;
        }
        case ChaosClient::Outcome::NotFound:
            ++sweep.missing;
            break;
        case ChaosClient::Outcome::Io:
            ++sweep.ioAccounted;
            break;
        case ChaosClient::Outcome::Busy:
            ++sweep.busyGaveUp;
            break;
        case ChaosClient::Outcome::Broken:
            sweep.broken = true;
            return sweep;
        default:
            ++sweep.wrongValue;
            break;
        }
    }
    return sweep;
}

// ---------------------------------------------------------------------
// Offline inspection of the .pm files a crashed server left behind.
// ---------------------------------------------------------------------

struct PmAudit
{
    bool ok = false;
    unsigned shardsSeen = 0;
    std::uint64_t committed = 0;
    std::uint64_t torn = 0;
    std::uint64_t quarantined = 0;
    bool auditAgrees = true;
    std::string err;

    std::string
    text() const
    {
        char buf[192];
        std::snprintf(buf, sizeof(buf),
                      "shards=%u committed=%llu torn=%llu "
                      "quarantined=%llu audit=%s",
                      shardsSeen,
                      static_cast<unsigned long long>(committed),
                      static_cast<unsigned long long>(torn),
                      static_cast<unsigned long long>(quarantined),
                      auditAgrees ? "agree" : "DISAGREE");
        return buf;
    }
};

/**
 * Inspect + audit every shard-<n>.pm under @p pmDir. The backing
 * files are raw persistence-domain bytes (no image-file header), so
 * read them directly and rebuild offline devices from the raw image.
 */
PmAudit
auditPmDir(const std::string &pmDir, const std::string &runtime,
           unsigned threads)
{
    PmAudit audit;
    for (unsigned s = 0;; ++s) {
        const std::string path =
            pmDir + "/shard-" + std::to_string(s) + ".pm";
        std::ifstream f(path, std::ios::binary);
        if (!f)
            break;
        std::vector<std::uint8_t> image(
            (std::istreambuf_iterator<char>(f)),
            std::istreambuf_iterator<char>());
        if (image.empty()) {
            audit.err = path + ": empty image";
            return audit;
        }
        const auto dev = pmem::deviceFromImage(image);
        const forensic::InspectReport report =
            forensic::inspectImage(*dev, threads, path);
        audit.committed += report.committed;
        audit.torn += report.torn;
        audit.quarantined += report.quarantined;
        const forensic::AuditResult shard_audit =
            forensic::auditRecovery(image, runtime, threads, report);
        if (shard_audit.supported && !shard_audit.agrees)
            audit.auditAgrees = false;
        ++audit.shardsSeen;
    }
    if (audit.shardsSeen == 0) {
        audit.err = "no shard-*.pm images under " + pmDir;
        return audit;
    }
    audit.ok = true;
    return audit;
}

// ---------------------------------------------------------------------
// Scenario plumbing.
// ---------------------------------------------------------------------

struct ScenarioOutcome
{
    std::string name;
    bool pass = false;
    std::string detail;
    double seconds = 0;
};

ScenarioOutcome
fail(const std::string &name, const std::string &detail)
{
    return {name, false, detail, 0};
}

ScenarioOutcome
pass(const std::string &name, const std::string &detail)
{
    return {name, true, detail, 0};
}

/** Resilient-client load config every chaos scenario starts from. */
net::LoadgenConfig
chaosLoadConfig(std::uint16_t port, std::uint64_t seed,
                std::uint64_t keys, double qps, double seconds)
{
    net::LoadgenConfig cfg;
    cfg.port = port;
    cfg.seed = seed;
    cfg.workload.keys = keys;
    cfg.workload.mix = kv::Mix::A;
    cfg.targetQps = qps;
    cfg.seconds = seconds;
    cfg.loadFirst = true;
    cfg.requestTimeoutMs = 300;
    cfg.maxRetries = 3;
    cfg.reconnect = true;
    cfg.backoffBaseMs = 10;
    cfg.backoffMaxMs = 200;
    return cfg;
}

std::string
loadText(const net::LoadgenResult &r)
{
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "acked=%llu errors=%llu timeouts=%llu retries=%llu "
        "reconnects=%llu busy=%llu lost=%llu",
        static_cast<unsigned long long>(r.acked),
        static_cast<unsigned long long>(r.errors),
        static_cast<unsigned long long>(r.timeouts),
        static_cast<unsigned long long>(r.retries),
        static_cast<unsigned long long>(r.reconnects),
        static_cast<unsigned long long>(r.busyResponses),
        static_cast<unsigned long long>(r.lost));
    return buf;
}

// ---------------------------------------------------------------------
// Scenarios.
// ---------------------------------------------------------------------

/**
 * Shared body for the two live media-fault scenarios: serve with a
 * seeded fault plan deferred into mid-traffic, drive load, then
 * verify every acked write reads back or errors with typed Io, and
 * that the media metrics actually fired.
 */
ScenarioOutcome
mediaScenario(const HarnessConfig &cfg, const std::string &name,
              const std::string &fault_flag,
              const std::string &required_metric)
{
    const std::string pm_dir = cfg.workdir + "/" + name + "_pm";
    fs::create_directories(pm_dir);
    std::string err;
    ServerHandle server = launchServer(
        cfg, name,
        {"--shards=4", "--keys=1024", "--pm-dir=" + pm_dir,
         "--pool-bytes=8388608",
         "--fault-seed=" + std::to_string(cfg.seed), fault_flag,
         "--fault-delay-ms=400", "--fault-region-start=65536"},
        err);
    if (server.pid < 0)
        return fail(name, "launch: " + err);

    const net::LoadgenResult load = net::runOpenLoop(
        chaosLoadConfig(server.port, cfg.seed, 1024, 8000, 1.5));
    if (load.aborted) {
        stopServer(server);
        return fail(name, "load aborted: " + load.error);
    }
    if (!server.alive())
        return fail(name, "server died under media faults; see " +
                              server.logPath);

    ChaosClient client;
    if (!client.connectTo(server.port, err)) {
        stopServer(server);
        return fail(name, "verify connect: " + err);
    }
    const SweepResult sweep = verifyAcked(client, load);
    client.close();
    stopServer(server);
    if (sweep.broken)
        return fail(name, "verify sweep broke: " + sweep.err);
    if (sweep.missing != 0 || sweep.wrongValue != 0 ||
        sweep.busyGaveUp != 0)
        return fail(name, "acked writes unaccounted: " + sweep.text());

    const double injected =
        metricSum(server.metricsPath,
                    "specpmt_pm_media_faults_injected_total");
    if (injected < 1)
        return fail(name, "fault plan never applied (injected=" +
                              std::to_string(injected) + ")");
    const double required = metricSum(server.metricsPath,
                                        required_metric);
    if (required < 1)
        return fail(name, required_metric + " stayed zero — faults "
                                            "never bit");
    return pass(name, loadText(load) + " | " + sweep.text());
}

ScenarioOutcome
scenarioMediaPoison(const HarnessConfig &cfg)
{
    // Poisoned lines throw on *read*; the log/data read paths cross
    // them during transactions and recovery scans. Gate on the
    // error counter so the scenario proves reads actually tripped.
    return mediaScenario(cfg, "media_poison", "--fault-poison=192",
                         "specpmt_pm_media_read_errors_total");
}

ScenarioOutcome
scenarioMediaEio(const HarnessConfig &cfg)
{
    return mediaScenario(cfg, "media_eio", "--fault-eio=192",
                         "specpmt_pm_media_write_errors_total");
}

ScenarioOutcome
scenarioLatentCorruption(const HarnessConfig &cfg)
{
    const std::string name = "latent_corruption";
    const std::string pm_dir = cfg.workdir + "/" + name + "_pm";
    fs::create_directories(pm_dir);
    std::string err;
    ServerHandle server = launchServer(
        cfg, name,
        {"--shards=4", "--keys=1024", "--pm-dir=" + pm_dir,
         "--pool-bytes=8388608",
         "--fault-seed=" + std::to_string(cfg.seed),
         "--fault-corrupt=12", "--fault-delay-ms=500",
         "--fault-region-start=65536"},
        err);
    if (server.pid < 0)
        return fail(name, "launch: " + err);

    const net::LoadgenResult load = net::runOpenLoop(
        chaosLoadConfig(server.port, cfg.seed, 1024, 8000, 1.5));
    if (load.aborted) {
        stopServer(server);
        return fail(name, "load aborted: " + load.error);
    }
    // Crash hard: the silent bit flips must be caught by the CRC
    // seals at recovery, not papered over by a clean shutdown.
    killServer(server);

    // Snapshot the corrupted post-crash images: the revived server's
    // recovery discards torn records in-place, so without a copy the
    // kept workdir would only ever show the cleaned-up aftermath
    // (`specchaos --inspect` on the snapshot shows the damage).
    const std::string crash_dir = cfg.workdir + "/" + name + "_crash";
    {
        std::error_code ec;
        fs::remove_all(crash_dir, ec);
        fs::create_directories(crash_dir, ec);
        for (const auto &entry : fs::directory_iterator(pm_dir)) {
            fs::copy_file(entry.path(),
                          fs::path(crash_dir) /
                              entry.path().filename(),
                          ec);
            if (ec)
                return fail(name, "snapshot " +
                                      entry.path().filename().string() +
                                      ": " + ec.message());
        }
    }

    const PmAudit audit = auditPmDir(crash_dir, "spec", 4);
    if (!audit.ok)
        return fail(name, "offline audit: " + audit.err);
    if (!audit.auditAgrees)
        return fail(name, "inspector and recovery disagree: " +
                              audit.text());

    ServerHandle revived = launchServer(
        cfg, name + "_revived",
        {"--shards=4", "--keys=1024", "--pm-dir=" + pm_dir,
         "--pool-bytes=8388608"},
        err);
    if (revived.pid < 0)
        return fail(name, "restart over corrupt images: " + err);
    ChaosClient client;
    if (!client.connectTo(revived.port, err)) {
        stopServer(revived);
        return fail(name, "verify connect: " + err);
    }
    const SweepResult sweep = verifyAcked(client, load);
    client.close();
    stopServer(revived);
    if (sweep.broken)
        return fail(name, "verify sweep broke: " + sweep.err);
    // The crown-jewel invariant: a flipped bit must NEVER be served
    // as a value — every flip has a CRC seal to defeat, so silent
    // corruption reaching a client is an outright failure.
    if (sweep.wrongValue != 0)
        return fail(name, "silently corrupt values served: " +
                              sweep.text());
    // Media corruption may destroy durable state (a flip in a log
    // record's header can make the rest of the chain unwalkable, and
    // recovery rolls back to the last walkable prefix). What the
    // contract demands is *accounting*: any acked write that no
    // longer reads back must be visible in the forensic report as a
    // quarantined segment or an interior-torn chain.
    if (sweep.violations() != 0 &&
        audit.quarantined + audit.torn == 0)
        return fail(name, "acked writes lost with nothing "
                          "quarantined or torn: " +
                              sweep.text() + " | " + audit.text());
    return pass(name, sweep.text() + " | " + audit.text());
}

ScenarioOutcome
scenarioLogExhaustion(const HarnessConfig &cfg)
{
    const std::string name = "log_exhaustion";
    std::string err;
    // A deliberately tiny pool: sustained updates must run the
    // append-only log out of space and trip read-only degraded mode.
    ServerHandle server = launchServer(
        cfg, name, {"--shards=2", "--keys=512", "--pool-bytes=2097152"},
        err);
    if (server.pid < 0)
        return fail(name, "launch: " + err);

    ChaosClient client;
    if (!client.connectTo(server.port, err)) {
        stopServer(server);
        return fail(name, "connect: " + err);
    }
    std::uint64_t acked = 0;
    std::uint64_t read_only = 0;
    std::uint64_t payload = 1;
    for (int round = 0; round < 800 && read_only == 0; ++round) {
        const ChaosClient::BulkResult r =
            client.bulkPut(1, 512, 256, payload);
        payload += 256;
        acked += r.ok;
        read_only += r.readOnly;
        if (r.broken) {
            stopServer(server);
            return fail(name, "write hammer broke: " + r.err);
        }
    }
    if (read_only == 0) {
        stopServer(server);
        return fail(name, "pool never exhausted after " +
                              std::to_string(acked) + " acked puts");
    }

    // Degraded, not dead: reads must still be served...
    const ChaosClient::BulkResult reads = client.bulkGet(1, 512);
    if (reads.broken || reads.io != 0 || reads.otherErr != 0) {
        stopServer(server);
        return fail(name, "reads failing on degraded shard: " +
                              reads.err);
    }
    if (acked > 0 && reads.ok == 0) {
        stopServer(server);
        return fail(name, "acked puts but no readable values");
    }
    // ...and mutations must keep being refused, not wedged.
    const ChaosClient::BulkResult probe = client.bulkPut(1, 32, 64, 1);
    if (probe.broken) {
        stopServer(server);
        return fail(name, "post-exhaustion probe broke: " + probe.err);
    }
    if (probe.readOnly == 0) {
        stopServer(server);
        return fail(name, "read-only mode did not stick");
    }
    client.close();
    const bool alive = server.alive();
    stopServer(server);
    if (!alive)
        return fail(name, "server died on exhaustion");
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "acked=%llu firstReadOnlyAfter=%llu reads_ok=%llu "
                  "sticky_readonly=%llu",
                  static_cast<unsigned long long>(acked),
                  static_cast<unsigned long long>(acked),
                  static_cast<unsigned long long>(reads.ok),
                  static_cast<unsigned long long>(probe.readOnly));
    return pass(name, buf);
}

ScenarioOutcome
scenarioSigkill(const HarnessConfig &cfg)
{
    const std::string name = "sigkill";
    const std::string pm_dir = cfg.workdir + "/" + name + "_pm";
    fs::create_directories(pm_dir);
    std::string err;
    ServerHandle server = launchServer(
        cfg, name,
        {"--shards=4", "--keys=2048", "--pm-dir=" + pm_dir,
         "--pool-bytes=16777216"},
        err);
    if (server.pid < 0)
        return fail(name, "launch: " + err);

    // Kill mid-traffic, snapshot the post-crash images for the
    // offline audit, and restart on the SAME port while the load
    // window is still open: the resilient client must ride through
    // the outage on failed re-dials and land a real reconnect once
    // the revived server's listener is back.
    const std::string crash_dir = cfg.workdir + "/" + name + "_crash";
    ServerHandle revived;
    std::string restart_err;
    std::thread killer([&] {
        msleep(1200);
        killServer(server);
        std::error_code ec;
        fs::remove_all(crash_dir, ec);
        fs::create_directories(crash_dir, ec);
        for (const auto &entry : fs::directory_iterator(pm_dir)) {
            fs::copy_file(entry.path(),
                          fs::path(crash_dir) /
                              entry.path().filename(),
                          ec);
            if (ec) {
                restart_err = "snapshot " +
                              entry.path().filename().string() + ": " +
                              ec.message();
                return;
            }
        }
        revived = launchServer(
            cfg, name + "_revived",
            {"--shards=4", "--keys=2048", "--pm-dir=" + pm_dir,
             "--pool-bytes=16777216",
             "--port=" + std::to_string(server.port)},
            restart_err);
    });
    const net::LoadgenResult load = net::runOpenLoop(
        chaosLoadConfig(server.port, cfg.seed, 2048, 12000, 4.0));
    killer.join();
    if (!restart_err.empty() || revived.pid < 0) {
        stopServer(revived);
        return fail(name, "mid-load restart: " + restart_err);
    }
    if (load.aborted) {
        stopServer(revived);
        return fail(name, "load aborted: " + load.error);
    }
    if (load.ackedPuts.empty()) {
        stopServer(revived);
        return fail(name, "no writes acked before the kill");
    }
    // A restart inside the load window must leave a reconnect trace;
    // zero means the client never re-dialed the revived server and
    // the post-restart half of the run proved nothing.
    if (load.reconnects == 0) {
        stopServer(revived);
        return fail(name, "restart left no reconnect trace: " +
                              loadText(load));
    }

    const PmAudit audit = auditPmDir(crash_dir, "spec", 4);
    if (!audit.ok) {
        stopServer(revived);
        return fail(name, "offline audit: " + audit.err);
    }
    if (!audit.auditAgrees) {
        stopServer(revived);
        return fail(name, "inspector and recovery disagree: " +
                              audit.text());
    }

    ChaosClient client;
    if (!client.connectTo(revived.port, err)) {
        stopServer(revived);
        return fail(name, "verify connect: " + err);
    }
    const SweepResult sweep = verifyAcked(client, load);
    client.close();
    stopServer(revived);
    if (sweep.broken)
        return fail(name, "verify sweep broke: " + sweep.err);
    // No media faults here, so there is no "accounted" escape hatch:
    // an acked write that recovery lost is a durability bug, full
    // stop.
    if (sweep.violations() != 0 || sweep.ioAccounted != 0)
        return fail(name, "acked writes lost across SIGKILL: " +
                              sweep.text() + " | " + audit.text());
    return pass(name, loadText(load) + " | " + sweep.text() + " | " +
                          audit.text());
}

ScenarioOutcome
scenarioSigstop(const HarnessConfig &cfg)
{
    const std::string name = "sigstop";
    std::string err;
    ServerHandle server =
        launchServer(cfg, name, {"--shards=4", "--keys=1024"}, err);
    if (server.pid < 0)
        return fail(name, "launch: " + err);

    std::thread staller([&server] {
        msleep(800);
        ::kill(server.pid, SIGSTOP);
        msleep(700);
        ::kill(server.pid, SIGCONT);
    });
    const net::LoadgenResult load = net::runOpenLoop(
        chaosLoadConfig(server.port, cfg.seed, 1024, 6000, 2.5));
    staller.join();
    if (load.aborted) {
        stopServer(server);
        return fail(name, "load aborted: " + load.error);
    }
    if (!server.alive())
        return fail(name, "server dead after SIGCONT");
    if (load.acked == 0) {
        stopServer(server);
        return fail(name, "nothing acked");
    }
    // A 700ms stall against 300ms deadlines must surface as timeouts;
    // a run with none means the chaos never landed.
    if (load.timeouts + load.retries == 0) {
        stopServer(server);
        return fail(name, "stall left no timeout/retry trace: " +
                              loadText(load));
    }
    ChaosClient client;
    if (!client.connectTo(server.port, err)) {
        stopServer(server);
        return fail(name, "verify connect: " + err);
    }
    const SweepResult sweep = verifyAcked(client, load);
    client.close();
    stopServer(server);
    if (sweep.broken)
        return fail(name, "verify sweep broke: " + sweep.err);
    if (sweep.violations() != 0 || sweep.ioAccounted != 0)
        return fail(name, "acked writes lost across a stall: " +
                              sweep.text());
    return pass(name, loadText(load) + " | " + sweep.text());
}

ScenarioOutcome
scenarioConnReset(const HarnessConfig &cfg)
{
    const std::string name = "conn_reset";
    std::string err;
    ServerHandle server =
        launchServer(cfg, name, {"--shards=2", "--keys=512"}, err);
    if (server.pid < 0)
        return fail(name, "launch: " + err);

    ChaosClient writer;
    if (!writer.connectTo(server.port, err)) {
        stopServer(server);
        return fail(name, "connect: " + err);
    }
    const ChaosClient::BulkResult seeded = writer.bulkPut(1, 512, 512, 7);
    writer.close();
    if (seeded.broken || seeded.ok != 512) {
        stopServer(server);
        return fail(name, "seeding failed: " + seeded.err);
    }

    // Rogue connections write raw bytes over net::BlockingClient
    // without its HELLO; a 2 s bound keeps a silent server from
    // stalling the scenario.
    net::BlockingClient rogue;
    net::Frame frame;
    std::string rogue_err;
    const auto dialRogue = [&] {
        return rogue.connect("127.0.0.1", server.port, rogue_err, 2000);
    };

    // Rogue 1: pure garbage — the server must diagnose a protocol
    // error and close, not crash or hang.
    if (dialRogue()) {
        (void)rogue.sendAll(std::vector<std::uint8_t>(64, 0xDE),
                            rogue_err);
        while (rogue.recvFrame(frame, rogue_err)) {
        }
    }

    // Rogue 2: an oversized length prefix — must trip the frame cap,
    // not make the server buffer a bogus multi-megabyte frame.
    if (dialRogue()) {
        (void)rogue.sendAll({0, 0, 0x20, 0, 0xC5, 1, 2, 0}, rogue_err);
        while (rogue.recvFrame(frame, rogue_err)) {
        }
    }

    // Rogue 3 (×5): a well-formed pipeline of GETs answered with a
    // hard RST (SO_LINGER 0) mid-response — the mid-write reset the
    // SIGPIPE/MSG_NOSIGNAL hardening exists for.
    for (int round = 0; round < 5; ++round) {
        if (!dialRogue())
            continue;
        std::vector<std::uint8_t> out;
        std::uint64_t id = 1;
        net::appendHello(out, id++, net::kAnyShard);
        for (int i = 0; i < 1024; ++i)
            net::appendGet(out, id++, 1 + (i % 512));
        (void)rogue.sendAll(out, rogue_err);
        (void)rogue.recvFrame(frame, rogue_err); // responses started
        rogue.resetHard(); // RST while the server is still writing
    }
    msleep(200);

    if (!server.alive())
        return fail(name, "server died under rogue clients; see " +
                              server.logPath);
    ChaosClient reader;
    if (!reader.connectTo(server.port, err)) {
        stopServer(server);
        return fail(name, "post-chaos connect: " + err);
    }
    const ChaosClient::BulkResult reads = reader.bulkGet(1, 512);
    reader.close();
    stopServer(server);
    if (reads.broken || reads.ok != 512)
        return fail(name, "post-chaos reads degraded (ok=" +
                              std::to_string(reads.ok) + "/512): " +
                              reads.err);
    return pass(name, "seeded=512 rogue_rounds=7 post_reads_ok=512");
}

// ---------------------------------------------------------------------
// Harness main.
// ---------------------------------------------------------------------

struct Scenario
{
    const char *name;
    const char *summary;
    ScenarioOutcome (*fn)(const HarnessConfig &);
};

const Scenario kScenarios[] = {
    {"media_poison", "poisoned-read lines mid-traffic; typed Io, "
                     "acked data accounted",
     scenarioMediaPoison},
    {"media_eio", "write-EIO lines mid-traffic; clean tx aborts",
     scenarioMediaEio},
    {"latent_corruption", "silent bit flips + SIGKILL; CRC quarantine "
                          "and audit agreement",
     scenarioLatentCorruption},
    {"log_exhaustion", "tiny pool; read-only degraded mode, reads "
                       "stay up",
     scenarioLogExhaustion},
    {"sigkill", "SIGKILL + same-port restart mid-load; reconnect, "
                "zero acked writes lost",
     scenarioSigkill},
    {"sigstop", "SIGSTOP/SIGCONT stall; client rides it out on "
                "timeouts/retries",
     scenarioSigstop},
    {"conn_reset", "garbage, oversized frames and mid-response RSTs; "
                   "server unharmed",
     scenarioConnReset},
};

std::string
defaultSpeckv(const char *argv0)
{
    const std::string self = argv0;
    const std::size_t slash = self.find_last_of('/');
    if (slash == std::string::npos)
        return "./speckv";
    return self.substr(0, slash) + "/speckv";
}

} // namespace

int
main(int argc, char **argv)
{
    std::signal(SIGPIPE, SIG_IGN); // rogue clients write into RSTs

    HarnessConfig cfg;
    cfg.speckv = defaultSpeckv(argv[0]);
    std::vector<std::string> selected;
    std::string json_path;
    std::string metrics_out;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *prefix) -> const char * {
            const std::size_t n = std::string(prefix).size();
            return arg.rfind(prefix, 0) == 0 ? arg.c_str() + n
                                             : nullptr;
        };
        if (const char *v = value("--scenario=")) {
            std::string list = v;
            std::size_t pos = 0;
            while (pos != std::string::npos) {
                const std::size_t comma = list.find(',', pos);
                selected.push_back(list.substr(
                    pos, comma == std::string::npos ? comma
                                                    : comma - pos));
                pos = comma == std::string::npos ? comma : comma + 1;
            }
        } else if (const char *v = value("--seed="))
            cfg.seed = std::strtoull(v, nullptr, 10);
        else if (const char *v = value("--speckv="))
            cfg.speckv = v;
        else if (const char *v = value("--workdir="))
            cfg.workdir = v;
        else if (const char *v = value("--json="))
            json_path = v;
        else if (const char *v = value("--metrics-out="))
            metrics_out = v;
        else if (arg == "--keep")
            cfg.keep = true;
        else if (const char *v = value("--inspect=")) {
            // Debug aid: dump the offline inspection of a pm dir a
            // scenario left behind (raw .pm images, no file header).
            for (unsigned s = 0;; ++s) {
                const std::string path = std::string(v) + "/shard-" +
                                         std::to_string(s) + ".pm";
                std::ifstream f(path, std::ios::binary);
                if (!f)
                    break;
                std::vector<std::uint8_t> image(
                    (std::istreambuf_iterator<char>(f)),
                    std::istreambuf_iterator<char>());
                const auto dev = pmem::deviceFromImage(image);
                std::printf("%s\n",
                            forensic::inspectImage(*dev, 4, path)
                                .toText()
                                .c_str());
            }
            return 0;
        }
        else if (arg == "--list") {
            for (const Scenario &s : kScenarios)
                std::printf("%-18s %s\n", s.name, s.summary);
            return 0;
        } else
            SPECPMT_FATAL("unknown argument: %s", arg.c_str());
    }

    if (::access(cfg.speckv.c_str(), X_OK) != 0)
        SPECPMT_FATAL("speckv binary not executable at %s "
                      "(use --speckv=)",
                      cfg.speckv.c_str());

    bool made_workdir = false;
    if (cfg.workdir.empty()) {
        char tmpl[] = "/tmp/specchaos.XXXXXX";
        if (::mkdtemp(tmpl) == nullptr)
            SPECPMT_FATAL("mkdtemp: %s", std::strerror(errno));
        cfg.workdir = tmpl;
        made_workdir = true;
    } else {
        fs::create_directories(cfg.workdir);
    }

    if (selected.empty())
        for (const Scenario &s : kScenarios)
            selected.push_back(s.name);

    std::printf("specchaos: seed=%llu workdir=%s speckv=%s\n",
                static_cast<unsigned long long>(cfg.seed),
                cfg.workdir.c_str(), cfg.speckv.c_str());

    std::vector<ScenarioOutcome> outcomes;
    for (const std::string &want : selected) {
        const Scenario *scenario = nullptr;
        for (const Scenario &s : kScenarios)
            if (want == s.name)
                scenario = &s;
        if (scenario == nullptr)
            SPECPMT_FATAL("unknown scenario %s (try --list)",
                          want.c_str());
        std::printf("[%s] %s\n", scenario->name, scenario->summary);
        std::fflush(stdout);
        const auto start = std::chrono::steady_clock::now();
        ScenarioOutcome outcome = scenario->fn(cfg);
        outcome.seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
        std::printf("[%s] %s (%.1fs) %s\n", outcome.name.c_str(),
                    outcome.pass ? "PASS" : "FAIL", outcome.seconds,
                    outcome.detail.c_str());
        std::fflush(stdout);
        outcomes.push_back(std::move(outcome));
    }

    // The harness process hosts the resilient load generator, so its
    // global registry carries the client-side chaos counters
    // (specpmt_loadgen_retries/timeouts/reconnects/busy) accumulated
    // across every scenario — dump them for `specstat check` gates.
    if (!metrics_out.empty() &&
        !obs::Registry::global().writePrometheus(metrics_out))
        SPECPMT_FATAL("cannot write %s", metrics_out.c_str());

    bool all_pass = true;
    std::printf("\nspecchaos matrix:\n");
    for (const ScenarioOutcome &o : outcomes) {
        std::printf("  %-18s %s\n", o.name.c_str(),
                    o.pass ? "PASS" : "FAIL");
        all_pass = all_pass && o.pass;
    }

    if (!json_path.empty()) {
        FILE *f = std::fopen(json_path.c_str(), "w");
        if (f == nullptr)
            SPECPMT_FATAL("cannot write %s", json_path.c_str());
        std::fprintf(f, "{\n  \"seed\": %llu,\n  \"scenarios\": [\n",
                     static_cast<unsigned long long>(cfg.seed));
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            std::string detail = outcomes[i].detail;
            for (char &c : detail)
                if (c == '"' || c == '\\')
                    c = '\'';
            std::fprintf(
                f,
                "    {\"name\": \"%s\", \"pass\": %s, "
                "\"seconds\": %.1f, \"detail\": \"%s\"}%s\n",
                outcomes[i].name.c_str(),
                outcomes[i].pass ? "true" : "false",
                outcomes[i].seconds, detail.c_str(),
                i + 1 == outcomes.size() ? "" : ",");
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
    }

    if (all_pass && made_workdir && !cfg.keep) {
        std::error_code ec;
        fs::remove_all(cfg.workdir, ec);
    } else if (!all_pass) {
        std::printf("artifacts kept under %s\n", cfg.workdir.c_str());
    }
    std::printf("specchaos: %s\n", all_pass ? "OK" : "FAIL");
    return all_pass ? 0 : 1;
}
