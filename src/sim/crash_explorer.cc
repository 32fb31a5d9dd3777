#include "sim/crash_explorer.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "common/flags.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/rand.hh"
#include "core/spec_tx.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/hybrid_spec_tx.hh"
#include "txn/spht_tx.hh"

namespace specpmt::sim
{

namespace
{

/** Slot-array scenario device capacity. */
constexpr std::size_t kSlotDeviceBytes = 8u << 20;

std::string
formatDouble(double value)
{
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

} // namespace

std::uint64_t
hashDeviceImage(const pmem::PmemDevice &device)
{
    // FNV-1a, folded a word at a time (the images are megabytes and
    // hashed once per crash point, so byte-at-a-time would dominate
    // exploration cost). A device is a whole number of lines.
    const std::uint8_t *image = device.persistentRaw();
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (std::size_t off = 0; off < device.size(); off += 8) {
        std::uint64_t word;
        std::memcpy(&word, image + off, 8);
        hash = (hash ^ word) * 0x100000001b3ull;
    }
    return hash;
}

pmem::CrashPolicy
CrashCell::policyAt(std::uint64_t event) const
{
    pmem::CrashMode mode = pmem::CrashMode::NothingExtra;
    parseCrashMode(policy, mode);
    pmem::CrashPolicy result;
    result.mode = mode;
    result.persistProbability = persistProbability;
    // Per-point seed derived from the cell seed, so the token alone
    // reproduces the RandomSubset draw.
    result.seed = mix64(seed ^ event);
    return result;
}

std::string
CrashCell::token(std::uint64_t event) const
{
    std::string out = "cmx1";
    auto put = [&out](const char *key, const std::string &value) {
        out += ';';
        out += key;
        out += '=';
        out += value;
    };
    put("rt", runtime);
    put("wl", workload);
    put("pol", policy);
    put("p", formatDouble(persistProbability));
    put("seed", std::to_string(seed));
    put("fault", fault);
    put("slots", std::to_string(slots));
    put("tx", std::to_string(txCount));
    put("st", std::to_string(maxStoresPerTx));
    put("rec", std::to_string(reclaimEvery));
    put("shards", std::to_string(kvShards));
    put("keys", std::to_string(kvKeys));
    put("ops", std::to_string(kvOps));
    // Emitted only when set so pre-epoch tokens stay byte-identical.
    if (kvEpochOps != 0)
        put("epoch", std::to_string(kvEpochOps));
    put("scale", formatDouble(scale));
    put("ev", std::to_string(event));
    return out;
}

bool
CrashCell::parseToken(std::string_view token, CrashCell &cell,
                      std::uint64_t &event, std::string &error)
{
    // After the "cmx1" tag, each `key=value` field is a flag without
    // its dashes.
    std::vector<std::string> fields;
    for (std::size_t pos = 0; pos <= token.size();) {
        const std::size_t end = std::min(token.find(';', pos), token.size());
        fields.push_back("--" + std::string(token.substr(pos, end - pos)));
        pos = end + 1;
    }
    if (fields.front() != "--cmx1") {
        error = "not a cmx1 replay token";
        return false;
    }
    std::vector<const char *> argv;
    for (const std::string &field : fields)
        argv.push_back(field.c_str());
    CrashCell parsed;
    Flags flags;
    flags.text("--rt", parsed.runtime)
        .text("--wl", parsed.workload)
        .text("--pol", parsed.policy)
        .real("--p", parsed.persistProbability, 0, 1)
        .count("--seed", parsed.seed)
        .text("--fault", parsed.fault)
        .count("--slots", parsed.slots, 1)
        .count("--tx", parsed.txCount)
        .count("--st", parsed.maxStoresPerTx, 1)
        .count("--rec", parsed.reclaimEvery)
        .count("--shards", parsed.kvShards, 1)
        .count("--keys", parsed.kvKeys, 1)
        .count("--ops", parsed.kvOps)
        .count("--epoch", parsed.kvEpochOps)
        .real("--scale", parsed.scale)
        .count("--ev", event);
    error = flags.parse(static_cast<int>(argv.size()), argv.data());
    if (!error.empty())
        return false;
    if (std::none_of(fields.begin(), fields.end(), [](const auto &field) {
            return field.starts_with("--ev=");
        })) {
        error = "token is missing the event id";
        return false;
    }
    pmem::CrashMode mode;
    if (!parseCrashMode(parsed.policy, mode)) {
        error = "unknown crash policy: " + parsed.policy;
        return false;
    }
    if (parsed.fault != "none" && parsed.fault != "drop-fences") {
        error = "unknown fault: " + parsed.fault;
        return false;
    }
    cell = parsed;
    return true;
}

std::unique_ptr<txn::TxRuntime>
makeCrashRuntime(std::string_view name, pmem::PmemPool &pool,
                 unsigned threads)
{
    if (name == "hybrid") {
        HybridConfig config;
        config.hotCounterMax = 3;
        config.epochMaxBytes = 16 * 1024;
        config.epochMaxPages = 8;
        return std::make_unique<HybridSpecTx>(pool, threads, config);
    }
    if (!txn::isRecoverableRuntimeName(name)) {
        throw std::runtime_error(
            "crash exploration needs a recoverable runtime, got: " +
            std::string(name));
    }
    // Deterministic crash-test options: no background threads, small
    // log blocks to force block chaining inside the crash window.
    txn::RuntimeOptions options;
    options.backgroundWorkers = false;
    options.specLogBlockSize = 256;
    return txn::makeRuntime(name, pool, threads, options);
}

const std::vector<std::string> &
crashRuntimeNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> all = txn::recoverableRuntimeNames();
        all.push_back("hybrid");
        return all;
    }();
    return names;
}

bool
isCrashRuntimeName(std::string_view name)
{
    const auto &names = crashRuntimeNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

SlotScenario::SlotScenario(const CrashCell &cell)
    : cell_(cell), dev_(kSlotDeviceBytes), pool_(dev_)
{
    runtime_ = makeCrashRuntime(cell_.runtime, pool_, 1);
    // Slot array, published via a root so the scenario is honest
    // about how a real application would rediscover its data.
    dataOff_ = pool_.alloc(cell_.slots * sizeof(std::uint64_t));
    pool_.setRoot(txn::kAppRootSlotBase, dataOff_);

    // Initialize every slot through committed transactions so each
    // datum enters the durable world with a log record.
    for (unsigned base = 0; base < cell_.slots; base += 16) {
        runtime_->txBegin(0);
        for (unsigned i = base;
             i < std::min(base + 16, cell_.slots); ++i) {
            runtime_->txStoreT<std::uint64_t>(
                0, slotOff(i), static_cast<std::uint64_t>(i));
        }
        runtime_->txCommit(0);
    }
    for (unsigned i = 0; i < cell_.slots; ++i)
        committed_[i] = i;
    if (cell_.fault == "drop-fences")
        dev_.injectFault(pmem::DeviceFault::DropFences);
}

PmOff
SlotScenario::slotOff(unsigned slot) const
{
    return dataOff_ + slot * sizeof(std::uint64_t);
}

std::vector<CrashDevice>
SlotScenario::devices()
{
    return {{"slots", &dev_, 1}};
}

void
SlotScenario::run()
{
    Rng rng(cell_.seed);
    for (unsigned t = 0; t < cell_.txCount; ++t) {
        staged_.clear();
        runtime_->txBegin(0);
        const unsigned stores =
            1 + static_cast<unsigned>(rng.below(cell_.maxStoresPerTx));
        for (unsigned i = 0; i < stores; ++i) {
            const auto slot =
                static_cast<unsigned>(rng.below(cell_.slots));
            const std::uint64_t value = rng.next() | 1;
            runtime_->txStoreT<std::uint64_t>(0, slotOff(slot), value);
            staged_[slot] = value;
        }
        runtime_->txCommit(0);
        for (const auto &[slot, value] : staged_)
            committed_[slot] = value;
        staged_.clear();

        if (cell_.reclaimEvery != 0 && (t + 1) % cell_.reclaimEvery == 0) {
            if (auto *spec = dynamic_cast<core::SpecTx *>(runtime_.get()))
                spec->reclaimNow();
        }
    }
}

void
SlotScenario::crash(const pmem::CrashPolicy &policy)
{
    runtime_.reset(); // the old process is gone
    dev_.simulateCrash(policy);
    pool_.reopenAfterCrash();
}

void
SlotScenario::recover()
{
    runtime_ = makeCrashRuntime(cell_.runtime, pool_, 1);
    dataOff_ = pool_.getRoot(txn::kAppRootSlotBase);
    runtime_->recover();
}

std::string
SlotScenario::check()
{
    bool matches_committed = true;
    bool matches_overlay = true;
    for (unsigned i = 0; i < cell_.slots; ++i) {
        const auto actual = dev_.loadT<std::uint64_t>(slotOff(i));
        const std::uint64_t want_committed = committed_.at(i);
        std::uint64_t want_overlay = want_committed;
        if (auto it = staged_.find(i); it != staged_.end())
            want_overlay = it->second;
        if (actual != want_committed)
            matches_committed = false;
        if (actual != want_overlay)
            matches_overlay = false;
    }
    if (matches_committed || matches_overlay)
        return {};
    std::string failure = "partial transaction visible: ";
    for (unsigned i = 0; i < cell_.slots; ++i) {
        const auto actual = dev_.loadT<std::uint64_t>(slotOff(i));
        if (actual != committed_.at(i)) {
            failure += "slot " + std::to_string(i) + "=" +
                       std::to_string(actual) + " (committed " +
                       std::to_string(committed_.at(i)) + ") ";
        }
    }
    return failure;
}

std::string
SlotScenario::checkContinuation()
{
    rebaseline();
    runMore(12, cell_.seed ^ 0x9e37ull);
    if (auto msg = verifyExact(); !msg.empty())
        return "continuation: " + msg;
    crash(pmem::CrashPolicy::nothing());
    recover();
    if (auto msg = verifyExact(); !msg.empty())
        return "second crash: " + msg;
    return {};
}

void
SlotScenario::rebaseline()
{
    for (unsigned i = 0; i < cell_.slots; ++i)
        committed_[i] = dev_.loadT<std::uint64_t>(slotOff(i));
    staged_.clear();
}

void
SlotScenario::runMore(unsigned count, std::uint64_t seed)
{
    Rng rng(seed);
    for (unsigned t = 0; t < count; ++t) {
        runtime_->txBegin(0);
        const unsigned stores =
            1 + static_cast<unsigned>(
                    rng.below(cell_.maxStoresPerTx));
        for (unsigned i = 0; i < stores; ++i) {
            const auto slot =
                static_cast<unsigned>(rng.below(cell_.slots));
            const std::uint64_t value = rng.next() | 1;
            runtime_->txStoreT<std::uint64_t>(0, slotOff(slot),
                                              value);
            committed_[slot] = value;
        }
        runtime_->txCommit(0);
    }
    // The redo baseline applies data out of place; drain it so device
    // reads observe the committed state.
    if (auto *spht = dynamic_cast<txn::SphtTx *>(runtime_.get()))
        spht->drainReplayer();
}

std::string
SlotScenario::verifyExact() const
{
    for (unsigned i = 0; i < cell_.slots; ++i) {
        const auto actual = dev_.loadT<std::uint64_t>(slotOff(i));
        if (actual != committed_.at(i)) {
            return "slot " + std::to_string(i) + " = " +
                   std::to_string(actual) + ", expected " +
                   std::to_string(committed_.at(i));
        }
    }
    return {};
}

std::uint64_t
SlotScenario::shadowHash() const
{
    std::uint64_t hash = 0x510753CEAA101ull;
    for (const auto &[slot, value] : committed_)
        hash = hashCombine(hash, hashCombine(slot, value));
    hash = hashCombine(hash, 0x57A6EDull);
    for (const auto &[slot, value] : staged_)
        hash = hashCombine(hash, hashCombine(slot, value));
    return hash;
}

CrashWorkloadFactory
builtinCrashWorkloadFactory()
{
    return [](const CrashCell &cell) -> std::unique_ptr<CrashWorkload> {
        if (cell.workload == "slots")
            return std::make_unique<SlotScenario>(cell);
        throw std::runtime_error("unknown crash workload: " +
                                 cell.workload);
    };
}

CrashedWorkload
crashWorkload(const CrashCell &cell, const CrashWorkloadFactory &factory,
              std::uint64_t point)
{
    CrashedWorkload out;
    out.workload = factory(cell);
    if (!out.workload)
        throw std::runtime_error("no workload factory for '" +
                                 cell.workload + "'");
    const auto devices = out.workload->devices();
    // One countdown on every device: a point indexes the workload's
    // combined persistence-event sequence.
    const auto countdown = std::make_shared<pmem::CrashCountdown>(
        static_cast<long>(point));
    for (const CrashDevice &d : devices)
        d.device->armCrash(countdown);
    try {
        out.workload->run();
    } catch (const pmem::SimulatedCrash &) {
        out.fired = true;
    }
    for (const CrashDevice &d : devices)
        d.device->armCrash(nullptr);
    out.events = countdown->consumed();

    out.workload->crash(cell.policyAt(point));
    std::uint64_t hash = 0xC4A54ull;
    for (const CrashDevice &d : devices)
        hash = hashCombine(hash, hashDeviceImage(*d.device));
    out.fingerprint = hashCombine(hash, out.workload->shadowHash());
    return out;
}

std::string
ExploreReport::toJson(const CrashCell &cell) const
{
    std::string out = "{";
    auto str = [&out](const char *key, std::string_view value,
                      bool comma = true) {
        out += '"';
        out += key;
        out += "\":\"";
        obs::appendJsonEscaped(out, value);
        out += '"';
        if (comma)
            out += ',';
    };
    auto num = [&out](const char *key, std::uint64_t value,
                      bool comma = true) {
        out += '"';
        out += key;
        out += "\":";
        out += std::to_string(value);
        if (comma)
            out += ',';
    };
    out += "\"cell\":{";
    str("runtime", cell.runtime);
    str("workload", cell.workload);
    str("policy", cell.policy);
    out += "\"p\":" + formatDouble(cell.persistProbability) + ",";
    num("seed", cell.seed);
    str("fault", cell.fault, false);
    out += "},";
    num("shard_index", options.shardIndex);
    num("shard_count", options.shardCount);
    num("max_points", options.maxPoints);
    num("total_events", totalEvents);
    num("candidate_points", candidatePoints);
    num("explored", explored);
    num("pruned", pruned);
    num("failed", failures.size());
    if (!error.empty())
        str("error", error);
    // Per-cell observability counters: one crashmatrix process runs
    // one cell, so the process-wide registry totals are the cell's.
    out += "\"metrics\":{";
    {
        const auto snapshot = obs::Registry::global().snapshot();
        bool first = true;
        for (const auto &[name, value] : snapshot.counters) {
            const bool wanted =
                name.rfind("specpmt_crash_", 0) == 0 ||
                name.rfind("specpmt_pmem_fences_total", 0) == 0 ||
                name.rfind("specpmt_pmem_crashes_total", 0) == 0 ||
                name.rfind("specpmt_recoveries_total", 0) == 0;
            if (!wanted)
                continue;
            if (!first)
                out += ',';
            first = false;
            out += '"';
            obs::appendJsonEscaped(out, name);
            out += "\":" + std::to_string(value);
        }
    }
    out += "},";
    out += "\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
        if (i)
            out += ',';
        out += "{";
        num("point", failures[i].point);
        str("token", failures[i].token);
        str("message", failures[i].message, false);
        out += "}";
    }
    out += "]}";
    return out;
}

CrashExplorer::CrashExplorer(CrashCell cell,
                             CrashWorkloadFactory factory)
    : cell_(std::move(cell)), factory_(std::move(factory))
{
}

namespace
{

/** Crash-exploration counters, registered once per process. */
struct ExplorerMetrics
{
    obs::Counter &cells;
    obs::Counter &pointsExplored;
    obs::Counter &pointsPruned;
    obs::Counter &failures;

    static ExplorerMetrics &
    get()
    {
        auto &reg = obs::Registry::global();
        static ExplorerMetrics m{
            reg.counter("specpmt_crash_cells_explored_total",
                        "crash-matrix cells fully explored"),
            reg.counter("specpmt_crash_points_explored_total",
                        "crash points injected and checked"),
            reg.counter("specpmt_crash_points_pruned_total",
                        "crash points skipped as duplicate states"),
            reg.counter("specpmt_crash_failures_total",
                        "crash points that failed verification"),
        };
        return m;
    }
};

} // namespace

ExploreReport
CrashExplorer::explore(const ExploreOptions &options)
{
    SPECPMT_TRACE_SPAN("crash_explore_cell", "replay");
    ExploreReport report;
    report.options = options;

    pmem::CrashMode mode;
    if (!parseCrashMode(cell_.policy, mode)) {
        report.error = "unknown crash policy: " + cell_.policy;
        return report;
    }
    if (!isCrashRuntimeName(cell_.runtime)) {
        report.error = "runtime '" + cell_.runtime +
                       "' is not crash-recoverable (choose from the "
                       "recoverable set)";
        return report;
    }
    if (options.shardCount == 0 ||
        options.shardIndex >= options.shardCount) {
        report.error = "invalid shard selection";
        return report;
    }

    // Pass 1: count the persistence events of a full run; that bounds
    // the crash-point space.
    try {
        const auto counted = crashWorkload(cell_, factory_, kNoCrashPoint);
        if (counted.fired) {
            report.error = "counting pass crashed unexpectedly";
            return report;
        }
        report.totalEvents = counted.events;
    } catch (const std::exception &e) {
        report.error = e.what();
        return report;
    }

    // Candidate points: this CI shard's slice of [0, totalEvents),
    // optionally bounded to maxPoints spread evenly over the run.
    std::vector<std::uint64_t> points;
    for (std::uint64_t k = options.shardIndex; k < report.totalEvents;
         k += options.shardCount) {
        points.push_back(k);
    }
    if (options.maxPoints != 0 && points.size() > options.maxPoints) {
        std::vector<std::uint64_t> picked;
        picked.reserve(options.maxPoints);
        const double stride =
            static_cast<double>(points.size()) /
            static_cast<double>(options.maxPoints);
        for (std::uint64_t i = 0; i < options.maxPoints; ++i) {
            picked.push_back(
                points[static_cast<std::size_t>(
                    static_cast<double>(i) * stride)]);
        }
        points = std::move(picked);
    }
    report.candidatePoints = points.size();

    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> explored{0};
    std::atomic<std::uint64_t> pruned{0};
    std::mutex mutex; // guards seen + failures
    std::unordered_set<std::uint64_t> seen;
    std::vector<CrashFailure> failures;

    auto worker = [&] {
        SPECPMT_TRACE_SPAN("crash_replay_shard", "replay");
        for (;;) {
            const std::size_t index =
                next.fetch_add(1, std::memory_order_relaxed);
            if (index >= points.size())
                return;
            const std::uint64_t point = points[index];
            std::string message;
            try {
                auto crashed = crashWorkload(cell_, factory_, point);
                if (!crashed.fired) {
                    message = "armed crash did not fire "
                              "(nondeterministic workload?)";
                } else {
                    {
                        std::lock_guard<std::mutex> guard(mutex);
                        if (!seen.insert(crashed.fingerprint).second) {
                            pruned.fetch_add(
                                1, std::memory_order_relaxed);
                            continue;
                        }
                    }
                    crashed.workload->recover();
                    message = crashed.workload->check();
                    if (message.empty() &&
                        options.verifyContinuation) {
                        message = crashed.workload->checkContinuation();
                    }
                }
            } catch (const std::exception &e) {
                message = std::string("exception: ") + e.what();
            }
            explored.fetch_add(1, std::memory_order_relaxed);
            if (!message.empty()) {
                std::lock_guard<std::mutex> guard(mutex);
                failures.push_back(
                    {point, cell_.token(point), message});
            }
        }
    };

    unsigned jobs = options.jobs;
    if (jobs == 0) {
        jobs = std::max(1u,
                        std::min(8u,
                                 std::thread::hardware_concurrency() /
                                     2));
    }
    jobs = static_cast<unsigned>(
        std::min<std::size_t>(jobs, std::max<std::size_t>(
                                        points.size(), 1)));
    if (jobs <= 1) {
        worker();
    } else {
        std::vector<std::thread> threads;
        threads.reserve(jobs);
        for (unsigned i = 0; i < jobs; ++i)
            threads.emplace_back(worker);
        for (auto &thread : threads)
            thread.join();
    }

    std::sort(failures.begin(), failures.end(),
              [](const CrashFailure &a, const CrashFailure &b) {
                  return a.point < b.point;
              });
    report.explored = explored.load();
    report.pruned = pruned.load();
    report.failures = std::move(failures);
    auto &metrics = ExplorerMetrics::get();
    metrics.cells.add();
    metrics.pointsExplored.add(report.explored);
    metrics.pointsPruned.add(report.pruned);
    metrics.failures.add(report.failures.size());
    return report;
}

ReplayResult
CrashExplorer::replay(std::string_view token,
                      const CrashWorkloadFactory &factory,
                      bool verify_continuation)
{
    ReplayResult result;
    if (!CrashCell::parseToken(token, result.cell, result.point,
                               result.error)) {
        return result;
    }
    try {
        auto crashed =
            crashWorkload(result.cell, factory, result.point);
        result.fired = crashed.fired;
        crashed.workload->recover();
        result.failure = crashed.workload->check();
        if (result.failure.empty() && verify_continuation)
            result.failure = crashed.workload->checkContinuation();
    } catch (const std::exception &e) {
        result.error = e.what();
    }
    return result;
}

} // namespace specpmt::sim
