#include "kv/kv_service.hh"

#include <algorithm>
#include <chrono>
#include <exception>
#include <map>
#include <thread>

#include "common/hash.hh"
#include "common/logging.hh"
#include "forensic/flight_recorder.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace specpmt::kv
{

namespace
{

/** Tag mixed into word 0 of tagged values ("KVTA"). */
constexpr std::uint64_t kValueTag = 0x4B565441'5EC9417ull;

/** KV service operation counters, registered once per process. */
struct KvMetrics
{
    obs::Counter &gets;
    obs::Counter &puts;
    obs::Counter &putFailures;
    obs::Counter &erases;
    obs::Counter &multiPuts;
    obs::Counter &crashes;
    obs::Counter &recoveries;
    obs::Counter &mediaAborts;
    obs::Counter &readOnlyRejects;
    obs::Counter &degradedEnters;
    obs::Gauge &lastRecoveryNs;
    obs::Histogram &shardRecoveryNs;

    static KvMetrics &
    get()
    {
        auto &reg = obs::Registry::global();
        static KvMetrics m{
            reg.counter("specpmt_kv_gets_total", "KV point lookups"),
            reg.counter("specpmt_kv_puts_total",
                        "KV puts (update or insert)"),
            reg.counter("specpmt_kv_put_failures_total",
                        "KV puts rejected (table full)"),
            reg.counter("specpmt_kv_erases_total",
                        "KV erases that removed a key"),
            reg.counter("specpmt_kv_multi_puts_total",
                        "KV multi-shard batch puts"),
            reg.counter("specpmt_kv_crashes_total",
                        "simulated whole-service crashes"),
            reg.counter("specpmt_kv_recoveries_total",
                        "whole-service parallel recoveries"),
            reg.counter("specpmt_kv_media_tx_aborts_total",
                        "transactions aborted cleanly on a media "
                        "fault (poisoned read / write EIO)"),
            reg.counter("specpmt_kv_readonly_rejects_total",
                        "mutations refused by a read-only degraded "
                        "shard"),
            reg.counter("specpmt_kv_degraded_enters_total",
                        "shards that flipped into read-only degraded "
                        "mode (log-space exhaustion)"),
            reg.gauge("specpmt_kv_last_recovery_ns",
                      "wall-clock ns of the most recent recover()"),
            reg.histogram("specpmt_kv_shard_recovery_ns",
                          "per-shard recovery wall-clock ns"),
        };
        return m;
    }
};

/**
 * Run @p fn(s) for every shard s, one thread per shard with shard 0 on
 * the calling thread. Every thread is joined, also when a shard
 * throws; then the first failure in shard order is rethrown.
 */
template <typename Fn>
void
forEachShardInParallel(unsigned shards, Fn fn)
{
    std::vector<std::exception_ptr> failures(shards);
    auto run = [&](unsigned s) {
        try {
            fn(s);
        } catch (...) {
            failures[s] = std::current_exception();
        }
    };
    std::vector<std::thread> workers;
    workers.reserve(shards);
    for (unsigned s = 1; s < shards; ++s)
        workers.emplace_back(run, s);
    run(0);
    for (auto &worker : workers)
        worker.join();
    for (const auto &failure : failures) {
        if (failure)
            std::rethrow_exception(failure);
    }
}

} // namespace

KvValue
KvValue::tagged(KvKey key, std::uint64_t payload)
{
    KvValue value;
    value.words[0] = key ^ kValueTag;
    value.words[1] = payload;
    for (unsigned i = 2; i < 8; ++i)
        value.words[i] = mix64(payload + i);
    return value;
}

bool
KvValue::checkTag(KvKey key) const
{
    if (words[0] != (key ^ kValueTag))
        return false;
    for (unsigned i = 2; i < 8; ++i) {
        if (words[i] != mix64(words[1] + i))
            return false;
    }
    return true;
}

KvService::KvService(const KvServiceConfig &config) : config_(config)
{
    SPECPMT_ASSERT(config_.shards > 0);
    SPECPMT_ASSERT(config_.threads > 0);
    SPECPMT_ASSERT((config_.bucketsPerShard &
                    (config_.bucketsPerShard - 1)) == 0);
    SPECPMT_ASSERT(txn::isRuntimeName(config_.runtime));

    shards_.reserve(config_.shards);
    for (unsigned s = 0; s < config_.shards; ++s)
        shards_.push_back(std::make_unique<Shard>());
    forEachShardInParallel(config_.shards, [this](unsigned s) {
        Shard &shard = *shards_[s];
        if (config_.pmDir.empty()) {
            shard.device = std::make_unique<pmem::PmemDevice>(
                config_.shardPoolBytes);
        } else {
            shard.device = std::make_unique<pmem::PmemDevice>(
                config_.shardPoolBytes,
                config_.pmDir + "/shard-" + std::to_string(s) + ".pm");
        }
        shard.pool = std::make_unique<pmem::PmemPool>(*shard.device);
        if (shard.device->hadExistingData()) {
            // Reattach: the backing file holds a pre-kill image, which
            // recovers exactly as the post-crash path does.
            recoverShard(shard);
            return;
        }
        forensic::FlightRecorder::create(*shard.pool);
        shard.flight = forensic::FlightRecorder::attach(*shard.pool);
        shard.runtime = txn::makeRuntime(config_.runtime, *shard.pool,
                                         config_.threads,
                                         config_.runtimeOptions);
        shard.map.emplace(
            Map::create(*shard.runtime, config_.bucketsPerShard));
        shard.pool->setRoot(txn::kAppRootSlotBase, shard.map->base());
    });
    // After the join, so the registry sees the shards in order.
    for (unsigned s = 0; s < config_.shards; ++s) {
        shards_[s]->sealLagGauge = &obs::Registry::global().gauge(
            "specpmt_epoch_seal_lag",
            "relaxed epoch tickets issued but not yet sealed",
            {{"shard", std::to_string(s)}});
    }
}

bool
KvService::groupCommitEnabled() const
{
    return config_.runtimeOptions.groupCommit &&
           shards_.front()->runtime &&
           shards_.front()->runtime->groupCommitSupported();
}

std::uint64_t
KvService::sealShardEpoch(unsigned shard_index)
{
    Shard &shard = *shards_.at(shard_index);
    // Zeroed before the seal: a mutation counted in between is in
    // this epoch or the next, and at worst brings the next seal early.
    shard.relaxedSinceSeal.store(0, std::memory_order_relaxed);
    const std::uint64_t sealed = shard.runtime->sealEpoch();
    publishSealLag(shard_index);
    return sealed;
}

bool
KvService::sealShardEpochIfDue(unsigned shard_index,
                               std::uint64_t max_ops)
{
    auto &count = shards_.at(shard_index)->relaxedSinceSeal;
    std::uint64_t n = count.load(std::memory_order_relaxed);
    do {
        if (n < max_ops)
            return false;
    } while (!count.compare_exchange_weak(n, 0,
                                          std::memory_order_relaxed));
    sealShardEpoch(shard_index);
    return true;
}

std::uint64_t
KvService::shardSealedEpoch(unsigned shard_index) const
{
    return shards_.at(shard_index)->runtime->lastSealedEpoch();
}

void
KvService::sealAllEpochs()
{
    for (unsigned s = 0; s < shards_.size(); ++s) {
        if (shards_[s]->runtime)
            sealShardEpoch(s);
    }
}

std::uint64_t
KvService::shardEpochLag(unsigned shard_index) const
{
    const Shard &shard = *shards_.at(shard_index);
    if (!shard.runtime)
        return 0;
    const std::uint64_t issued =
        shard.lastRelaxedTicket.load(std::memory_order_relaxed);
    const std::uint64_t sealed = shard.runtime->lastSealedEpoch();
    return issued > sealed ? issued - sealed : 0;
}

void
KvService::noteTicket(unsigned shard_index, Shard &shard,
                      std::uint64_t ticket)
{
    if (ticket == 0)
        return;
    // Monotone max: tickets are per-shard increasing, but batches on
    // different client threads can race the store.
    std::uint64_t seen =
        shard.lastRelaxedTicket.load(std::memory_order_relaxed);
    while (seen < ticket &&
           !shard.lastRelaxedTicket.compare_exchange_weak(
               seen, ticket, std::memory_order_relaxed)) {
    }
    publishSealLag(shard_index);
}

void
KvService::publishSealLag(unsigned shard_index) const
{
    const Shard &shard = *shards_[shard_index];
    if (shard.sealLagGauge != nullptr)
        shard.sealLagGauge->set(
            static_cast<std::int64_t>(shardEpochLag(shard_index)));
}

unsigned
shardOfKey(KvKey key, unsigned shards)
{
    return static_cast<unsigned>(mix64(key + 0x5AD0) % shards);
}

unsigned
KvService::shardOf(KvKey key) const
{
    return shardOfKey(key, config_.shards);
}

PmOff
KvService::lockAddr(KvKey key)
{
    // One pseudo cache line per key; the lock table stripes by line.
    return key * kCacheLineSize;
}

std::optional<KvValue>
KvService::get(ThreadId tid, KvKey key)
{
    const unsigned shard_index = shardOf(key);
    Shard &shard = *shards_[shard_index];
    KvMetrics::get().gets.add();
    try {
        return shard.map->get(tid, key);
    } catch (const pmem::MediaError &err) {
        // An unreadable bucket degrades the shard like a mutation's
        // media fault does; the key reads as absent.
        noteMediaAbort(shard_index, shard, tid, err.offset(),
                       static_cast<std::uint64_t>(err.kind()), false);
        return std::nullopt;
    }
}

bool
KvService::put(ThreadId tid, KvKey key, const KvValue &value,
               Durability durability, std::uint64_t *epoch_ticket)
{
    const unsigned shard_index = shardOf(key);
    std::vector<BatchOpResult> results;
    std::uint64_t ticket = 0;
    const bool ok =
        executeShardBatch(tid, shard_index,
                          {{BatchOp::Kind::Put, key, value}}, results,
                          durability, &ticket) == BatchStatus::Ok &&
        results[0].ok;
    if (epoch_ticket)
        *epoch_ticket = ticket;
    if (ticket != 0 && config_.epochMaxOps != 0)
        sealShardEpochIfDue(shard_index, config_.epochMaxOps);
    return ok;
}

bool
KvService::erase(ThreadId tid, KvKey key)
{
    std::vector<BatchOpResult> results;
    return executeShardBatch(tid, shardOf(key),
                             {{BatchOp::Kind::Erase, key, {}}},
                             results) == BatchStatus::Ok &&
           results[0].ok;
}

bool
KvService::multiPut(ThreadId tid,
                    const std::vector<std::pair<KvKey, KvValue>>
                        &items)
{
    // Ascending shard order; each shard's part commits before the
    // next one starts, so locks are held only within one shard.
    std::map<unsigned, std::vector<BatchOp>> by_shard;
    for (const auto &[key, value] : items)
        by_shard[shardOf(key)].push_back(
            {BatchOp::Kind::Put, key, value});

    KvMetrics::get().multiPuts.add();
    bool all_ok = true;
    std::vector<BatchOpResult> results;
    for (const auto &[index, ops] : by_shard) {
        const bool ok =
            executeShardBatch(tid, index, ops, results) ==
                BatchStatus::Ok &&
            std::all_of(results.begin(), results.end(),
                        [](const BatchOpResult &r) { return r.ok; });
        all_ok = ok && all_ok;
    }
    return all_ok;
}

void
KvService::noteMediaAbort(unsigned shard_index, Shard &shard,
                          ThreadId tid, std::uint64_t fault_off,
                          std::uint64_t fault_kind, bool in_tx)
{
    // The rollback recovering from a MediaError must not itself be
    // interrupted by one.
    pmem::MediaFaultSuppress suppress_media_faults;
    if (in_tx)
        shard.runtime->txAbort(tid);
    shard.mediaAborts.fetch_add(1, std::memory_order_relaxed);
    KvMetrics::get().mediaAborts.add();
    shard.flight.record(forensic::EventType::MediaFault, tid, 0,
                        fault_off, fault_kind);
    SPECPMT_INFORM("kv: shard %u %s on a media fault (off=%llu "
                "kind=%llu)",
                shard_index,
                in_tx ? "aborted a transaction" : "failed a read",
                static_cast<unsigned long long>(fault_off),
                static_cast<unsigned long long>(fault_kind));
}

void
KvService::enterReadOnly(unsigned shard_index, Shard &shard,
                         ThreadId tid, std::uint64_t bytes_needed)
{
    bool was = false;
    if (!shard.readOnly.compare_exchange_strong(
            was, true, std::memory_order_acq_rel))
        return; // already degraded
    KvMetrics::get().degradedEnters.add();
    shard.flight.record(forensic::EventType::DegradedEnter, tid, 0,
                        bytes_needed);
    SPECPMT_INFORM("kv: shard %u entered read-only degraded mode "
                "(allocation of %llu bytes failed)",
                shard_index,
                static_cast<unsigned long long>(bytes_needed));
}

bool
KvService::shardReadOnly(unsigned shard_index) const
{
    return shards_.at(shard_index)
        ->readOnly.load(std::memory_order_acquire);
}

void
KvService::setShardReadOnly(unsigned shard_index, bool read_only)
{
    Shard &shard = *shards_.at(shard_index);
    if (read_only)
        enterReadOnly(shard_index, shard, 0, 0);
    else
        shard.readOnly.store(false, std::memory_order_release);
}

bool
KvService::shardDegraded(unsigned shard_index) const
{
    const Shard &shard = *shards_.at(shard_index);
    return shard.readOnly.load(std::memory_order_acquire) ||
           shard.mediaAborts.load(std::memory_order_relaxed) != 0 ||
           shardQuarantined(shard_index) != 0;
}

std::uint64_t
KvService::shardQuarantined(unsigned shard_index) const
{
    const Shard &shard = *shards_.at(shard_index);
    return shard.runtime ? shard.runtime->quarantinedSegments() : 0;
}

std::uint64_t
KvService::shardMediaAborts(unsigned shard_index) const
{
    return shards_.at(shard_index)
        ->mediaAborts.load(std::memory_order_relaxed);
}

BatchStatus
KvService::executeShardBatch(ThreadId tid, unsigned shard_index,
                             const std::vector<BatchOp> &ops,
                             std::vector<BatchOpResult> &results,
                             Durability durability,
                             std::uint64_t *epoch_ticket)
{
    if (epoch_ticket)
        *epoch_ticket = 0;
    results.clear();
    results.resize(ops.size());
    if (shard_index >= config_.shards)
        return BatchStatus::BadRoute;
    bool any_put = false;
    bool any_erase = false;
    std::vector<PmOff> addrs;
    std::uint64_t mutations = 0;
    for (const auto &op : ops) {
        if (shardOf(op.key) != shard_index)
            return BatchStatus::BadRoute;
        if (op.kind != BatchOp::Kind::Get) {
            addrs.push_back(lockAddr(op.key));
            ++mutations;
        }
        any_put |= op.kind == BatchOp::Kind::Put;
        any_erase |= op.kind == BatchOp::Kind::Erase;
    }
    Shard &shard = *shards_[shard_index];
    auto &metrics = KvMetrics::get();

    // A run without mutations opens no transaction: lock-free probes
    // serve its reads. In read-only degraded mode the mutations are
    // refused individually (nothing is staged) so reads stay alive.
    const bool in_tx =
        !addrs.empty() && !shard.readOnly.load(std::memory_order_acquire);
    if (!in_tx)
        addrs.clear();
    auto guard = shard.locks.lockAll(std::move(addrs));
    std::unique_lock<std::mutex> structure(shard.structureLock,
                                           std::defer_lock);
    bool began = false;
    bool applied = false;
    std::uint64_t ticket = 0;
    try {
        if (in_tx) {
            // Stripes first, then the structure lock when a Put may
            // claim a bucket: its key is absent at probe time, or one
            // of the run's erases may tombstone the bucket first.
            bool claims = any_put && any_erase;
            for (std::size_t i = 0; i < ops.size() && any_put && !claims;
                 ++i) {
                claims = ops[i].kind == BatchOp::Kind::Put &&
                         !shard.map->get(tid, ops[i].key);
            }
            if (claims)
                structure.lock();
            began = true;
            shard.runtime->txBegin(tid);
        }
        for (std::size_t i = 0; i < ops.size(); ++i) {
            const BatchOp &op = ops[i];
            BatchOpResult &result = results[i];
            if (op.kind != BatchOp::Kind::Get && !in_tx) {
                result.rejectedReadOnly = true;
                metrics.readOnlyRejects.add();
                continue;
            }
            switch (op.kind) {
              case BatchOp::Kind::Get: {
                // In-order inside the open tx: sees this batch's
                // earlier uncommitted puts (read-your-writes).
                const auto value = shard.map->get(tid, op.key);
                result.ok = value.has_value();
                if (value)
                    result.value = *value;
                metrics.gets.add();
                break;
              }
              case BatchOp::Kind::Put:
                result.ok = shard.map->putInTx(tid, op.key, op.value);
                metrics.puts.add();
                if (!result.ok)
                    metrics.putFailures.add();
                break;
              case BatchOp::Kind::Erase:
                result.ok = shard.map->eraseInTx(tid, op.key);
                if (result.ok)
                    metrics.erases.add();
                break;
            }
            applied |= op.kind != BatchOp::Kind::Get && result.ok;
        }
        if (durability == Durability::Relaxed && in_tx)
            ticket = shard.runtime->txCommitRelaxed(tid);
        else if (in_tx)
            shard.runtime->txCommit(tid);
    } catch (const pmem::MediaError &err) {
        // Abort cleanly: pre-images restore the in-place data, the
        // staged log segments are dropped, nothing of the run
        // survives. The caller may retry (fresh log blocks usually
        // avoid the bad lines).
        noteMediaAbort(shard_index, shard, tid, err.offset(),
                       static_cast<std::uint64_t>(err.kind()), began);
        return BatchStatus::Io;
    } catch (const pmem::PoolExhausted &err) {
        // Log space is gone: abort the run and flip the shard into
        // read-only degraded mode instead of dying. Reads keep
        // working; mutations are refused until an operator clears it.
        {
            pmem::MediaFaultSuppress suppress_media_faults;
            shard.runtime->txAbort(tid);
        }
        enterReadOnly(shard_index, shard, tid, err.need());
        return BatchStatus::ReadOnly;
    }
    if (epoch_ticket)
        *epoch_ticket = ticket;
    if (ticket != 0)
        shard.relaxedSinceSeal.fetch_add(mutations,
                                         std::memory_order_relaxed);
    noteTicket(shard_index, shard, ticket);
    if (applied)
        shard.committedTxs.fetch_add(1, std::memory_order_relaxed);
    return BatchStatus::Ok;
}

void
KvService::crash(const pmem::CrashPolicy &policy)
{
    // Disarm any pending countdowns first so teardown device traffic
    // cannot trip a second simulated failure.
    for (auto &shard : shards_)
        shard->device->armCrash(-1);
    // Each shard's crash touches only its own device, and each device
    // draws from its own Rng(policy.seed), so the shards crash in
    // parallel to the same images.
    forEachShardInParallel(config_.shards, [&](unsigned s) {
        Shard &shard = *shards_[s];
        {
            // Joins the shard's reclaimer, mid-cycle if need be.
            SPECPMT_TRACE_SPAN("kv_crash_teardown", "recovery");
            shard.map.reset();
            shard.runtime.reset(); // the old process is gone
        }
        shard.device->simulateCrash(policy);
        shard.pool->reopenAfterCrash();
    });
    KvMetrics::get().crashes.add();
}

void
KvService::recoverShard(Shard &shard)
{
    SPECPMT_TRACE_SPAN("kv_recover_shard", "recovery");
    const auto start = std::chrono::steady_clock::now();
    // Attached first, so the ring's page is adopted before recovery
    // allocates. Never created here: a re-opened pool's bump pointer
    // does not know where its live data ends.
    shard.flight = forensic::FlightRecorder::attach(*shard.pool);
    shard.runtime = txn::makeRuntime(config_.runtime, *shard.pool,
                                     config_.threads,
                                     config_.runtimeOptions);
    shard.flight.record(forensic::EventType::RecoveryBegin, 0);
    shard.runtime->recover();
    shard.flight.record(forensic::EventType::RecoveryEnd, 0, 0,
                        shard.runtime->quarantinedSegments());
    const PmOff base = shard.pool->getRoot(txn::kAppRootSlotBase);
    SPECPMT_ASSERT(base != kPmNull);
    shard.map.emplace(Map::attach(*shard.runtime, base));
    // Recovery re-initializes the log areas, so a shard that
    // degraded on log exhaustion serves mutations again.
    shard.readOnly.store(false, std::memory_order_release);
    KvMetrics::get().shardRecoveryNs.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
}

void
KvService::recover()
{
    SPECPMT_TRACE_SPAN("kv_recover", "recovery");
    const auto start = std::chrono::steady_clock::now();
    forEachShardInParallel(config_.shards, [this](unsigned s) {
        recoverShard(*shards_[s]);
    });
    KvMetrics::get().recoveries.add();
    KvMetrics::get().lastRecoveryNs.set(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
}

void
KvService::shutdown()
{
    for (auto &shard : shards_) {
        shard->runtime->shutdown();
        // Registry totals catch up with the shard's device traffic
        // here, so artifacts written right after shutdown() see it
        // even while the service object is still alive.
        shard->device->publishMetrics();
    }
}

void
KvService::armCrashAll(long ops)
{
    auto countdown =
        ops < 0 ? nullptr : std::make_shared<pmem::CrashCountdown>(ops);
    for (auto &shard : shards_)
        shard->device->armCrash(countdown);
}

ShardSnapshot
KvService::shardSnapshot(unsigned shard_index) const
{
    const Shard &shard = *shards_.at(shard_index);
    ShardSnapshot snapshot;
    snapshot.device = shard.device->stats();
    snapshot.pmLineWrites = shard.device->timing().pmLineWrites();
    snapshot.simNs = shard.device->timing().now();
    snapshot.committedTxs =
        shard.committedTxs.load(std::memory_order_relaxed);
    return snapshot;
}

void
KvService::clearStats()
{
    for (auto &shard : shards_) {
        shard->device->clearStats();
        shard->device->timing().reset();
        shard->committedTxs.store(0, std::memory_order_relaxed);
    }
}

pmem::PmemDevice &
KvService::shardDevice(unsigned shard)
{
    return *shards_.at(shard)->device;
}

const pmem::PmemDevice &
KvService::shardDevice(unsigned shard) const
{
    return *shards_.at(shard)->device;
}

txn::TxRuntime &
KvService::shardRuntime(unsigned shard)
{
    return *shards_.at(shard)->runtime;
}

} // namespace specpmt::kv
