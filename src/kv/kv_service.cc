#include "kv/kv_service.hh"

#include <algorithm>
#include <chrono>
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
    for (unsigned s = 0; s < config_.shards; ++s) {
        auto shard = std::make_unique<Shard>();
        if (config_.pmDir.empty()) {
            shard->device = std::make_unique<pmem::PmemDevice>(
                config_.shardPoolBytes);
        } else {
            shard->device = std::make_unique<pmem::PmemDevice>(
                config_.shardPoolBytes,
                config_.pmDir + "/shard-" + std::to_string(s) +
                    ".pm");
        }
        shard->pool = std::make_unique<pmem::PmemPool>(*shard->device);
        if (shard->device->hadExistingData()) {
            // Reattach: the backing file holds a pre-kill image.
            // Run this shard's recovery and re-adopt the map exactly
            // as the post-crash path does.
            shard->runtime = txn::makeRuntime(config_.runtime,
                                              *shard->pool,
                                              config_.threads,
                                              config_.runtimeOptions);
            shard->runtime->recover();
            const PmOff base =
                shard->pool->getRoot(txn::kAppRootSlotBase);
            SPECPMT_ASSERT(base != kPmNull);
            shard->map.emplace(Map::attach(*shard->runtime, base));
        } else {
            if (config_.flightRecorder)
                forensic::FlightRecorder::create(*shard->pool);
            shard->runtime =
                txn::makeRuntime(config_.runtime, *shard->pool,
                                 config_.threads,
                                 config_.runtimeOptions);
            shard->map.emplace(
                Map::create(*shard->runtime,
                            config_.bucketsPerShard));
            shard->pool->setRoot(txn::kAppRootSlotBase,
                                 shard->map->base());
        }
        shard->flight = forensic::FlightRecorder::attach(*shard->pool);
        shard->locks =
            std::make_unique<txn::LockTable>(config_.lockStripes);
        shard->sealLagGauge = &obs::Registry::global().gauge(
            "specpmt_epoch_seal_lag",
            "relaxed epoch tickets issued but not yet sealed",
            {{"shard", std::to_string(s)}});
        shards_.push_back(std::move(shard));
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
    const std::uint64_t sealed =
        shards_.at(shard_index)->runtime->sealEpoch();
    publishSealLag(shard_index);
    return sealed;
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
        if (shards_[s]->runtime) {
            shards_[s]->runtime->sealEpoch();
            publishSealLag(s);
        }
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

void
KvService::noteRelaxedMutation(unsigned shard_index, Shard &shard)
{
    const std::uint64_t n =
        shard.relaxedSinceSeal.fetch_add(1, std::memory_order_relaxed)
        + 1;
    if (config_.epochMaxOps != 0 && n >= config_.epochMaxOps) {
        shard.relaxedSinceSeal.store(0, std::memory_order_relaxed);
        sealShardEpoch(shard_index);
    }
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
    Shard &shard = *shards_[shardOf(key)];
    KvMetrics::get().gets.add();
    return shard.map->get(tid, key);
}

bool
KvService::put(ThreadId tid, KvKey key, const KvValue &value,
               Durability durability, std::uint64_t *epoch_ticket)
{
    const unsigned shard_index = shardOf(key);
    Shard &shard = *shards_[shard_index];
    const bool relaxed = durability == Durability::Relaxed &&
                         shard.runtime->groupCommitSupported();
    auto commit = [&]() -> std::uint64_t {
        if (relaxed)
            return shard.runtime->txCommitRelaxed(tid);
        shard.runtime->txCommit(tid);
        return 0;
    };
    auto guard = shard.locks->lockAll({lockAddr(key)});
    bool ok;
    std::uint64_t ticket = 0;
    if (shard.map->get(tid, key)) {
        // Pure update: only this stripe's holders write this bucket.
        shard.runtime->txBegin(tid);
        ok = shard.map->putInTx(tid, key, value);
        ticket = commit();
    } else {
        // Insert: claims a bucket somewhere in the probe chain, which
        // may cross stripes — serialize against other claimers.
        std::lock_guard<std::mutex> structure(shard.structureLock);
        shard.runtime->txBegin(tid);
        ok = shard.map->putInTx(tid, key, value);
        ticket = commit();
    }
    if (epoch_ticket)
        *epoch_ticket = ticket;
    noteTicket(shard_index, shard, ticket);
    if (ok)
        shard.committedTxs.fetch_add(1, std::memory_order_relaxed);
    if (relaxed)
        noteRelaxedMutation(shard_index, shard);
    KvMetrics::get().puts.add();
    if (!ok)
        KvMetrics::get().putFailures.add();
    return ok;
}

bool
KvService::erase(ThreadId tid, KvKey key)
{
    Shard &shard = *shards_[shardOf(key)];
    auto guard = shard.locks->lockAll({lockAddr(key)});
    shard.runtime->txBegin(tid);
    const bool erased = shard.map->eraseInTx(tid, key);
    shard.runtime->txCommit(tid);
    if (erased) {
        shard.committedTxs.fetch_add(1, std::memory_order_relaxed);
        KvMetrics::get().erases.add();
    }
    return erased;
}

bool
KvService::putBatchLocked(Shard &shard, ThreadId tid,
                          const std::vector<std::pair<KvKey, KvValue>>
                              &items)
{
    shard.runtime->txBegin(tid);
    bool all_ok = true;
    for (const auto &[key, value] : items)
        all_ok = shard.map->putInTx(tid, key, value) && all_ok;
    shard.runtime->txCommit(tid);
    shard.committedTxs.fetch_add(1, std::memory_order_relaxed);
    return all_ok;
}

bool
KvService::multiPut(ThreadId tid,
                    const std::vector<std::pair<KvKey, KvValue>>
                        &items)
{
    // Ascending shard order; commit each shard's part before moving
    // on, holding locks only within the shard being written.
    std::map<unsigned, std::vector<std::pair<KvKey, KvValue>>>
        by_shard;
    for (const auto &item : items)
        by_shard[shardOf(item.first)].push_back(item);

    KvMetrics::get().multiPuts.add();
    bool all_ok = true;
    for (auto &[index, shard_items] : by_shard) {
        Shard &shard = *shards_[index];
        std::vector<PmOff> addrs;
        addrs.reserve(shard_items.size());
        for (const auto &[key, value] : shard_items)
            addrs.push_back(lockAddr(key));
        auto guard = shard.locks->lockAll(std::move(addrs));
        // The batch may insert, so always take the structure lock
        // (stripes first, then structure — same order as put()).
        std::lock_guard<std::mutex> structure(shard.structureLock);
        all_ok = putBatchLocked(shard, tid, shard_items) && all_ok;
    }
    return all_ok;
}

void
KvService::noteMediaAbort(unsigned shard_index, Shard &shard,
                          ThreadId tid, std::uint64_t fault_off,
                          std::uint64_t fault_kind, bool in_tx)
{
    // Everything here runs with media faults suppressed: the rollback
    // recovering from a MediaError must not itself be interrupted by
    // one, and the flight append stores to the same device.
    pmem::MediaFaultSuppress suppress_media_faults;
    if (in_tx)
        shard.runtime->txAbort(tid);
    shard.mediaAborts.fetch_add(1, std::memory_order_relaxed);
    KvMetrics::get().mediaAborts.add();
    shard.flight.record(forensic::EventType::MediaFault, tid, 0,
                        fault_off, fault_kind);
    SPECPMT_INFORM("kv: shard %u aborted a transaction on a media "
                "fault (off=%llu kind=%llu)",
                shard_index,
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
    {
        pmem::MediaFaultSuppress suppress_media_faults;
        shard.flight.record(forensic::EventType::DegradedEnter, tid,
                            0, bytes_needed);
    }
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
    bool any_mutation = false;
    bool any_put = false;
    std::vector<PmOff> addrs;
    for (const auto &op : ops) {
        if (shardOf(op.key) != shard_index)
            return BatchStatus::BadRoute;
        if (op.kind != BatchOp::Kind::Get) {
            addrs.push_back(lockAddr(op.key));
            any_mutation = true;
            any_put |= op.kind == BatchOp::Kind::Put;
        }
    }
    Shard &shard = *shards_[shard_index];
    auto &metrics = KvMetrics::get();

    const bool read_only =
        shard.readOnly.load(std::memory_order_acquire);
    if (!any_mutation || read_only) {
        // No transaction: lock-free probes serve the reads; in
        // degraded read-only mode the mutations are refused
        // individually (nothing is staged) so reads stay alive.
        try {
            for (std::size_t i = 0; i < ops.size(); ++i) {
                if (ops[i].kind != BatchOp::Kind::Get) {
                    results[i].ok = false;
                    results[i].rejectedReadOnly = true;
                    metrics.readOnlyRejects.add();
                    continue;
                }
                const auto value = shard.map->get(tid, ops[i].key);
                results[i].ok = value.has_value();
                if (value)
                    results[i].value = *value;
                metrics.gets.add();
            }
        } catch (const pmem::MediaError &err) {
            noteMediaAbort(shard_index, shard, tid,
                           err.offset(),
                           static_cast<std::uint64_t>(err.kind()),
                           /*in_tx=*/false);
            return BatchStatus::Io;
        }
        return BatchStatus::Ok;
    }

    // Same lock order as put()/multiPut(): stripes, then (only when a
    // bucket claim is possible) the shard structure lock.
    auto guard = shard.locks->lockAll(std::move(addrs));
    std::unique_lock<std::mutex> structure(shard.structureLock,
                                           std::defer_lock);
    if (any_put)
        structure.lock();
    try {
        shard.runtime->txBegin(tid);
        for (std::size_t i = 0; i < ops.size(); ++i) {
            const BatchOp &op = ops[i];
            switch (op.kind) {
              case BatchOp::Kind::Get: {
                // In-order inside the open tx: sees this batch's
                // earlier uncommitted puts (read-your-writes).
                const auto value = shard.map->get(tid, op.key);
                results[i].ok = value.has_value();
                if (value)
                    results[i].value = *value;
                metrics.gets.add();
                break;
              }
              case BatchOp::Kind::Put:
                results[i].ok =
                    shard.map->putInTx(tid, op.key, op.value);
                metrics.puts.add();
                if (!results[i].ok)
                    metrics.putFailures.add();
                break;
              case BatchOp::Kind::Erase:
                results[i].ok = shard.map->eraseInTx(tid, op.key);
                if (results[i].ok)
                    metrics.erases.add();
                break;
            }
        }
        if (durability == Durability::Relaxed &&
            shard.runtime->groupCommitSupported()) {
            const std::uint64_t ticket =
                shard.runtime->txCommitRelaxed(tid);
            if (epoch_ticket)
                *epoch_ticket = ticket;
            noteTicket(shard_index, shard, ticket);
        } else {
            shard.runtime->txCommit(tid);
        }
    } catch (const pmem::MediaError &err) {
        // Abort cleanly: pre-images restore the in-place data, the
        // staged log segments are dropped, nothing of the run
        // survives. The caller may retry (fresh log blocks usually
        // avoid the bad lines).
        noteMediaAbort(shard_index, shard, tid, err.offset(),
                       static_cast<std::uint64_t>(err.kind()),
                       /*in_tx=*/true);
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
    for (auto &shard : shards_) {
        shard->map.reset();
        shard->runtime.reset(); // the old process is gone
        shard->device->simulateCrash(policy);
        shard->pool->reopenAfterCrash();
    }
    KvMetrics::get().crashes.add();
}

void
KvService::recover()
{
    SPECPMT_TRACE_SPAN("kv_recover", "recovery");
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    workers.reserve(shards_.size());
    for (auto &shard_ptr : shards_) {
        workers.emplace_back([this, &shard_ptr] {
            SPECPMT_TRACE_SPAN("kv_recover_shard", "recovery");
            const auto shard_start = std::chrono::steady_clock::now();
            Shard &shard = *shard_ptr;
            shard.runtime = txn::makeRuntime(config_.runtime,
                                             *shard.pool,
                                             config_.threads,
                                             config_.runtimeOptions);
            shard.runtime->recover();
            const PmOff base =
                shard.pool->getRoot(txn::kAppRootSlotBase);
            SPECPMT_ASSERT(base != kPmNull);
            shard.map.emplace(Map::attach(*shard.runtime, base));
            shard.flight =
                forensic::FlightRecorder::attach(*shard.pool);
            // Recovery re-initializes the log areas, so a shard that
            // degraded on log exhaustion serves mutations again.
            shard.readOnly.store(false, std::memory_order_release);
            KvMetrics::get().shardRecoveryNs.record(
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - shard_start)
                        .count()));
        });
    }
    for (auto &worker : workers)
        worker.join();
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

std::shared_ptr<pmem::CrashCountdown>
KvService::armCrashAll(long ops)
{
    if (ops < 0) {
        for (auto &shard : shards_)
            shard->device->armCrash(-1);
        return nullptr;
    }
    auto countdown = std::make_shared<pmem::CrashCountdown>();
    countdown->remaining.store(ops, std::memory_order_relaxed);
    for (auto &shard : shards_)
        shard->device->armCrash(countdown);
    return countdown;
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
