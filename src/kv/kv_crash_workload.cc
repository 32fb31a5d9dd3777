#include "kv/kv_crash_workload.hh"

#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hh"
#include "common/rand.hh"
#include "kv/kv_service.hh"

namespace specpmt::kv
{

namespace
{

KvServiceConfig
serviceConfig(const sim::CrashCell &cell)
{
    KvServiceConfig config;
    config.shards = cell.kvShards;
    config.threads = 1;
    config.runtime = cell.runtime;
    config.bucketsPerShard = 512;
    config.shardPoolBytes = 8u << 20;
    // Deterministic crash testing: no background threads, small log
    // blocks so transactions span block boundaries.
    config.runtimeOptions.backgroundWorkers = false;
    config.runtimeOptions.specLogBlockSize = 256;
    if (cell.kvEpochOps != 0) {
        // Epoch group commit, sealed explicitly by the workload so
        // crash points land deterministically before, inside and
        // after each seal; the count-based auto-seal would race the
        // countdown.
        config.runtimeOptions.groupCommit = true;
        config.epochMaxOps = 0;
    }
    return config;
}

class KvCrashWorkload final : public sim::CrashWorkload
{
  public:
    explicit KvCrashWorkload(const sim::CrashCell &cell)
        : cell_(cell), service_(serviceConfig(cell))
    {
        epoch_ =
            cell_.kvEpochOps != 0 && service_.groupCommitEnabled();
        pending_.resize(service_.numShards());
        for (KvKey key = 1; key <= cell_.kvKeys; ++key) {
            const auto value = KvValue::tagged(key, 0);
            if (!service_.put(0, key, value))
                throw std::runtime_error("kv setup put failed");
            committed_[key] = value;
        }
        if (cell_.fault == "drop-fences") {
            for (unsigned s = 0; s < service_.numShards(); ++s) {
                service_.shardDevice(s).injectFault(
                    pmem::DeviceFault::DropFences);
            }
        }
    }

    std::vector<sim::CrashDevice>
    devices() override
    {
        std::vector<sim::CrashDevice> out;
        for (unsigned s = 0; s < service_.numShards(); ++s) {
            out.push_back({"shard" + std::to_string(s),
                           &service_.shardDevice(s),
                           serviceConfig(cell_).threads});
        }
        return out;
    }

    void
    run() override
    {
        Rng rng(cell_.seed);
        unsigned mutations = 0;
        for (unsigned i = 0; i < cell_.kvOps; ++i) {
            staged_.clear();
            const double dice = rng.uniform();
            if (dice < 0.5) {
                const KvKey key = 1 + rng.below(cell_.kvKeys);
                service_.get(0, key);
            } else if (dice < 0.9) {
                const KvKey key = 1 + rng.below(cell_.kvKeys);
                const auto value = KvValue::tagged(key, rng.next() | 1);
                staged_[key] = value;
                if (epoch_) {
                    std::uint64_t ticket = 0;
                    if (service_.put(0, key, value, Durability::Relaxed,
                                     &ticket)) {
                        if (ticket != 0)
                            pending_[service_.shardOf(key)].emplace_back(
                                key, value);
                        else
                            committed_[key] = value;
                    }
                } else if (service_.put(0, key, value)) {
                    committed_[key] = value;
                }
                staged_.clear();
                ++mutations;
            } else {
                std::vector<std::pair<KvKey, KvValue>> batch;
                for (unsigned b = 0; b < 4; ++b) {
                    const KvKey key = 1 + rng.below(cell_.kvKeys);
                    const auto value =
                        KvValue::tagged(key, rng.next() | 1);
                    batch.emplace_back(key, value);
                    staged_[key] = value;
                }
                if (service_.multiPut(0, batch)) {
                    // A strict multiPut commit seals each touched
                    // shard's epoch, making that shard's earlier
                    // relaxed mutations durable too.
                    if (epoch_) {
                        for (const auto &[key, value] : batch)
                            drainPending(service_.shardOf(key));
                    }
                    for (const auto &[key, value] : batch)
                        committed_[key] = value;
                }
                staged_.clear();
                ++mutations;
            }
            if (epoch_ && cell_.kvEpochOps != 0 &&
                mutations >= cell_.kvEpochOps) {
                mutations = 0;
                sealAndDrainAll();
            }
        }
    }

    void
    crash(const pmem::CrashPolicy &policy) override
    {
        service_.crash(policy);
    }

    void
    recover() override
    {
        service_.recover();
    }

    std::string
    check() override
    {
        return epoch_ ? verifyEpochPrefix() : verifyAtomicity();
    }

    std::string
    checkContinuation() override
    {
        rebaseline();
        run();
        // A crash-free run ends fully sealed, so the exact-state
        // checks (and the clean power cycle) see no unsealed tail.
        if (epoch_)
            sealAndDrainAll();
        if (auto msg = verifyExact(); !msg.empty())
            return "continuation: " + msg;
        crash(pmem::CrashPolicy::nothing());
        recover();
        if (auto msg = verifyExact(); !msg.empty())
            return "second crash: " + msg;
        return {};
    }

    std::uint64_t
    shadowHash() const override
    {
        std::uint64_t hash = 0x1C55ADEull;
        auto fold = [&hash](const std::map<KvKey, KvValue> &map) {
            for (const auto &[key, value] : map) {
                std::uint64_t h = key;
                for (unsigned i = 0; i < 8; ++i)
                    h = hashCombine(h, value.words[i]);
                hash = hashCombine(hash, h);
            }
        };
        fold(committed_);
        hash = hashCombine(hash, 0x57A6EDull);
        fold(staged_);
        if (epoch_) {
            for (const auto &pend : pending_) {
                hash = hashCombine(hash, 0xE90C4ull);
                for (const auto &[key, value] : pend) {
                    std::uint64_t h = key;
                    for (unsigned i = 0; i < 8; ++i)
                        h = hashCombine(h, value.words[i]);
                    hash = hashCombine(hash, h);
                }
            }
        }
        return hash;
    }

  private:
    /** Move a shard's sealed-pending mutations into committed_. */
    void
    drainPending(unsigned shard)
    {
        for (const auto &[key, value] : pending_[shard])
            committed_[key] = value;
        pending_[shard].clear();
    }

    /** Seal every shard's epoch; everything pending becomes acked. */
    void
    sealAndDrainAll()
    {
        service_.sealAllEpochs();
        for (unsigned s = 0; s < service_.numShards(); ++s)
            drainPending(s);
    }

    static std::optional<KvValue>
    lookup(const std::map<KvKey, KvValue> &map, KvKey key)
    {
        const auto it = map.find(key);
        return it == map.end() ? std::nullopt
                               : std::optional(it->second);
    }

    static bool
    same(const std::optional<KvValue> &a,
         const std::optional<KvValue> &b)
    {
        if (a.has_value() != b.has_value())
            return false;
        return !a || *a == *b;
    }

    /**
     * Per shard, the surviving state must be the acknowledged
     * (committed) state, possibly plus the *whole* shard-local part
     * of the one in-flight transaction. Any torn value, lost
     * acknowledged put, or partially applied shard transaction is a
     * failure.
     */
    std::string
    verifyAtomicity()
    {
        for (unsigned s = 0; s < service_.numShards(); ++s) {
            bool matches_committed = true;
            bool matches_overlay = true;
            std::string detail;
            for (KvKey key = 1; key <= cell_.kvKeys; ++key) {
                if (service_.shardOf(key) != s)
                    continue;
                const auto actual = service_.get(0, key);
                const auto committed = lookup(committed_, key);
                auto overlay = committed;
                if (auto it = staged_.find(key); it != staged_.end())
                    overlay = it->second;
                if (!same(actual, committed)) {
                    matches_committed = false;
                    detail += " key " + std::to_string(key);
                }
                if (!same(actual, overlay))
                    matches_overlay = false;
            }
            if (!matches_committed && !matches_overlay) {
                return "shard " + std::to_string(s) +
                       " holds a partial transaction:" + detail;
            }
        }
        return {};
    }

    /**
     * Epoch-mode atomic durability: per shard, the surviving state
     * must be the acked (sealed) state plus a clean *prefix* of that
     * shard's unsealed relaxed mutations in commit order — the dense
     * replay window the epoch frontier admits — optionally topped by
     * the whole in-flight transaction (which, holding the shard's
     * newest timestamp, can only survive when the full prefix did).
     * Any hole in the prefix, torn value, or lost acked mutation is a
     * failure.
     */
    std::string
    verifyEpochPrefix()
    {
        for (unsigned s = 0; s < service_.numShards(); ++s) {
            const auto &pend = pending_[s];
            bool ok = false;
            for (std::size_t p = 0; p <= pend.size() && !ok; ++p) {
                std::map<KvKey, KvValue> overlay = committed_;
                for (std::size_t i = 0; i < p; ++i)
                    overlay[pend[i].first] = pend[i].second;
                ok = shardMatches(s, overlay);
                if (!ok && p == pend.size() && !staged_.empty()) {
                    for (const auto &[key, value] : staged_)
                        overlay[key] = value;
                    ok = shardMatches(s, overlay);
                }
            }
            if (!ok) {
                return "shard " + std::to_string(s) +
                       " is not acked state plus a clean prefix of "
                       "its " +
                       std::to_string(pend.size()) +
                       " unsealed mutations";
            }
        }
        return {};
    }

    /** True if every shard-@p s key matches @p overlay exactly. */
    bool
    shardMatches(unsigned s, const std::map<KvKey, KvValue> &overlay)
    {
        for (KvKey key = 1; key <= cell_.kvKeys; ++key) {
            if (service_.shardOf(key) != s)
                continue;
            if (!same(service_.get(0, key), lookup(overlay, key)))
                return false;
        }
        return true;
    }

    /** Adopt the surviving state as the new acknowledged baseline. */
    void
    rebaseline()
    {
        committed_.clear();
        for (KvKey key = 1; key <= cell_.kvKeys; ++key) {
            if (const auto value = service_.get(0, key))
                committed_[key] = *value;
        }
        staged_.clear();
        for (auto &pend : pending_)
            pend.clear();
    }

    /** Exact-state check (crash-free phases). */
    std::string
    verifyExact()
    {
        for (KvKey key = 1; key <= cell_.kvKeys; ++key) {
            const auto actual = service_.get(0, key);
            if (!same(actual, lookup(committed_, key)))
                return "key " + std::to_string(key) + " diverges";
        }
        return {};
    }

    sim::CrashCell cell_;
    KvService service_;
    bool epoch_ = false;
    std::map<KvKey, KvValue> committed_;
    std::map<KvKey, KvValue> staged_;
    /** Per shard: relaxed-committed, not-yet-sealed mutations, in
     * commit order (the crash may keep any prefix of each list). */
    std::vector<std::vector<std::pair<KvKey, KvValue>>> pending_;
};

} // namespace

std::unique_ptr<sim::CrashWorkload>
makeKvCrashWorkload(const sim::CrashCell &cell)
{
    if (!txn::isRecoverableRuntimeName(cell.runtime)) {
        throw std::runtime_error(
            "kv crash workload needs a factory-constructible "
            "recoverable runtime, got: " +
            cell.runtime);
    }
    return std::make_unique<KvCrashWorkload>(cell);
}

sim::CrashWorkloadFactory
kvCrashWorkloadFactory()
{
    return [](const sim::CrashCell &cell)
               -> std::unique_ptr<sim::CrashWorkload> {
        if (cell.workload == "kv")
            return makeKvCrashWorkload(cell);
        return sim::builtinCrashWorkloadFactory()(cell);
    };
}

} // namespace specpmt::kv
