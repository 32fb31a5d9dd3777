/**
 * @file
 * Shared YCSB workload-shape generation for every KV load path.
 *
 * The closed-loop driver (kv/driver) and the open-loop network load
 * generator (net/loadgen) must draw *identical* key/value/op-mix
 * distributions, or their results are not comparable and the
 * distributions silently drift as one copy is edited. This header is
 * the single definition: the mix/popularity enums, the YCSB zipfian
 * rank generator, the rank-to-key scrambler, and OpGenerator — a
 * deterministic stream of fully materialized operations (reads,
 * tagged-value puts, multi-put batches) that both drivers consume.
 *
 * Determinism contract: for a given (WorkloadSpec, seed), next()
 * returns the same operation sequence on every platform, and the
 * sequence is exactly what kv/driver's inline loop historically drew
 * (same Rng draw order), so existing seeds reproduce old runs.
 */

#ifndef SPECPMT_KV_WORKLOAD_SPEC_HH
#define SPECPMT_KV_WORKLOAD_SPEC_HH

#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rand.hh"
#include "kv/kv_service.hh"

namespace specpmt::kv
{

/** YCSB core workload mixes. */
enum class Mix
{
    A, ///< 50% read / 50% update
    B, ///< 95% read / 5% update
    C, ///< 100% read
};

const char *mixName(Mix mix);

/** The mix mixName() calls @p name; nullopt for any other name. */
std::optional<Mix> parseMix(std::string_view name);

/** Update fraction of @p mix (0.5 / 0.05 / 0). */
double mixUpdateFraction(Mix mix);

/** Key popularity distributions. */
enum class KeyDist
{
    Uniform,
    Zipfian,
};

const char *keyDistName(KeyDist dist);

/** The distribution keyDistName() calls @p name; nullopt otherwise. */
std::optional<KeyDist> parseKeyDist(std::string_view name);

/**
 * The YCSB zipfian rank generator (Gray et al.'s algorithm): ranks in
 * [0, n) with P(rank) ∝ 1/(rank+1)^theta. Construction is O(n) (zeta
 * precomputation); next() is O(1).
 */
class ZipfianGenerator
{
  public:
    ZipfianGenerator(std::uint64_t n, double theta);

    /** Draw a rank in [0, n); rank 0 is the most popular. */
    std::uint64_t next(Rng &rng) const;

  private:
    std::uint64_t n_;
    double theta_;
    double zetan_;
    double alpha_;
    double eta_;
};

/**
 * Map a popularity rank to a key in [1, keys]: ranks are scrambled
 * with a 64-bit mix so hot keys spread across shards, as YCSB does.
 */
std::uint64_t rankToKey(std::uint64_t rank, std::uint64_t keys);

/** The workload shape both load paths generate from. */
struct WorkloadSpec
{
    /** Keyspace: keys 1..keys (loaded before the run). */
    std::uint64_t keys = 1u << 14;
    Mix mix = Mix::A;
    KeyDist dist = KeyDist::Zipfian;
    double zipfTheta = 0.99;
    /** Issue this fraction of updates as multiPut batches (0 = off). */
    double multiPutFraction = 0.0;
    /** Keys per multiPut batch. */
    unsigned multiPutBatch = 4;
};

/** One fully materialized operation. */
struct WorkloadOp
{
    enum class Kind : std::uint8_t
    {
        Get,
        Put,
        MultiPut,
    };

    Kind kind = Kind::Get;
    /** Get/Put target (unused for MultiPut). */
    KvKey key = 0;
    /** Put value (tagged for key). */
    KvValue value{};
    /** MultiPut pairs (empty otherwise). */
    std::vector<std::pair<KvKey, KvValue>> batch;
};

/**
 * Deterministic operation stream; see file comment. The zipfian
 * generator is shared by pointer because its construction is O(keys):
 * callers build one per run and hand it to every worker's generator.
 * It may be null when spec.dist == Uniform.
 */
class OpGenerator
{
  public:
    OpGenerator(const WorkloadSpec &spec, const ZipfianGenerator *zipf,
                std::uint64_t seed);

    /** Draw the next operation. */
    WorkloadOp next();

    /**
     * The per-worker seed the closed-loop driver has always used, so
     * N workers with workerSeed(seed, 0..N-1) reproduce historical
     * multi-threaded runs.
     */
    static std::uint64_t
    workerSeed(std::uint64_t seed, unsigned worker)
    {
        return seed * 0x9E3779B9u + worker;
    }

  private:
    WorkloadSpec spec_;
    const ZipfianGenerator *zipf_;
    double updateFraction_;
    Rng rng_;
};

} // namespace specpmt::kv

#endif // SPECPMT_KV_WORKLOAD_SPEC_HH
