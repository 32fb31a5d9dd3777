/**
 * @file
 * Lightweight statistics helpers: a fixed-bucket latency histogram
 * for the serving-shaped benchmarks, and the geometric mean / speedup
 * arithmetic used by the benchmark harnesses when reproducing the
 * paper's figures.
 */

#ifndef SPECPMT_COMMON_STATS_HH
#define SPECPMT_COMMON_STATS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace specpmt
{

/**
 * A fixed-bucket log-linear histogram for latency samples.
 *
 * Buckets follow the HdrHistogram layout: values below kSubBuckets
 * get one exact bucket each; above that, every power-of-two octave is
 * split into kSubBuckets linear sub-buckets, bounding the relative
 * quantization error of any reported percentile by 1/kSubBuckets
 * (12.5%). record() is a single array increment with no allocation,
 * so worker threads keep thread-local histograms on the fast path and
 * merge() them afterwards.
 */
class LatencyHistogram
{
  public:
    /** Sub-buckets per power-of-two octave (a power of two). */
    static constexpr unsigned kSubBucketBits = 3;
    static constexpr unsigned kSubBuckets = 1u << kSubBucketBits;
    /** Total bucket count covering the full 64-bit value range. */
    static constexpr unsigned kBuckets =
        kSubBuckets + (64 - kSubBucketBits) * kSubBuckets;

    /** Index of the bucket holding @p value. */
    static unsigned bucketIndex(std::uint64_t value);

    /** Smallest value mapping to bucket @p index. */
    static std::uint64_t bucketLowerBound(unsigned index);

    /** Largest value mapping to bucket @p index. */
    static std::uint64_t bucketUpperBound(unsigned index);

    /** Record one sample. */
    void record(std::uint64_t value);

    /** Fold @p other 's samples into this histogram. */
    void merge(const LatencyHistogram &other);

    /** Number of recorded samples. */
    std::uint64_t count() const { return count_; }

    /** Sum of all recorded samples. */
    std::uint64_t sum() const { return sum_; }

    /** Largest recorded sample (0 when empty). */
    std::uint64_t max() const { return max_; }

    /** Arithmetic mean (0 when empty). */
    double mean() const;

    /**
     * Value at percentile @p p (in [0, 100]): the upper bound of the
     * bucket containing the rank-⌈p/100·count⌉ sample, clamped to the
     * recorded maximum. Returns 0 when empty.
     */
    std::uint64_t percentile(double p) const;

    /** Raw bucket counts (for tests and serialization). */
    const std::array<std::uint64_t, kBuckets> &buckets() const
    {
        return counts_;
    }

    /**
     * JSON object with count/sum/max and every non-empty bucket as a
     * [lowerBound, upperBound, count] triple. The bounds come from
     * bucketLowerBound/bucketUpperBound, so a consumer can recompute
     * any percentile offline with the same quantization the in-process
     * percentile() uses.
     */
    std::string toJson() const;

    /** Drop all samples. */
    void clear();

  private:
    std::array<std::uint64_t, kBuckets> counts_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t max_ = 0;
};

/** Geometric mean of a series of positive values. */
double geomean(const std::vector<double> &values);

} // namespace specpmt

#endif // SPECPMT_COMMON_STATS_HH
