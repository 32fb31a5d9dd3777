#include "common/stats.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "common/logging.hh"

namespace specpmt
{

unsigned
LatencyHistogram::bucketIndex(std::uint64_t value)
{
    if (value < kSubBuckets)
        return static_cast<unsigned>(value);
    // Octave = position of the highest set bit above the sub-bucket
    // resolution; the top kSubBucketBits+1 bits select the sub-bucket.
    const unsigned shift =
        std::bit_width(value) - 1 - kSubBucketBits;
    const unsigned sub =
        static_cast<unsigned>(value >> shift) - kSubBuckets;
    return kSubBuckets + shift * kSubBuckets + sub;
}

std::uint64_t
LatencyHistogram::bucketLowerBound(unsigned index)
{
    SPECPMT_ASSERT(index < kBuckets);
    if (index < kSubBuckets)
        return index;
    const unsigned shift = (index - kSubBuckets) / kSubBuckets;
    const unsigned sub = (index - kSubBuckets) % kSubBuckets;
    return static_cast<std::uint64_t>(kSubBuckets + sub) << shift;
}

std::uint64_t
LatencyHistogram::bucketUpperBound(unsigned index)
{
    SPECPMT_ASSERT(index < kBuckets);
    if (index < kSubBuckets)
        return index;
    const unsigned shift = (index - kSubBuckets) / kSubBuckets;
    return bucketLowerBound(index) +
           ((static_cast<std::uint64_t>(1) << shift) - 1);
}

void
LatencyHistogram::record(std::uint64_t value)
{
    ++counts_[bucketIndex(value)];
    ++count_;
    sum_ += value;
    max_ = std::max(max_, value);
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    for (unsigned i = 0; i < kBuckets; ++i)
        counts_[i] += other.counts_[i];
    count_ += other.count_;
    sum_ += other.sum_;
    max_ = std::max(max_, other.max_);
}

double
LatencyHistogram::mean() const
{
    return count_ == 0
        ? 0.0
        : static_cast<double>(sum_) / static_cast<double>(count_);
}

std::uint64_t
LatencyHistogram::percentile(double p) const
{
    if (count_ == 0)
        return 0;
    SPECPMT_ASSERT(p >= 0.0 && p <= 100.0);
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(p / 100.0 * static_cast<double>(count_))));
    std::uint64_t seen = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
        seen += counts_[i];
        if (seen >= rank)
            return std::min(bucketUpperBound(i), max_);
    }
    return max_;
}

std::string
LatencyHistogram::toJson() const
{
    std::string out = "{\"count\": " + std::to_string(count_) +
                      ", \"sum\": " + std::to_string(sum_) +
                      ", \"max\": " + std::to_string(max_) +
                      ", \"buckets\": [";
    bool first = true;
    for (unsigned i = 0; i < kBuckets; ++i) {
        if (counts_[i] == 0)
            continue;
        if (!first)
            out += ", ";
        first = false;
        out += "[" + std::to_string(bucketLowerBound(i)) + ", " +
               std::to_string(bucketUpperBound(i)) + ", " +
               std::to_string(counts_[i]) + "]";
    }
    out += "]}";
    return out;
}

void
LatencyHistogram::clear()
{
    counts_.fill(0);
    count_ = 0;
    sum_ = 0;
    max_ = 0;
}

double
geomean(const std::vector<double> &values)
{
    SPECPMT_ASSERT(!values.empty());
    double log_sum = 0.0;
    for (double v : values) {
        SPECPMT_ASSERT(v > 0.0);
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace specpmt
