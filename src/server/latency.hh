/**
 * @file
 * Allocation-free latency histogram (HDR-style fixed log buckets).
 *
 * The server benchmark records one latency sample per committed
 * operation while the simulation runs, so recording must be cheap and
 * must not allocate. The histogram is therefore a
 * fixed std::array of buckets: values below 2^kSubBucketBits are exact;
 * above that, each power of two is split into 2^kSubBucketBits
 * sub-buckets, bounding the relative quantization error at ~3% — ample
 * for p50/p99/p999 reporting.
 *
 * percentile() returns the upper bound of the bucket containing the
 * requested rank, so reported percentiles are conservative (never
 * under-state the latency) and merging histograms (operator+=) is
 * exact.
 */

#ifndef HTMSIM_SERVER_LATENCY_HH
#define HTMSIM_SERVER_LATENCY_HH

#include <algorithm>
#include <array>
#include <cstdint>

namespace htmsim::server
{

class LatencyHistogram
{
  public:
    static constexpr unsigned kSubBucketBits = 5;
    static constexpr unsigned kSubBuckets = 1u << kSubBucketBits;
    /** Buckets cover the full uint64 range. */
    static constexpr unsigned kBuckets =
        (64 - kSubBucketBits + 1) * kSubBuckets;

    void
    record(std::uint64_t value)
    {
        ++counts_[bucketIndex(value)];
        ++total_;
        sum_ += value;
        max_ = std::max(max_, value);
    }

    std::uint64_t count() const { return total_; }
    std::uint64_t max() const { return max_; }

    double
    mean() const
    {
        return total_ == 0 ? 0.0 : double(sum_) / double(total_);
    }

    /**
     * Smallest bucket upper bound covering fraction @p p of samples
     * (p in (0, 1]; e.g. 0.999 for p999). 0 when empty.
     */
    std::uint64_t
    percentile(double p) const
    {
        if (total_ == 0)
            return 0;
        const double want = p * double(total_);
        std::uint64_t rank = std::uint64_t(want);
        if (double(rank) < want)
            ++rank;
        rank = std::max<std::uint64_t>(rank, 1);
        std::uint64_t seen = 0;
        for (unsigned bucket = 0; bucket < kBuckets; ++bucket) {
            seen += counts_[bucket];
            if (seen >= rank)
                return std::min(bucketUpperBound(bucket), max_);
        }
        return max_;
    }

    LatencyHistogram&
    operator+=(const LatencyHistogram& other)
    {
        for (unsigned bucket = 0; bucket < kBuckets; ++bucket)
            counts_[bucket] += other.counts_[bucket];
        total_ += other.total_;
        sum_ += other.sum_;
        max_ = std::max(max_, other.max_);
        return *this;
    }

    /** Bucket for @p value (public for tests). */
    static unsigned
    bucketIndex(std::uint64_t value)
    {
        if (value < kSubBuckets)
            return unsigned(value);
        const unsigned exponent =
            63 - unsigned(__builtin_clzll(value));
        const unsigned sub = unsigned(
            (value >> (exponent - kSubBucketBits)) & (kSubBuckets - 1));
        return (exponent - kSubBucketBits + 1) * kSubBuckets + sub;
    }

    /** Largest value mapping to @p bucket (public for tests). */
    static std::uint64_t
    bucketUpperBound(unsigned bucket)
    {
        if (bucket < kSubBuckets)
            return bucket;
        const unsigned exponent =
            bucket / kSubBuckets + kSubBucketBits - 1;
        const std::uint64_t sub = bucket % kSubBuckets;
        const unsigned shift = exponent - kSubBucketBits;
        return ((kSubBuckets + sub + 1) << shift) - 1;
    }

  private:
    std::array<std::uint64_t, kBuckets> counts_{};
    std::uint64_t total_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t max_ = 0;
};

} // namespace htmsim::server

#endif // HTMSIM_SERVER_LATENCY_HH
