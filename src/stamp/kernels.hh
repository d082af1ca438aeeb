/**
 * @file
 * Distilled STAMP transaction kernels for simcheck.
 *
 * The full STAMP apps (kmeans.cc, vacation.cc, ...) run phased
 * workloads behind their own harness; the differential oracle in
 * src/check needs the *transactions* those apps execute, reshaped as
 * independent deterministic operations it can replay in an arbitrary
 * serial order. This header distills the two smallest STAMP
 * transaction shapes:
 *
 *  - KmeansAccumKernel — kmeans' accumulator add: one counter
 *    increment plus D accumulator additions into a shared cluster
 *    (STAMP's smallest transaction; commutative state, but the
 *    returned post-increment count orders the adds, so lost updates
 *    still surface in the oracle's result comparison);
 *  - ReservationKernel — vacation's reserve/cancel on a capacity-
 *    bounded resource table: a read-test-write transaction whose
 *    success result and final occupancy both expose stale reads.
 *
 * Kernels are context-templated like the tmds structures, so the same
 * code runs transactionally, under the global-lock replay, and via
 * DirectContext for setup/fingerprinting.
 */

#ifndef HTMSIM_STAMP_KERNELS_HH
#define HTMSIM_STAMP_KERNELS_HH

#include <cstdint>

#include "sim/region.hh"

namespace htmsim::stamp
{

/** kmeans' per-point transaction over K shared cluster accumulators. */
class KmeansAccumKernel
{
  public:
    KmeansAccumKernel(unsigned clusters, unsigned dims)
        : dims_(dims), counts_(clusters, 0),
          sums_(std::size_t(clusters) * dims, 0)
    {
    }

    unsigned clusters() const { return unsigned(counts_.size()); }
    unsigned dims() const { return dims_; }

    /**
     * Add a point (@p features, dims() entries) into @p cluster.
     * @return the cluster's post-add membership count.
     */
    template <typename Ctx>
    std::uint64_t
    add(Ctx& c, unsigned cluster, const std::uint64_t* features)
    {
        std::uint64_t* sums = &sums_[std::size_t(cluster) * dims_];
        for (unsigned d = 0; d < dims_; ++d)
            c.store(&sums[d], c.load(&sums[d]) + features[d]);
        const std::uint64_t count = c.load(&counts_[cluster]) + 1;
        c.store(&counts_[cluster], count);
        return count;
    }

    /** Structural digest of all counts and sums. */
    template <typename Ctx, typename Fold>
    void
    digest(Ctx& c, Fold&& fold)
    {
        for (std::uint64_t& count : counts_)
            fold(c.load(&count));
        for (std::uint64_t& sum : sums_)
            fold(c.load(&sum));
    }

  private:
    unsigned dims_;
    sim::Vector<std::uint64_t> counts_;
    sim::Vector<std::uint64_t> sums_;
};

/** vacation's reserve/cancel over a capacity-bounded resource table. */
class ReservationKernel
{
  public:
    ReservationKernel(unsigned resources, std::uint64_t capacity)
        : capacity_(capacity), used_(resources, 0), revenue_(0)
    {
    }

    unsigned resources() const { return unsigned(used_.size()); }

    /**
     * Try to reserve one unit of @p resource at @p price.
     * @return the new occupancy on success, 0 when full.
     */
    template <typename Ctx>
    std::uint64_t
    reserve(Ctx& c, unsigned resource, std::uint64_t price)
    {
        const std::uint64_t used = c.load(&used_[resource]);
        if (used >= capacity_)
            return 0;
        c.store(&used_[resource], used + 1);
        c.store(&revenue_, c.load(&revenue_) + price);
        return used + 1;
    }

    /**
     * Cancel one unit of @p resource, refunding @p price.
     * @return the new occupancy + 1 on success, 0 when empty.
     */
    template <typename Ctx>
    std::uint64_t
    cancel(Ctx& c, unsigned resource, std::uint64_t price)
    {
        const std::uint64_t used = c.load(&used_[resource]);
        if (used == 0)
            return 0;
        c.store(&used_[resource], used - 1);
        c.store(&revenue_, c.load(&revenue_) - price);
        return used;
    }

    /** Structural digest of occupancies and revenue. */
    template <typename Ctx, typename Fold>
    void
    digest(Ctx& c, Fold&& fold)
    {
        for (std::uint64_t& used : used_)
            fold(c.load(&used));
        fold(c.load(&revenue_));
    }

  private:
    std::uint64_t capacity_;
    sim::Vector<std::uint64_t> used_;
    std::uint64_t revenue_;
};

} // namespace htmsim::stamp

#endif // HTMSIM_STAMP_KERNELS_HH
