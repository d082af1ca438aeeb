/**
 * @file
 * STAMP kmeans port: iterative K-means clustering.
 *
 * Each point is assigned to its nearest center (pure compute, reads of
 * stable data) and then a small transaction adds the point into the
 * chosen cluster's accumulator — one integer and D floats, STAMP's
 * smallest transactions.
 *
 * Variants (paper Section 4):
 *  - original: cluster accumulators packed with padding but *not*
 *    aligned to cache lines, so two clusters can share a line and
 *    cause false conflicts (worst on zEC12's 256-byte lines);
 *  - modified: accumulators aligned to 256-byte boundaries.
 *
 * High/low contention follows STAMP: fewer clusters = more contention.
 */

#ifndef HTMSIM_STAMP_KMEANS_KMEANS_HH
#define HTMSIM_STAMP_KMEANS_KMEANS_HH

#include <cstdint>
#include <vector>

#include "sim/region.hh"
#include "stamp/exec.hh"

namespace htmsim::stamp
{

struct KmeansParams
{
    /** Number of points. */
    unsigned numPoints = 1024;
    /** Dimensions per point (STAMP's non-simulator input uses 32;
     *  the 132-byte accumulator then rounds to 192 bytes = an odd
     *  number of 64-byte lines, which is what exposes Intel's
     *  buddy-line prefetcher, Section 5.1). */
    unsigned numDims = 32;
    /** Clusters (15 = high contention, 40 = low, as in STAMP). */
    unsigned numClusters = 15;
    /** Fixed iteration count (determinism; STAMP iterates ~10x). */
    unsigned iterations = 6;
    /** Paper's alignment fix applied? */
    bool modified = true;
    /** Alignment/stride of one cluster accumulator in the modified
     *  variant: the target machine's cache line (the paper's patch
     *  pads per platform). */
    unsigned alignBytes = 128;
    /** Points fetched per work-queue grab. */
    unsigned chunkSize = 4;
    /** Workload generation seed. */
    std::uint64_t seed = 12345;

    static KmeansParams highContention(bool modified_variant = true);
    static KmeansParams lowContention(bool modified_variant = true);
};

/** One K-means benchmark instance. */
class KmeansApp
{
  public:
    explicit KmeansApp(KmeansParams params) : params_(params) {}

    /** Generate points and the (mis)aligned accumulator arena. */
    void setup();

    /** Timed region: `iterations` rounds of assign + accumulate. */
    template <typename Exec>
    void
    worker(Exec& exec)
    {
        for (unsigned iteration = 0; iteration < params_.iterations;
             ++iteration) {
            workerIteration(exec);
            exec.barrier();
            if (exec.tid() == 0)
                finishIteration(exec);
            exec.barrier();
        }
    }

    bool verify() const;

    /** Final per-cluster sizes (for tests). */
    const std::vector<unsigned>& clusterSizes() const
    {
        return clusterSizes_;
    }

  private:
    /** Accumulator field accessors into the (mis)aligned arena. */
    std::uint32_t* countOf(unsigned cluster);
    float* sumOf(unsigned cluster, unsigned dim);

    template <typename Exec>
    void
    workerIteration(Exec& exec)
    {
        const unsigned n = params_.numPoints;
        const unsigned dims = params_.numDims;
        for (;;) {
            const std::uint32_t begin = exec.fetchAdd(
                nextPoint_.get(), std::uint32_t(params_.chunkSize));
            if (begin >= n)
                break;
            const unsigned end =
                std::min<unsigned>(begin + params_.chunkSize, n);
            for (unsigned point = begin; point < end; ++point) {
                // Nearest-center search: reads of stable data, pure
                // compute — charged as work, not transactional.
                const unsigned cluster = nearestCenter(point);
                exec.work(sim::Cycles(3) * params_.numClusters * dims);
                membership_[point] = cluster;

                static const htm::TxSiteId accumulateSite =
                    htm::txSite("kmeans.accumulate");
                exec.atomic(accumulateSite, [&](auto& c) {
                    std::uint32_t* count = countOf(cluster);
                    c.store(count, c.load(count) + 1);
                    for (unsigned d = 0; d < dims; ++d) {
                        float* sum = sumOf(cluster, d);
                        c.store(sum,
                                c.load(sum) +
                                    points_[point * dims + d]);
                    }
                });
            }
        }
    }

    /** Serial end-of-iteration: recompute centers, reset arena. */
    template <typename Exec>
    void
    finishIteration(Exec& exec)
    {
        const unsigned dims = params_.numDims;
        for (unsigned cluster = 0; cluster < params_.numClusters;
             ++cluster) {
            const std::uint32_t count = *countOf(cluster);
            clusterSizes_[cluster] = count;
            for (unsigned d = 0; d < dims; ++d) {
                if (count > 0) {
                    centers_[cluster * dims + d] =
                        *sumOf(cluster, d) / float(count);
                }
                *sumOf(cluster, d) = 0.0f;
            }
            *countOf(cluster) = 0;
            exec.work(dims * 4);
        }
        *nextPoint_ = 0;
    }

    unsigned nearestCenter(unsigned point) const;

    KmeansParams params_;
    std::vector<float> points_;
    std::vector<float> centers_;
    std::vector<unsigned> membership_;
    std::vector<unsigned> clusterSizes_;

    /** Accumulator arena; layout depends on the variant. */
    sim::Vector<char> arena_;
    std::size_t clusterStride_ = 0;
    std::size_t arenaBase_ = 0;

    /** Next point to assign (a shared counter). */
    sim::Ptr<std::uint32_t> nextPoint_;
};

} // namespace htmsim::stamp

#endif // HTMSIM_STAMP_KMEANS_KMEANS_HH
