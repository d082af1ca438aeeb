/**
 * @file
 * STAMP ssca2 port: kernel 1 of the Scalable Synthetic Compact
 * Application #2 — parallel construction of a compressed sparse graph
 * from an edge list.
 *
 * The transactions are the smallest in the suite (one to three shared
 * accesses), so per-transaction overhead dominates. On Blue Gene/Q the
 * sheer transaction rate exhausts the 128 speculation IDs and the
 * reclamation pass becomes the bottleneck (Section 5.1).
 */

#ifndef HTMSIM_STAMP_SSCA2_SSCA2_HH
#define HTMSIM_STAMP_SSCA2_SSCA2_HH

#include <cstdint>
#include <vector>

#include "sim/region.hh"
#include "stamp/exec.hh"

namespace htmsim::stamp
{

struct Ssca2Params
{
    unsigned numVertices = 512;
    unsigned numEdges = 4096;
    unsigned chunkSize = 8;
    std::uint64_t seed = 777;

    static Ssca2Params simDefault() { return {}; }
};

class Ssca2App
{
  public:
    explicit Ssca2App(Ssca2Params params) : params_(params) {}

    void setup();

    template <typename Exec>
    void
    worker(Exec& exec)
    {
        const unsigned edges = params_.numEdges;

        // Phase 1: transactional degree counting.
        for (;;) {
            const std::uint32_t begin = exec.fetchAdd(
                cursor1_.get(), std::uint32_t(params_.chunkSize));
            if (begin >= edges)
                break;
            const unsigned end =
                std::min<unsigned>(begin + params_.chunkSize, edges);
            for (unsigned e = begin; e < end; ++e) {
                const std::uint32_t u = edgeSources_[e];
                static const htm::TxSiteId degreeSite =
                    htm::txSite("ssca2.countDegree");
                exec.atomic(degreeSite, [&](auto& c) {
                    c.store(&degree_[u], c.load(&degree_[u]) + 1);
                });
                exec.work(140); // per-edge decode/bookkeeping compute
            }
        }
        exec.barrier();

        // Serial prefix sum of the offsets (thread 0, timed).
        if (exec.tid() == 0) {
            std::uint64_t running = 0;
            for (unsigned v = 0; v < params_.numVertices; ++v) {
                offset_[v] = running;
                running += degree_[v];
                exec.work(4);
            }
            offset_[params_.numVertices] = running;
        }
        exec.barrier();

        // Phase 2: transactional adjacency fill.
        for (;;) {
            const std::uint32_t begin = exec.fetchAdd(
                cursor2_.get(), std::uint32_t(params_.chunkSize));
            if (begin >= edges)
                break;
            const unsigned end =
                std::min<unsigned>(begin + params_.chunkSize, edges);
            for (unsigned e = begin; e < end; ++e) {
                const std::uint32_t u = edgeSources_[e];
                const std::uint32_t v = edgeTargets_[e];
                static const htm::TxSiteId adjacencySite =
                    htm::txSite("ssca2.insertAdjacency");
                exec.atomic(adjacencySite, [&](auto& c) {
                    const std::uint64_t slot = c.load(&fill_[u]);
                    c.store(&fill_[u], slot + 1);
                    c.store(&adjacency_[offset_[u] + slot],
                            std::uint64_t(v));
                });
                exec.work(140);
            }
        }
    }

    bool verify() const;

    const sim::Vector<std::uint64_t>& adjacency() const
    {
        return adjacency_;
    }

  private:
    Ssca2Params params_;
    std::vector<std::uint32_t> edgeSources_;
    std::vector<std::uint32_t> edgeTargets_;
    sim::Vector<std::uint64_t> degree_;
    sim::Vector<std::uint64_t> fill_;
    std::vector<std::uint64_t> offset_;
    sim::Vector<std::uint64_t> adjacency_;
    /** Next edge of each phase (shared counters). */
    sim::Ptr<std::uint32_t> cursor1_;
    sim::Ptr<std::uint32_t> cursor2_;
};

} // namespace htmsim::stamp

#endif // HTMSIM_STAMP_SSCA2_SSCA2_HH
