/**
 * @file
 * STAMP labyrinth port: Lee-style maze routing in a 3D grid.
 *
 * Each route is one giant transaction: the thread copies the entire
 * shared grid transactionally (every cell enters the read set — the
 * suite's largest read footprint), expands a shortest path on the
 * private copy, and transactionally claims the path cells. Any path
 * committed by a peer during the copy conflicts and restarts the
 * route. POWER8's 8 KB capacity cannot hold the copy at all, so it
 * serializes on the global lock; zEC12's 8 KB store cache overflows on
 * long paths — labyrinth barely scales anywhere (paper Figures 2/5).
 */

#ifndef HTMSIM_STAMP_LABYRINTH_LABYRINTH_HH
#define HTMSIM_STAMP_LABYRINTH_LABYRINTH_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/region.hh"
#include "stamp/exec.hh"

namespace htmsim::stamp
{

struct LabyrinthParams
{
    unsigned width = 24;
    unsigned height = 24;
    unsigned depth = 2;
    unsigned numPaths = 20;
    /** Percent of cells that are walls. */
    unsigned wallPct = 8;
    std::uint64_t seed = 5150;

    static LabyrinthParams simDefault() { return {}; }
};

class LabyrinthApp
{
  public:
    explicit LabyrinthApp(LabyrinthParams params) : params_(params) {}

    void setup();

    template <typename Exec>
    void
    worker(Exec& exec)
    {
        for (;;) {
            const std::uint32_t index =
                exec.fetchAdd(cursor_.get(), std::uint32_t(1));
            if (index >= params_.numPaths)
                break;
            bool routed = false;
            static const htm::TxSiteId routeSite =
                htm::txSite("labyrinth.routePath");
            exec.atomic(routeSite, [&](auto& c) {
                routed = routeOne(c, exec.tid(), index);
            });
            routed_[index] = routed ? 1 : 0;
        }
    }

    bool verify() const;

    unsigned
    routedCount() const
    {
        unsigned count = 0;
        for (const auto flag : routed_)
            count += flag;
        return count;
    }

  private:
    static constexpr std::int64_t wall = -1;

    std::size_t cells() const
    {
        return std::size_t(params_.width) * params_.height *
               params_.depth;
    }

    std::size_t
    cellIndex(unsigned x, unsigned y, unsigned z) const
    {
        return (std::size_t(z) * params_.height + y) * params_.width +
               x;
    }

    /**
     * One routing attempt inside a transaction. Returns false when no
     * path exists (the transaction still commits read-only).
     */
    template <typename Ctx>
    bool
    routeOne(Ctx& c, unsigned tid, std::uint32_t index)
    {
        const std::size_t n = cells();
        auto& scratch = scratch_[tid];
        scratch.assign(n, -2); // -2 = blocked, >= -1 = BFS distance

        // Transactional full-grid copy (the signature move of
        // labyrinth: every cell joins the read set). Reserved cells
        // (other routes' endpoints) are blocked for everyone else.
        for (std::size_t i = 0; i < n; ++i) {
            const std::int64_t value = c.load(&grid_[i]);
            scratch[i] = value == 0 ? -1 : -2;
        }
        c.work(sim::Cycles(n));

        const std::size_t src = sources_[index];
        const std::size_t dst = targets_[index];
        scratch[dst] = -1;
        scratch[src] = 0;

        // BFS expansion on the private copy.
        auto& queue = bfsQueue_[tid];
        queue.clear();
        queue.push_back(src);
        bool found = false;
        for (std::size_t head = 0; head < queue.size() && !found;
             ++head) {
            const std::size_t at = queue[head];
            for (const std::size_t next : neighbours(at)) {
                if (scratch[next] != -1)
                    continue;
                scratch[next] = scratch[at] + 1;
                if (next == dst) {
                    found = true;
                    break;
                }
                queue.push_back(next);
            }
        }
        c.work(sim::Cycles(queue.size()) * 2);
        if (!found)
            return false;

        // Back-trace and transactionally claim the path.
        const std::int64_t path_id = std::int64_t(index) + 1;
        std::size_t at = dst;
        while (at != src) {
            c.store(&grid_[at], path_id);
            const std::int64_t distance = scratch[at];
            for (const std::size_t prev : neighbours(at)) {
                if (scratch[prev] == distance - 1) {
                    at = prev;
                    break;
                }
            }
        }
        c.store(&grid_[src], path_id);
        return true;
    }

    /** In-grid orthogonal neighbours of a cell. */
    std::vector<std::size_t> neighbours(std::size_t index) const;

    LabyrinthParams params_;
    sim::Vector<std::int64_t> grid_;
    std::vector<std::size_t> sources_;
    std::vector<std::size_t> targets_;
    std::vector<std::uint8_t> routed_;
    std::array<std::vector<std::int64_t>, 64> scratch_;
    std::array<std::vector<std::size_t>, 64> bfsQueue_;
    /** Next path to route (a shared counter). */
    sim::Ptr<std::uint32_t> cursor_;
};

} // namespace htmsim::stamp

#endif // HTMSIM_STAMP_LABYRINTH_LABYRINTH_HH
