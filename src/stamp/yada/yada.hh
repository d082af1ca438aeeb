/**
 * @file
 * STAMP yada port: Ruppert-style Delaunay mesh refinement.
 *
 * Worker threads pop the worst "bad" (skinny) triangle from a shared
 * heap, compute an insertion point (circumcenter, falling back to the
 * centroid near the hull), collect the Bowyer–Watson cavity of
 * triangles whose circumcircles contain the point, and replace the
 * cavity with a fan around the new point — all in one transaction.
 * Cavities make yada's transactions the largest in STAMP: only Blue
 * Gene/Q's capacity absorbs them (paper Figures 2/5/10/11).
 */

#ifndef HTMSIM_STAMP_YADA_YADA_HH
#define HTMSIM_STAMP_YADA_YADA_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/region.hh"
#include "stamp/exec.hh"
#include "tmds/tm_heap.hh"

namespace htmsim::stamp
{

struct YadaParams
{
    /** Initial grid columns/rows (each cell splits into 2 triangles). */
    unsigned gridX = 10;
    unsigned gridY = 10;
    /** Cell aspect ratio; > 2.2 makes every initial triangle skinny. */
    double aspect = 2.5;
    /** Minimum-angle threshold in degrees (STAMP default ~20-30). */
    double minAngleDeg = 25.0;
    /** Additional points the refinement may insert. */
    unsigned pointBudget = 220;
    std::uint64_t seed = 60607;

    static YadaParams simDefault() { return {}; }
};

/** One mesh point. */
struct YadaPoint
{
    double x;
    double y;
};

/** One mesh triangle. Edge i connects v[i] and v[(i+1)%3]; n[i] is
 *  the neighbour across that edge (nullptr on the hull). */
struct YadaTriangle
{
    std::uint64_t v[3];
    YadaTriangle* n[3];
    std::uint64_t alive;
    /** Scaled badness (how far below the angle threshold); 0 = good. */
    std::uint64_t badness;
};

/**
 * Work-queue keys pack the priority into the bits above the pointer
 * (user pointers fit in 48 bits), so heap maintenance compares keys
 * without dereferencing triangles — the standard trick to keep the
 * queue's transactional footprint to the heap array itself.
 */
inline std::uint64_t
yadaHeapKey(const YadaTriangle* triangle)
{
    const std::uint64_t clipped =
        std::min<std::uint64_t>(triangle->badness >> 8, 0xffff);
    return clipped << 48 |
           reinterpret_cast<std::uint64_t>(triangle);
}

inline YadaTriangle*
yadaHeapTriangle(std::uint64_t key)
{
    return reinterpret_cast<YadaTriangle*>(key &
                                           0x0000ffffffffffffULL);
}

/** Worst (highest packed badness) first; pure key comparison. */
struct YadaBadnessCompare
{
    template <typename Ctx>
    static int
    compare(Ctx&, std::uint64_t a, std::uint64_t b)
    {
        return a < b ? -1 : (a > b ? 1 : 0);
    }
};

class YadaApp
{
  public:
    explicit YadaApp(YadaParams params) : params_(params) {}

    void setup();

    template <typename Exec>
    void
    worker(Exec& exec)
    {
        // Point indices come from a per-thread slab, mirroring
        // STAMP's per-thread TM allocator pools: refinements do not
        // contend on a shared point counter.
        const unsigned threads = exec.numThreads();
        const std::uint64_t slab =
            std::max<std::uint64_t>(1, params_.pointBudget / threads);
        std::uint64_t cursor = initialPoints_ + exec.tid() * slab;
        const std::uint64_t slab_end =
            std::min<std::uint64_t>(cursor + slab, maxPoints_);

        std::vector<YadaTriangle*> created;
        for (;;) {
            // Transaction 1: pop the worst bad triangle (STAMP's
            // TMheap_remove is its own transaction too).
            YadaTriangle* target = nullptr;
            bool heap_empty = false;
            static const htm::TxSiteId popSite =
                htm::txSite("yada.popBadTriangle");
            exec.atomic(popSite, [&](auto& c) {
                target = nullptr;
                heap_empty = false;
                std::uint64_t raw = 0;
                if (!workHeap_->popMax(c, &raw))
                    heap_empty = true;
                else
                    target = yadaHeapTriangle(raw);
            });
            if (heap_empty)
                break;
            if (cursor >= slab_end)
                continue; // budget exhausted: drain the heap unrefined

            // Transaction 2: the cavity refinement. It touches only
            // mesh state; work-queue maintenance is kept out so two
            // disjoint cavities can refine concurrently.
            bool inserted = false;
            created.clear();
            static const htm::TxSiteId refineSite =
                htm::txSite("yada.refineCavity");
            exec.atomic(refineSite, [&](auto& c) {
                created.clear();
                inserted = false;
                if (c.load(&target->alive) == 0)
                    return; // triangle died since it was queued
                inserted = refine(c, target, created, cursor,
                                  refineScratch_[exec.tid()]);
            });
            if (inserted)
                ++cursor;
            // Register committed triangles for teardown (host-side).
            for (YadaTriangle* triangle : created)
                allTriangles_.push_back(triangle);

            // Transaction 3: queue the new bad triangles (a separate,
            // small transaction, like STAMP's heap maintenance).
            if (!created.empty()) {
                static const htm::TxSiteId queueSite =
                    htm::txSite("yada.queueBadTriangles");
                exec.atomic(queueSite, [&](auto& c) {
                    for (YadaTriangle* triangle : created) {
                        if (c.load(&triangle->alive) == 0)
                            continue; // already re-consumed
                        if (c.load(&triangle->badness) == 0)
                            continue;
                        workHeap_->insert(c, yadaHeapKey(triangle));
                    }
                });
            }
        }
        pointsUsed_[exec.tid()] = cursor - (initialPoints_ +
                                            exec.tid() * slab);
    }

    bool verify() const;

    /** Points inserted by the refinement across all threads. */
    std::size_t
    pointCount() const
    {
        std::size_t used = initialPoints_;
        for (const auto count : pointsUsed_)
            used += count;
        return used;
    }
    std::size_t
    aliveTriangles() const
    {
        std::size_t count = 0;
        for (const YadaTriangle* triangle : allTriangles_)
            count += triangle->alive ? 1 : 0;
        return count;
    }

  private:
    /** Local snapshot of one triangle, loaded through the context. */
    struct TriSnapshot
    {
        std::uint64_t v[3];
        YadaTriangle* n[3];
        double px[3];
        double py[3];
    };

    /** A cavity boundary edge: directed, with its across-neighbour
     *  outside the cavity (nullptr on the hull). */
    struct BoundaryEdge
    {
        std::uint64_t a;
        std::uint64_t b;
        double ax, ay, bx, by;
        YadaTriangle* outside;
        int outsideEdge;
    };

    /** One new fan triangle (a, b, p) around the inserted point. */
    struct FanEntry
    {
        YadaTriangle* triangle;
        std::uint64_t a;
        std::uint64_t b;
    };

    /**
     * One thread's refinement containers. An abort abandons refine()'s
     * frames without running their destructors (tx.hh), so the body
     * owns no container: refine() clears these first and reuses their
     * capacity. The hash containers only answer count/find, so a
     * reused table gives the same results as a fresh one.
     */
    struct RefineScratch
    {
        /** Cavity triangles in BFS discovery order. */
        std::vector<std::pair<YadaTriangle*, TriSnapshot>> cavity;
        std::unordered_set<YadaTriangle*> inCavity;
        std::vector<BoundaryEdge> boundary;
        std::vector<FanEntry> fan;
        /** Fan triangle by its first vertex. */
        std::unordered_map<std::uint64_t, YadaTriangle*> byA;

        void
        clear()
        {
            cavity.clear();
            inCavity.clear();
            boundary.clear();
            fan.clear();
            byA.clear();
        }
    };

    template <typename Ctx>
    TriSnapshot
    snapshot(Ctx& c, YadaTriangle* triangle)
    {
        TriSnapshot snap;
        for (int i = 0; i < 3; ++i) {
            snap.v[i] = c.load(&triangle->v[i]);
            snap.n[i] = c.load(&triangle->n[i]);
            snap.px[i] = c.load(&points_[snap.v[i]].x);
            snap.py[i] = c.load(&points_[snap.v[i]].y);
        }
        return snap;
    }

    /** One Bowyer–Watson insertion; fills @p created and returns
     *  true when a point was inserted at @p point_index. */
    template <typename Ctx>
    bool
    refine(Ctx& c, YadaTriangle* target,
           std::vector<YadaTriangle*>& created,
           std::uint64_t point_index, RefineScratch& scratch)
    {
        scratch.clear();
        auto& cavity = scratch.cavity;
        auto& in_cavity = scratch.inCavity;
        auto& boundary = scratch.boundary;
        auto& fan = scratch.fan;
        auto& by_a = scratch.byA;
        TriSnapshot seed_snap = snapshot(c, target);

        // Insertion point: circumcenter when it is safely interior,
        // else the centroid (always interior to the seed triangle).
        double px = 0.0;
        double py = 0.0;
        bool use_centroid = !circumcenter(seed_snap, &px, &py) ||
                            px < margin_ || px > width_ - margin_ ||
                            py < margin_ || py > height_ - margin_;
        YadaTriangle* seed = target;
        if (!use_centroid) {
            seed = locate(c, target, px, py, 64);
            if (seed == nullptr)
                use_centroid = true;
        }
        if (use_centroid) {
            seed = target;
            px = (seed_snap.px[0] + seed_snap.px[1] + seed_snap.px[2]) /
                 3.0;
            py = (seed_snap.py[0] + seed_snap.py[1] + seed_snap.py[2]) /
                 3.0;
        }

        // Cavity: connected triangles whose circumcircle contains the
        // point. Kept in BFS discovery order so iteration (and hence
        // the whole simulation) is deterministic across runs.
        cavity.emplace_back(seed, snapshot(c, seed));
        in_cavity.insert(seed);
        for (std::size_t at = 0; at < cavity.size(); ++at) {
            const TriSnapshot snap = cavity[at].second;
            for (int i = 0; i < 3; ++i) {
                YadaTriangle* next = snap.n[i];
                if (next == nullptr || in_cavity.count(next) != 0)
                    continue;
                if (c.load(&next->alive) == 0)
                    continue; // stale link; skip defensively
                TriSnapshot next_snap = snapshot(c, next);
                if (inCircumcircle(next_snap, px, py)) {
                    cavity.emplace_back(next, next_snap);
                    in_cavity.insert(next);
                }
            }
            c.work(60);
        }

        // Cavity boundary: directed edges whose across-neighbour is
        // outside the cavity (or the hull).
        for (const auto& [triangle, snap] : cavity) {
            (void)triangle;
            for (int i = 0; i < 3; ++i) {
                YadaTriangle* outside = snap.n[i];
                if (outside != nullptr &&
                    in_cavity.count(outside) != 0) {
                    continue;
                }
                BoundaryEdge edge;
                edge.a = snap.v[i];
                edge.b = snap.v[(i + 1) % 3];
                edge.ax = snap.px[i];
                edge.ay = snap.py[i];
                edge.bx = snap.px[(i + 1) % 3];
                edge.by = snap.py[(i + 1) % 3];
                edge.outside = outside;
                edge.outsideEdge = -1;
                if (outside != nullptr) {
                    const TriSnapshot out_snap = snapshot(c, outside);
                    for (int k = 0; k < 3; ++k) {
                        if (out_snap.v[k] == edge.b &&
                            out_snap.v[(k + 1) % 3] == edge.a) {
                            edge.outsideEdge = k;
                        }
                    }
                    if (edge.outsideEdge < 0)
                        return false; // inconsistent link; refuse
                }
                boundary.push_back(edge);
            }
        }
        if (boundary.size() < 3)
            return false;
        // The point must be strictly inside the cavity boundary.
        for (const BoundaryEdge& edge : boundary) {
            if (orient2d(edge.ax, edge.ay, edge.bx, edge.by, px, py) <=
                1e-12) {
                return false; // degenerate; drop this refinement
            }
        }

        // Write the new point into this thread's slab slot.
        c.store(&points_[point_index].x, px);
        c.store(&points_[point_index].y, py);

        // Kill the cavity.
        for (const auto& [triangle, snap] : cavity) {
            (void)snap;
            c.store(&triangle->alive, std::uint64_t(0));
        }

        // Build the fan: one triangle (a, b, p) per boundary edge.
        fan.reserve(boundary.size());
        for (const BoundaryEdge& edge : boundary) {
            const double badness = triangleBadness(
                edge.ax, edge.ay, edge.bx, edge.by, px, py);
            auto* fresh = c.template create<YadaTriangle>(
                YadaTriangle{{edge.a, edge.b, point_index},
                             {edge.outside, nullptr, nullptr},
                             1,
                             std::uint64_t(badness * 1e6)});
            if (edge.outside != nullptr) {
                c.store(&edge.outside->n[edge.outsideEdge], fresh);
            }
            fan.push_back({fresh, edge.a, edge.b});
            c.work(120);
        }

        // Stitch fan neighbours: triangle with edge (b, p) pairs with
        // the fan triangle whose a == this b.
        for (const FanEntry& entry : fan)
            by_a[entry.a] = entry.triangle;
        for (const FanEntry& entry : fan) {
            // Edge 1 of (a, b, p) is (b, p): partner is fan tri with
            // a == b. Edge 2 is (p, a): partner has b == a, i.e. the
            // tri whose edge 1 we set symmetrically.
            auto partner = by_a.find(entry.b);
            if (partner != by_a.end()) {
                c.store(&entry.triangle->n[1], partner->second);
                c.store(&partner->second->n[2], entry.triangle);
            }
        }

        for (const FanEntry& entry : fan)
            created.push_back(entry.triangle);
        return true;
    }

    /** Walk from @p start towards (x, y); nullptr when lost. */
    template <typename Ctx>
    YadaTriangle*
    locate(Ctx& c, YadaTriangle* start, double x, double y,
           unsigned max_steps)
    {
        YadaTriangle* at = start;
        for (unsigned step = 0; step < max_steps; ++step) {
            if (c.load(&at->alive) == 0)
                return nullptr;
            const TriSnapshot snap = snapshot(c, at);
            bool moved = false;
            for (int i = 0; i < 3; ++i) {
                if (orient2d(snap.px[i], snap.py[i],
                             snap.px[(i + 1) % 3],
                             snap.py[(i + 1) % 3], x, y) < 0.0) {
                    if (snap.n[i] == nullptr)
                        return nullptr; // point outside the hull side
                    at = snap.n[i];
                    moved = true;
                    break;
                }
            }
            if (!moved)
                return at; // inside (or on) all edges
        }
        return nullptr;
    }

    // Geometry helpers (host math on snapshot coordinates).
    static double orient2d(double ax, double ay, double bx, double by,
                           double cx, double cy);
    static bool circumcenter(const TriSnapshot& snap, double* x,
                             double* y);
    static bool inCircumcircle(const TriSnapshot& snap, double x,
                               double y);
    /** 0 when the triangle meets the angle bound, else the deficit. */
    double triangleBadness(double ax, double ay, double bx, double by,
                           double cx, double cy) const;

    YadaParams params_;
    double width_ = 0.0;
    double height_ = 0.0;
    double margin_ = 0.0;
    std::uint64_t maxPoints_ = 0;
    std::uint64_t initialPoints_ = 0;

    sim::Vector<YadaPoint> points_;
    std::array<std::uint64_t, 64> pointsUsed_{};
    std::array<RefineScratch, 64> refineScratch_;
    std::vector<YadaTriangle*> allTriangles_;
    sim::Ptr<tmds::TmHeap<YadaBadnessCompare>> workHeap_;
};

} // namespace htmsim::stamp

#endif // HTMSIM_STAMP_YADA_YADA_HH
