#include "yada.hh"

#include <cmath>
#include <map>

#include "htm/context.hh"
#include "sim/random.hh"
#include "sim/region.hh"

namespace htmsim::stamp
{

double
YadaApp::orient2d(double ax, double ay, double bx, double by, double cx,
                  double cy)
{
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax);
}

bool
YadaApp::circumcenter(const TriSnapshot& snap, double* x, double* y)
{
    const double ax = snap.px[0], ay = snap.py[0];
    const double bx = snap.px[1], by = snap.py[1];
    const double cx = snap.px[2], cy = snap.py[2];
    const double d =
        2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by));
    if (std::fabs(d) < 1e-12)
        return false;
    const double a2 = ax * ax + ay * ay;
    const double b2 = bx * bx + by * by;
    const double c2 = cx * cx + cy * cy;
    *x = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d;
    *y = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d;
    return true;
}

bool
YadaApp::inCircumcircle(const TriSnapshot& snap, double x, double y)
{
    double ccx = 0.0;
    double ccy = 0.0;
    if (!circumcenter(snap, &ccx, &ccy))
        return false;
    const double radius2 =
        (snap.px[0] - ccx) * (snap.px[0] - ccx) +
        (snap.py[0] - ccy) * (snap.py[0] - ccy);
    const double distance2 =
        (x - ccx) * (x - ccx) + (y - ccy) * (y - ccy);
    return distance2 < radius2 * (1.0 - 1e-12);
}

double
YadaApp::triangleBadness(double ax, double ay, double bx, double by,
                         double cx, double cy) const
{
    const double a2 = (bx - cx) * (bx - cx) + (by - cy) * (by - cy);
    const double b2 = (ax - cx) * (ax - cx) + (ay - cy) * (ay - cy);
    const double c2 = (ax - bx) * (ax - bx) + (ay - by) * (ay - by);
    const double a = std::sqrt(a2);
    const double b = std::sqrt(b2);
    const double c = std::sqrt(c2);
    if (a < 1e-12 || b < 1e-12 || c < 1e-12)
        return 0.0;
    // Angles via the law of cosines; clamp for safety.
    auto angle = [](double opposite2, double s1, double s2,
                    double s12, double s22) {
        double cosine = (s12 + s22 - opposite2) / (2.0 * s1 * s2);
        cosine = std::min(1.0, std::max(-1.0, cosine));
        return std::acos(cosine) * 180.0 / 3.14159265358979323846;
    };
    const double alpha = angle(a2, b, c, b2, c2);
    const double beta = angle(b2, a, c, a2, c2);
    const double gamma = 180.0 - alpha - beta;
    const double min_angle =
        std::min(alpha, std::min(beta, gamma));
    if (min_angle >= params_.minAngleDeg)
        return 0.0;
    return params_.minAngleDeg - min_angle;
}

void
YadaApp::setup()
{
    sim::Rng rng(params_.seed);
    const unsigned gx = params_.gridX;
    const unsigned gy = params_.gridY;
    width_ = gx * params_.aspect;
    height_ = double(gy);
    margin_ = 0.25;

    const std::uint64_t initial_points =
        std::uint64_t(gx + 1) * (gy + 1);
    initialPoints_ = initial_points;
    maxPoints_ = initial_points + params_.pointBudget;
    points_.assign(maxPoints_, YadaPoint{0.0, 0.0});
    pointsUsed_.fill(0);

    auto point_index = [&](unsigned i, unsigned j) {
        return std::uint64_t(j) * (gx + 1) + i;
    };
    for (unsigned j = 0; j <= gy; ++j) {
        for (unsigned i = 0; i <= gx; ++i) {
            double x = double(i) * params_.aspect;
            double y = double(j);
            const bool interior =
                i > 0 && i < gx && j > 0 && j < gy;
            if (interior) {
                x += (rng.nextDouble() - 0.5) * 0.3;
                y += (rng.nextDouble() - 0.5) * 0.3;
            }
            points_[point_index(i, j)] = {x, y};
        }
    }
    // Two CCW triangles per cell.
    allTriangles_.clear();
    for (unsigned j = 0; j < gy; ++j) {
        for (unsigned i = 0; i < gx; ++i) {
            const std::uint64_t p00 = point_index(i, j);
            const std::uint64_t p10 = point_index(i + 1, j);
            const std::uint64_t p01 = point_index(i, j + 1);
            const std::uint64_t p11 = point_index(i + 1, j + 1);
            htm::DirectContext direct;
            allTriangles_.push_back(
                direct.create<YadaTriangle>(YadaTriangle{
                    {p00, p10, p11}, {nullptr, nullptr, nullptr}, 1,
                    0}));
            allTriangles_.push_back(
                direct.create<YadaTriangle>(YadaTriangle{
                    {p00, p11, p01}, {nullptr, nullptr, nullptr}, 1,
                    0}));
        }
    }

    // Link neighbours via an undirected edge map.
    std::map<std::pair<std::uint64_t, std::uint64_t>,
             std::pair<YadaTriangle*, int>> edges;
    for (YadaTriangle* triangle : allTriangles_) {
        for (int i = 0; i < 3; ++i) {
            const std::uint64_t a = triangle->v[i];
            const std::uint64_t b = triangle->v[(i + 1) % 3];
            const auto key = std::minmax(a, b);
            auto it = edges.find(key);
            if (it == edges.end()) {
                edges.emplace(key, std::make_pair(triangle, i));
            } else {
                triangle->n[i] = it->second.first;
                it->second.first->n[it->second.second] = triangle;
            }
        }
    }

    // Compute badness and queue the skinny triangles. The queueing
    // order is shuffled: with near-equal badness values a row-major
    // order would hand concurrent workers *adjacent* triangles, whose
    // cavities always overlap — an artifact no irregular real-world
    // mesh has.
    workHeap_ = sim::make<tmds::TmHeap<YadaBadnessCompare>>(
        allTriangles_.size() * 4);
    htm::DirectContext c;
    std::vector<YadaTriangle*> bad;
    for (YadaTriangle* triangle : allTriangles_) {
        const double badness = triangleBadness(
            points_[triangle->v[0]].x, points_[triangle->v[0]].y,
            points_[triangle->v[1]].x, points_[triangle->v[1]].y,
            points_[triangle->v[2]].x, points_[triangle->v[2]].y);
        triangle->badness = std::uint64_t(badness * 1e6);
        if (triangle->badness > 0)
            bad.push_back(triangle);
    }
    for (std::size_t i = bad.size(); i > 1; --i)
        std::swap(bad[i - 1], bad[rng.nextRange(i)]);
    for (YadaTriangle* triangle : bad)
        workHeap_->insert(c, yadaHeapKey(triangle));
}

bool
YadaApp::verify() const
{
    if (pointCount() > maxPoints_)
        return false;

    double total_area = 0.0;
    std::map<std::pair<std::uint64_t, std::uint64_t>, unsigned>
        edge_count;

    for (const YadaTriangle* triangle : allTriangles_) {
        if (!triangle->alive)
            continue;
        const YadaPoint& a = points_[triangle->v[0]];
        const YadaPoint& b = points_[triangle->v[1]];
        const YadaPoint& p = points_[triangle->v[2]];
        const double area =
            orient2d(a.x, a.y, b.x, b.y, p.x, p.y) / 2.0;
        if (area <= 0.0)
            return false; // flipped or degenerate triangle
        total_area += area;

        for (int i = 0; i < 3; ++i) {
            const std::uint64_t va = triangle->v[i];
            const std::uint64_t vb = triangle->v[(i + 1) % 3];
            ++edge_count[std::minmax(va, vb)];

            const YadaTriangle* neighbour = triangle->n[i];
            if (neighbour == nullptr)
                continue;
            if (!neighbour->alive)
                return false; // dangling link to a dead triangle
            bool mutual = false;
            for (int k = 0; k < 3; ++k) {
                if (neighbour->v[k] == vb &&
                    neighbour->v[(k + 1) % 3] == va &&
                    neighbour->n[k] == triangle) {
                    mutual = true;
                }
            }
            if (!mutual)
                return false;
        }
    }

    // Conformity: every undirected edge bounds at most two alive
    // triangles.
    for (const auto& [edge, count] : edge_count) {
        if (count > 2)
            return false;
    }

    // Area conservation: refinement re-tiles cavities exactly.
    const double expected = width_ * height_;
    return std::fabs(total_area - expected) < 1e-6 * expected;
}

} // namespace htmsim::stamp
