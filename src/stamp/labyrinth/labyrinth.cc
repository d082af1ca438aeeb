#include "labyrinth.hh"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <string>

#include "sim/random.hh"

namespace htmsim::stamp
{

namespace
{
constexpr std::int64_t reserved = -3;
} // namespace

void
LabyrinthApp::setup()
{
    sim::Rng rng(params_.seed);
    grid_.assign(cells(), 0);
    sources_.clear();
    targets_.clear();
    routed_.assign(params_.numPaths, 0);
    cursor_ = sim::make<std::uint32_t>();

    // Walls.
    for (auto& cell : grid_) {
        if (rng.nextRange(100) < params_.wallPct)
            cell = wall;
    }

    // Distinct free endpoint cells, reserved so no other route can
    // pass through them. A grid too small to hold them all would make
    // the search below spin forever.
    const auto free_cells = std::size_t(
        std::count(grid_.begin(), grid_.end(), std::int64_t(0)));
    if (free_cells < 2 * std::size_t(params_.numPaths)) {
        throw std::invalid_argument(
            "labyrinth: " + std::to_string(free_cells) +
            " free cells cannot hold the endpoints of " +
            std::to_string(params_.numPaths) + " paths");
    }
    auto pick_free = [&]() {
        for (;;) {
            const std::size_t index = rng.nextRange(cells());
            if (grid_[index] == 0)
                return index;
        }
    };
    for (unsigned p = 0; p < params_.numPaths; ++p) {
        const std::size_t src = pick_free();
        grid_[src] = reserved;
        const std::size_t dst = pick_free();
        grid_[dst] = reserved;
        sources_.push_back(src);
        targets_.push_back(dst);
    }
}

std::vector<std::size_t>
LabyrinthApp::neighbours(std::size_t index) const
{
    const unsigned w = params_.width;
    const unsigned h = params_.height;
    const unsigned d = params_.depth;
    const unsigned x = unsigned(index % w);
    const unsigned y = unsigned(index / w % h);
    const unsigned z = unsigned(index / (std::size_t(w) * h));

    std::vector<std::size_t> result;
    result.reserve(6);
    if (x > 0)
        result.push_back(cellIndex(x - 1, y, z));
    if (x + 1 < w)
        result.push_back(cellIndex(x + 1, y, z));
    if (y > 0)
        result.push_back(cellIndex(x, y - 1, z));
    if (y + 1 < h)
        result.push_back(cellIndex(x, y + 1, z));
    if (z > 0)
        result.push_back(cellIndex(x, y, z - 1));
    if (z + 1 < d)
        result.push_back(cellIndex(x, y, z + 1));
    return result;
}

bool
LabyrinthApp::verify() const
{
    // Walls intact; every cell holds a wall, a reservation, free
    // space, or a valid path id; every routed path is a connected
    // region containing its endpoints; unrouted endpoints untouched.
    for (const auto cell : grid_) {
        if (cell < reserved ||
            cell > std::int64_t(params_.numPaths)) {
            return false;
        }
    }

    for (unsigned p = 0; p < params_.numPaths; ++p) {
        const std::int64_t id = std::int64_t(p) + 1;
        if (!routed_[p]) {
            // Endpoints must still be reserved, and no cell may carry
            // this path's id.
            if (grid_[sources_[p]] != reserved ||
                grid_[targets_[p]] != reserved) {
                return false;
            }
            for (const auto cell : grid_) {
                if (cell == id)
                    return false;
            }
            continue;
        }
        if (grid_[sources_[p]] != id || grid_[targets_[p]] != id)
            return false;

        // Flood the path's cells from the source; the target must be
        // reachable and every cell of this id must be visited.
        std::vector<char> seen(cells(), 0);
        std::queue<std::size_t> frontier;
        frontier.push(sources_[p]);
        seen[sources_[p]] = 1;
        std::size_t visited = 1;
        while (!frontier.empty()) {
            const std::size_t at = frontier.front();
            frontier.pop();
            for (const std::size_t next : neighbours(at)) {
                if (seen[next] || grid_[next] != id)
                    continue;
                seen[next] = 1;
                ++visited;
                frontier.push(next);
            }
        }
        if (!seen[targets_[p]])
            return false;
        std::size_t labelled = 0;
        for (const auto cell : grid_) {
            if (cell == id)
                ++labelled;
        }
        if (labelled != visited)
            return false;
    }
    return true;
}

} // namespace htmsim::stamp
