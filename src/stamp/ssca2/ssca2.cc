#include "ssca2.hh"

#include <algorithm>

#include "sim/random.hh"

namespace htmsim::stamp
{

void
Ssca2App::setup()
{
    sim::Rng rng(params_.seed);
    edgeSources_.resize(params_.numEdges);
    edgeTargets_.resize(params_.numEdges);
    for (unsigned e = 0; e < params_.numEdges; ++e) {
        const auto u = std::uint32_t(rng.nextRange(params_.numVertices));
        std::uint32_t v = u;
        while (v == u)
            v = std::uint32_t(rng.nextRange(params_.numVertices));
        edgeSources_[e] = u;
        edgeTargets_[e] = v;
    }
    degree_.assign(params_.numVertices, 0);
    fill_.assign(params_.numVertices, 0);
    offset_.assign(params_.numVertices + 1, 0);
    adjacency_.assign(params_.numEdges, ~std::uint64_t(0));
    cursor1_ = sim::make<std::uint32_t>();
    cursor2_ = sim::make<std::uint32_t>();
}

bool
Ssca2App::verify() const
{
    // Degrees must sum to the edge count and every adjacency slot must
    // be filled with exactly the edges of its source vertex.
    std::uint64_t total = 0;
    for (const auto d : degree_)
        total += d;
    if (total != params_.numEdges)
        return false;

    std::vector<std::vector<std::uint32_t>> expected(
        params_.numVertices);
    for (unsigned e = 0; e < params_.numEdges; ++e)
        expected[edgeSources_[e]].push_back(edgeTargets_[e]);

    for (unsigned u = 0; u < params_.numVertices; ++u) {
        if (fill_[u] != degree_[u])
            return false;
        if (degree_[u] != expected[u].size())
            return false;
        std::vector<std::uint32_t> actual;
        for (std::uint64_t slot = 0; slot < degree_[u]; ++slot) {
            const std::uint64_t value = adjacency_[offset_[u] + slot];
            if (value == ~std::uint64_t(0))
                return false;
            actual.push_back(std::uint32_t(value));
        }
        std::sort(actual.begin(), actual.end());
        std::sort(expected[u].begin(), expected[u].end());
        if (actual != expected[u])
            return false;
    }
    return true;
}

} // namespace htmsim::stamp
