#include "kmeans.hh"

#include <algorithm>
#include <cmath>

#include "sim/random.hh"

namespace htmsim::stamp
{

KmeansParams
KmeansParams::highContention(bool modified_variant)
{
    KmeansParams params;
    params.numClusters = 15;
    params.modified = modified_variant;
    return params;
}

KmeansParams
KmeansParams::lowContention(bool modified_variant)
{
    KmeansParams params;
    params.numClusters = 40;
    params.modified = modified_variant;
    return params;
}

void
KmeansApp::setup()
{
    sim::Rng rng(params_.seed);
    const unsigned n = params_.numPoints;
    const unsigned dims = params_.numDims;
    const unsigned k = params_.numClusters;

    points_.resize(std::size_t(n) * dims);
    // Gaussian-ish blobs around k seed locations so clustering is
    // meaningful and membership stabilizes.
    std::vector<float> blob_centers(std::size_t(k) * dims);
    for (auto& value : blob_centers)
        value = float(rng.nextDouble() * 100.0);
    for (unsigned point = 0; point < n; ++point) {
        const unsigned blob = unsigned(rng.nextRange(k));
        for (unsigned d = 0; d < dims; ++d) {
            const double noise = (rng.nextDouble() - 0.5) * 12.0;
            points_[std::size_t(point) * dims + d] =
                blob_centers[std::size_t(blob) * dims + d] +
                float(noise);
        }
    }

    centers_.resize(std::size_t(k) * dims);
    for (unsigned cluster = 0; cluster < k; ++cluster) {
        const unsigned pick = unsigned(rng.nextRange(n));
        for (unsigned d = 0; d < dims; ++d) {
            centers_[std::size_t(cluster) * dims + d] =
                points_[std::size_t(pick) * dims + d];
        }
    }

    membership_.assign(n, 0);
    clusterSizes_.assign(k, 0);

    // Accumulator arena. Each cluster needs 4 bytes of count plus
    // dims*4 bytes of sums. The modified variant aligns each cluster
    // to a 256-byte boundary (no machine has larger lines); the
    // original packs clusters at a 4-byte-offset 96-byte stride so
    // neighbouring clusters share cache lines.
    const std::size_t payload = 4 + std::size_t(dims) * 4;
    if (params_.modified) {
        // Align to the machine's line and round the payload up to it:
        // clusters never share a line, but the cluster's last line is
        // adjacent to the next cluster (where Intel's adjacent-line
        // prefetcher reaches, Section 5.1).
        const std::size_t line = std::max<unsigned>(
            64, params_.alignBytes);
        clusterStride_ = (payload + line - 1) / line * line;
        arenaBase_ = 0;
    } else {
        clusterStride_ = std::max<std::size_t>(
            96, (payload + 31) / 32 * 32);
        arenaBase_ = 4; // deliberately off a line boundary
    }
    // Region chunks are 256-byte aligned, so arenaBase_ is the offset
    // from a line boundary on every machine.
    arena_.assign(arenaBase_ + clusterStride_ * k, 0);
    nextPoint_ = sim::make<std::uint32_t>();
}

std::uint32_t*
KmeansApp::countOf(unsigned cluster)
{
    return reinterpret_cast<std::uint32_t*>(
        arena_.data() + arenaBase_ + clusterStride_ * cluster);
}

float*
KmeansApp::sumOf(unsigned cluster, unsigned dim)
{
    return reinterpret_cast<float*>(arena_.data() + arenaBase_ +
                                    clusterStride_ * cluster + 4 +
                                    std::size_t(dim) * 4);
}

unsigned
KmeansApp::nearestCenter(unsigned point) const
{
    const unsigned dims = params_.numDims;
    unsigned best = 0;
    float best_distance = std::numeric_limits<float>::max();
    for (unsigned cluster = 0; cluster < params_.numClusters;
         ++cluster) {
        float distance = 0.0f;
        for (unsigned d = 0; d < dims; ++d) {
            const float delta =
                points_[std::size_t(point) * dims + d] -
                centers_[std::size_t(cluster) * dims + d];
            distance += delta * delta;
        }
        if (distance < best_distance) {
            best_distance = distance;
            best = cluster;
        }
    }
    return best;
}

bool
KmeansApp::verify() const
{
    // Every point must be assigned, cluster sizes must add up, and
    // all centers must be finite.
    std::vector<unsigned> recount(params_.numClusters, 0);
    for (const unsigned cluster : membership_) {
        if (cluster >= params_.numClusters)
            return false;
        ++recount[cluster];
    }
    unsigned total = 0;
    for (unsigned cluster = 0; cluster < params_.numClusters;
         ++cluster) {
        if (recount[cluster] != clusterSizes_[cluster])
            return false;
        total += recount[cluster];
    }
    if (total != params_.numPoints)
        return false;
    for (const float value : centers_) {
        if (!std::isfinite(value))
            return false;
    }
    return true;
}

} // namespace htmsim::stamp
