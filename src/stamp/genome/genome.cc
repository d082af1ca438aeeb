#include "genome.hh"

#include <algorithm>
#include <unordered_set>

#include "sim/random.hh"
#include "sim/region.hh"

namespace htmsim::stamp
{

GenomeParams
GenomeParams::tuned(htm::Vendor vendor)
{
    GenomeParams params;
    params.chunkStep1 = vendor == htm::Vendor::blueGeneQ ? 9 : 2;
    // Phase-2 link transactions conflict through their successors;
    // larger batches lose more work per abort, so the tuned chunk
    // stays small on every machine.
    params.chunkStep2 = 3;
    return params;
}

GenomeParams
GenomeParams::original()
{
    GenomeParams params;
    params.chunkStep1 = 16;
    params.chunkStep2 = 16;
    return params;
}

void
GenomeApp::setup()
{
    sim::Rng rng(params_.seed);
    const unsigned g = params_.geneLength;
    const unsigned s = params_.segmentLength;
    static const char alphabet[4] = {'A', 'C', 'G', 'T'};

    gene_.resize(g);
    for (auto& nucleotide : gene_)
        nucleotide = alphabet[rng.nextRange(4)];

    // Sample start positions with gaps of 1..maxStep so consecutive
    // segments overlap by at least S - maxStep characters, and force
    // the final window so the chain reaches the end of the gene.
    std::vector<unsigned> starts;
    unsigned pos = 0;
    while (pos + s <= g) {
        starts.push_back(pos);
        pos += 1 + unsigned(rng.nextRange(params_.maxStep));
    }
    if (starts.back() != g - s)
        starts.push_back(g - s);

    // Segment copies live in a pooled arena at a fixed stride, like
    // STAMP's individually allocated read strings.
    const std::size_t stride = (s + 8 + 7) / 8 * 8;
    const std::size_t total_samples =
        starts.size() + params_.extraDuplicates;
    segmentPool_.assign(total_samples * stride, 0);
    samples_.clear();
    samples_.reserve(total_samples);

    auto add_sample = [&](unsigned start, std::size_t index) {
        char* dest = segmentPool_.data() + index * stride;
        std::copy_n(gene_.data() + start, s, dest);
        samples_.push_back({dest, start});
    };

    for (std::size_t i = 0; i < starts.size(); ++i)
        add_sample(starts[i], i);
    for (unsigned d = 0; d < params_.extraDuplicates; ++d) {
        const unsigned pick =
            unsigned(rng.nextRange(starts.size()));
        add_sample(starts[pick], starts.size() + d);
    }
    // Shuffle so duplicates are interleaved (Fisher-Yates).
    for (std::size_t i = samples_.size(); i > 1; --i) {
        const std::size_t j = rng.nextRange(i);
        std::swap(samples_[i - 1], samples_[j]);
    }

    segmentSet_ = sim::make<tmds::TmHashTable<>>(starts.size());
    prefixTables_.clear();
    for (unsigned round = 0; round < params_.maxStep; ++round) {
        prefixTables_.push_back(
            sim::make<tmds::TmHashTable<>>(starts.size()));
    }
    unique_.clear();
    cursor_ = sim::make<std::uint32_t>();
}

bool
GenomeApp::verify() const
{
    // Exactly one chain head (startLinked == 0), the chain must visit
    // every unique segment in strictly increasing start positions with
    // gaps within maxStep, starting at 0 and ending at G - S.
    if (unique_.empty())
        return false;

    GenomeSegment* head = nullptr;
    std::size_t heads = 0;
    for (GenomeSegment* entry : unique_) {
        if (entry->startLinked == 0) {
            head = entry;
            ++heads;
        }
    }
    if (heads != 1 || head == nullptr)
        return false;
    if (head->startPos != 0)
        return false;

    std::unordered_set<const GenomeSegment*> seen;
    std::size_t count = 0;
    const GenomeSegment* node = head;
    const GenomeSegment* last = nullptr;
    while (node != nullptr) {
        if (!seen.insert(node).second)
            return false; // cycle
        if (last != nullptr) {
            if (node->startPos <= last->startPos)
                return false;
            if (node->startPos - last->startPos > params_.maxStep)
                return false;
        }
        last = node;
        ++count;
        node = node->next;
    }
    if (count != unique_.size())
        return false;
    return last->startPos ==
           std::uint64_t(params_.geneLength - params_.segmentLength);
}

} // namespace htmsim::stamp
