/**
 * @file
 * STAMP genome port: gene sequencing by segment deduplication and
 * overlap chaining.
 *
 * Phase 1 inserts sampled gene segments into a shared hash set to
 * remove duplicates; CHUNK_STEP1 segments share one transaction — the
 * compile-time knob the paper tunes per machine (9 on Blue Gene/Q to
 * amortize its huge begin/end cost, 2 elsewhere; the untuned original
 * uses 16, which blows POWER8's 8 KB capacity — Figure 4's 3.7x).
 * Phase 2 links unique segments whose k-character suffix matches
 * another segment's k-prefix, for k from S-1 downward, rebuilding the
 * chain the gene was sampled from.
 *
 * Segment content hashing is performed with context loads, so the
 * string bytes contribute to the transactional footprint exactly as
 * in instrumented STAMP.
 */

#ifndef HTMSIM_STAMP_GENOME_GENOME_HH
#define HTMSIM_STAMP_GENOME_GENOME_HH

#include <cstdint>
#include <vector>

#include "sim/region.hh"
#include "stamp/exec.hh"
#include "tmds/tm_hashtable.hh"

namespace htmsim::stamp
{

struct GenomeParams
{
    /** Gene length in nucleotides. */
    unsigned geneLength = 4096;
    /** Segment (read) length S. */
    unsigned segmentLength = 24;
    /** Maximum start-position gap between consecutive samples. */
    unsigned maxStep = 4;
    /** Additional duplicate segments to exercise deduplication. */
    unsigned extraDuplicates = 2048;
    /** Segments inserted per phase-1 transaction (CHUNK_STEP1). */
    unsigned chunkStep1 = 2;
    /** Entries handled per phase-2 transaction (CHUNK_STEP2/3). */
    unsigned chunkStep2 = 2;
    std::uint64_t seed = 424242;

    /** The paper's per-machine tuning (Section 4). */
    static GenomeParams tuned(htm::Vendor vendor);
    /** The original untuned chunking. */
    static GenomeParams original();
};

/** One sampled/unique gene segment. */
struct GenomeSegment
{
    const char* chars;
    GenomeSegment* next;
    std::uint64_t startLinked;
    std::uint64_t endLinked;
    std::uint64_t startPos; ///< ground truth, used only by verify()
};

class GenomeApp
{
  public:
    explicit GenomeApp(GenomeParams params) : params_(params) {}

    void setup();

    template <typename Exec>
    void
    worker(Exec& exec)
    {
        phase1Dedupe(exec);
        exec.barrier();
        if (exec.tid() == 0)
            collectUnique(exec);
        exec.barrier();
        const unsigned s = params_.segmentLength;
        for (unsigned round = 0; round < params_.maxStep; ++round) {
            const unsigned k = s - 1 - round;
            phase2Insert(exec, round, k);
            exec.barrier();
            phase2Match(exec, round, k);
            exec.barrier();
        }
    }

    bool verify() const;

    std::size_t uniqueSegments() const { return unique_.size(); }

  private:
    /** FNV over segment bytes through the context (footprint!). */
    template <typename Ctx>
    static std::uint64_t
    hashChars(Ctx& c, const char* chars, unsigned length)
    {
        std::uint64_t h = 1469598103934665603ULL;
        for (unsigned i = 0; i < length; ++i) {
            h ^= std::uint8_t(c.load(&chars[i]));
            h *= 1099511628211ULL;
        }
        c.work(sim::Cycles(3) * length); // the mixing arithmetic
        return h;
    }

    template <typename Exec>
    void
    phase1Dedupe(Exec& exec)
    {
        const unsigned total = unsigned(samples_.size());
        const unsigned chunk = std::max(1u, params_.chunkStep1);
        const unsigned s = params_.segmentLength;
        for (;;) {
            const std::uint32_t begin =
                exec.fetchAdd(cursor_.get(), std::uint32_t(chunk));
            if (begin >= total)
                break;
            const unsigned end = std::min(begin + chunk, total);
            static const htm::TxSiteId dedupSite =
                htm::txSite("genome.dedupSegments");
            exec.atomic(dedupSite, [&](auto& c) {
                for (unsigned i = begin; i < end; ++i) {
                    const char* chars = samples_[i].chars;
                    const std::uint64_t h = hashChars(c, chars, s);
                    auto* entry = c.template create<GenomeSegment>();
                    c.store(&entry->chars, chars);
                    c.store(&entry->next,
                            static_cast<GenomeSegment*>(nullptr));
                    c.store(&entry->startLinked, std::uint64_t(0));
                    c.store(&entry->endLinked, std::uint64_t(0));
                    c.store(&entry->startPos, samples_[i].startPos);
                    if (!segmentSet_->insert(
                            c, h,
                            reinterpret_cast<std::uint64_t>(entry))) {
                        c.template destroy<GenomeSegment>(entry);
                    }
                }
            });
        }
    }

    template <typename Exec>
    void
    collectUnique(Exec& exec)
    {
        htm::DirectContext direct;
        segmentSet_->forEach(direct,
                             [&](std::uint64_t, std::uint64_t raw) {
                                 unique_.push_back(
                                     reinterpret_cast<GenomeSegment*>(
                                         raw));
                             });
        exec.work(sim::Cycles(unique_.size()) * 8);
    }

    template <typename Exec>
    void
    phase2Insert(Exec& exec, unsigned round, unsigned k)
    {
        // Blocks of chunkStep2 entries per thread per transaction,
        // with the already-linked filter applied outside the
        // transaction (both as in STAMP).
        const std::size_t chunk = std::max(1u, params_.chunkStep2);
        const std::size_t stride = chunk * exec.numThreads();
        std::vector<GenomeSegment*> batch;
        for (std::size_t start = exec.tid() * chunk;
             start < unique_.size(); start += stride) {
            batch.clear();
            const std::size_t end =
                std::min(start + chunk, unique_.size());
            for (std::size_t i = start; i < end; ++i) {
                if (exec.sharedLoad(&unique_[i]->startLinked) == 0)
                    batch.push_back(unique_[i]);
            }
            if (batch.empty())
                continue;
            static const htm::TxSiteId linkStartSite =
                htm::txSite("genome.linkStarts");
            exec.atomic(linkStartSite, [&](auto& c) {
                for (GenomeSegment* entry : batch) {
                    if (c.load(&entry->startLinked) != 0)
                        continue;
                    const std::uint64_t h =
                        hashChars(c, c.load(&entry->chars), k);
                    prefixTables_[round]->insert(
                        c, h, reinterpret_cast<std::uint64_t>(entry));
                    c.work(30);
                }
            });
        }
    }

    template <typename Exec>
    void
    phase2Match(Exec& exec, unsigned round, unsigned k)
    {
        const unsigned s = params_.segmentLength;
        const std::size_t chunk = std::max(1u, params_.chunkStep2);
        const std::size_t stride = chunk * exec.numThreads();
        std::vector<GenomeSegment*> batch;
        for (std::size_t start = exec.tid() * chunk;
             start < unique_.size(); start += stride) {
            batch.clear();
            const std::size_t end =
                std::min(start + chunk, unique_.size());
            for (std::size_t i = start; i < end; ++i) {
                if (exec.sharedLoad(&unique_[i]->endLinked) == 0)
                    batch.push_back(unique_[i]);
            }
            if (batch.empty())
                continue;
            static const htm::TxSiteId linkEndSite =
                htm::txSite("genome.linkEnds");
            exec.atomic(linkEndSite, [&](auto& c) {
                for (GenomeSegment* entry : batch) {
                    if (c.load(&entry->endLinked) != 0)
                        continue;
                    const char* chars = c.load(&entry->chars);
                    const std::uint64_t h =
                        hashChars(c, chars + (s - k), k);
                    std::uint64_t raw = 0;
                    if (!prefixTables_[round]->find(c, h, &raw))
                        continue;
                    auto* successor =
                        reinterpret_cast<GenomeSegment*>(raw);
                    if (successor == entry)
                        continue;
                    if (c.load(&successor->startLinked) != 0)
                        continue;
                    c.store(&entry->next, successor);
                    c.store(&entry->endLinked, std::uint64_t(1));
                    c.store(&successor->startLinked, std::uint64_t(1));
                    c.work(30);
                }
            });
        }
    }

    GenomeParams params_;
    std::vector<char> gene_;
    sim::Vector<char> segmentPool_;

    struct Sample
    {
        const char* chars;
        std::uint64_t startPos;
    };
    std::vector<Sample> samples_;

    sim::Ptr<tmds::TmHashTable<>> segmentSet_;
    std::vector<sim::Ptr<tmds::TmHashTable<>>> prefixTables_;
    std::vector<GenomeSegment*> unique_;
    /** Next sample to dedupe (a shared counter). */
    sim::Ptr<std::uint32_t> cursor_;
};

} // namespace htmsim::stamp

#endif // HTMSIM_STAMP_GENOME_GENOME_HH
