/**
 * @file
 * The conflict directory: every conflict-granularity line's access
 * marks, the writing transaction and the reader set that all four
 * machines keep through cache coherence (Section 2).
 *
 * Intel Core and zEC12 keep these marks on the L1 line itself, Blue
 * Gene/Q on its versioned L2 lines; only POWER8 uses a side table, its
 * TMCAM. The directory does the same: a line's marks live in a cell of
 * a shadow array parallel to the run area (sim/region.hh), found from
 * the line's offset in that area — one subtraction and one index, no
 * hashing, probing or growth, the way ASan finds its shadow bytes.
 *
 * Cell layout. A cell is 16-bit lanes, sized once per Runtime from its
 * thread count: lane 0 holds the owner (the writing transaction's tid
 * plus one, 0 for none), lanes 1.. the reader set, 16 threads a lane.
 * Up to 16 threads a cell is 4 bytes; at 256 threads it is 34. An
 * all-zero cell is an unmarked line, so an untouched page of the
 * mapping reads as an empty directory.
 *
 * Mapping reuse. Shadow mappings are reserved (MAP_NORESERVE) at the
 * first Runtime and pooled: a later Runtime takes a released mapping
 * with its resident pages, as each run reuses the region's. Every live
 * Runtime holds its own mapping (the differential oracle builds its
 * replay runtime while the concurrent one is alive). Clean-release
 * rule: a mapping goes back to the pool all-zero. Marks are cleared by
 * their owner's commit or rollback, and the Runtime's destructor
 * clears whatever its transactions' touch logs still name (a run that
 * ended in an exception with attempts in flight) before its directory
 * hands the mapping back. Cells of a released mapping therefore read
 * empty under any later Runtime's layout.
 *
 * Fallback. A line outside the covered run area — the loose area, or a
 * unit test's stack or heap word — keeps its cell in a FlatTable keyed
 * by line number, per Runtime. Its slots are never erased: clearing a
 * mark leaves an empty cell for the next touch.
 */

#ifndef HTMSIM_HTM_CONFLICT_DIRECTORY_HH
#define HTMSIM_HTM_CONFLICT_DIRECTORY_HH

#include <cstddef>
#include <cstdint>

#include "flat_table.hh"

namespace htmsim::htm
{

/**
 * Ceiling on simulated threads per Runtime, sized for the server
 * scenario's 256 clients. A directory cell carries one reader bit per
 * thread of its own Runtime, so only the fallback table's fixed slots
 * are sized by this ceiling.
 */
inline constexpr unsigned kMaxTxThreads = 256;

/**
 * A view of one line's cell: its owner lane and its reader lanes.
 * Valid until the next lookup of a line outside the shadow, which may
 * grow the fallback table.
 */
class ConflictCell
{
  public:
    static constexpr unsigned laneBits = 16;

    ConflictCell(std::uint16_t* lanes, unsigned reader_lanes)
        : lanes_(lanes), readerLanes_(reader_lanes)
    {
    }

    /** The writing transaction's thread id, or -1. */
    int owner() const { return int(lanes_[0]) - 1; }

    bool ownedBy(unsigned tid) const { return lanes_[0] == tid + 1; }

    void setOwner(unsigned tid) { lanes_[0] = std::uint16_t(tid + 1); }

    bool
    hasReader(unsigned tid) const
    {
        return (lanes_[1 + tid / laneBits] >> (tid % laneBits)) & 1u;
    }

    void
    addReader(unsigned tid)
    {
        lanes_[1 + tid / laneBits] |=
            std::uint16_t(1u << (tid % laneBits));
    }

    /** Drop @p tid's marks: its reader bit, and the ownership if the
     *  line is still its own (a peer may have taken it over). */
    void
    clear(unsigned tid)
    {
        lanes_[1 + tid / laneBits] &=
            std::uint16_t(~(1u << (tid % laneBits)));
        if (ownedBy(tid))
            lanes_[0] = 0;
    }

    bool
    empty() const
    {
        for (unsigned lane = 0; lane <= readerLanes_; ++lane) {
            if (lanes_[lane] != 0)
                return false;
        }
        return true;
    }

    /**
     * Invoke @p fn(tid) for every reader except @p self, in ascending
     * tid order: dooms and conflict events follow this order. @p fn may
     * doom readers (that changes no mark) or leave by an abort.
     */
    template <typename Fn>
    void
    forEachReaderExcept(unsigned self, Fn&& fn) const
    {
        for (unsigned lane = 0; lane < readerLanes_; ++lane) {
            unsigned bits = lanes_[1 + lane];
            if (lane == self / laneBits)
                bits &= ~(1u << (self % laneBits));
            while (bits != 0) {
                fn(lane * laneBits + unsigned(__builtin_ctz(bits)));
                bits &= bits - 1;
            }
        }
    }

  private:
    std::uint16_t* lanes_;
    unsigned readerLanes_;
};

/** One Runtime's directory: a shadow mapping plus the fallback table. */
class ConflictDirectory
{
  public:
    ConflictDirectory() = default;
    /** Hands the mapping back; its cells must already be clean. */
    ~ConflictDirectory();

    ConflictDirectory(const ConflictDirectory&) = delete;
    ConflictDirectory& operator=(const ConflictDirectory&) = delete;

    /** Take a shadow mapping and size the cells for @p threads threads
     *  and lines of 2^@p line_shift bytes. Once, before any lookup. */
    void attach(unsigned threads, unsigned line_shift);

    /** The cell of @p line; a fallback line never seen gets an empty
     *  one. */
    ConflictCell
    cell(std::uintptr_t line)
    {
        const std::uintptr_t index = line - firstLine_;
        if (index < shadowLines_) [[likely]]
            return {shadow_ + index * cellLanes_, cellLanes_ - 1};
        return fallbackCell(line);
    }

    /** Whether @p line has its cell in the shadow and carries a mark. */
    bool
    markedInShadow(std::uintptr_t line) const
    {
        const std::uintptr_t index = line - firstLine_;
        return index < shadowLines_ &&
               !ConflictCell(shadow_ + index * cellLanes_, cellLanes_ - 1)
                    .empty();
    }

    /** Fallback lines carrying a mark. */
    std::size_t markedFallbackLines() const;

  private:
    struct FallbackCell
    {
        std::uint16_t lanes[1 + kMaxTxThreads / ConflictCell::laneBits];
    };

    /** The fallback table's cell of @p line. Out of line: a run whose
     *  Runtime and data live in its RunScope never takes it. */
    [[gnu::cold]] ConflictCell fallbackCell(std::uintptr_t line);

    std::uint16_t* shadow_ = nullptr;
    /** Line number of the run area's first byte. */
    std::uintptr_t firstLine_ = 0;
    /** Lines from firstLine_ on whose cells the mapping holds. */
    std::uintptr_t shadowLines_ = 0;
    /** Lanes per cell: the owner lane plus the reader lanes. */
    unsigned cellLanes_ = 0;
    FlatTable<FallbackCell> fallback_;
};

/**
 * Whether every pooled (released) shadow mapping reads all-zero over
 * the cells of the run-area addresses below @p high_water, at every
 * machine's conflict granularity (8 bytes and up) and cell width. The
 * check behind the clean-release rule's tests.
 */
bool pooledShadowsClean(std::uintptr_t high_water);

} // namespace htmsim::htm

#endif // HTMSIM_HTM_CONFLICT_DIRECTORY_HH
