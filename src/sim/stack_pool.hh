/**
 * @file
 * Pooled fiber stacks carved out of one reserved arena.
 *
 * Scaling the scheduler to hundreds of fibers with per-fiber
 * heap-allocated stacks fails: a value-initialized 1 MB vector touches
 * every page at construction (256 fibers = 256 MB resident before the
 * first instruction runs).
 *
 * The pool avoids that. One mmap reserves a PROT_NONE arena of
 * fixed-stride slots up front, and each scheduler reserves a
 * contiguous slot range. A slot's stack is committed (made RW) when
 * its scheduler's run starts. Stacks grow downward from the top of
 * their slot, and everything below the committed stack stays
 * PROT_NONE: an overflow lands on a guard of at least 64 KB instead of
 * silently corrupting a neighbour.
 *
 * Warm slots. When a fiber finishes, a slot among the first warmSlots
 * of the arena keeps its stack committed and resident, so the next
 * run that reserves it pays no syscall and no page fault; a slot at or
 * above warmSlots is decommitted (its pages returned to the kernel,
 * the slot back to PROT_NONE). Schedulers take first-fit ranges, so
 * the short runs that dominate sweeps (the oracle's 4 + 1 fibers,
 * STAMP's 1 + 4, a 16-thread figure run) land on warm slots every
 * time. Residency contract: committed stack bytes are the live
 * fibers' stacks plus at most warmSlots finished ones, each keeping
 * the pages its deepest fiber touched.
 *
 * Stacks hold no simulated state (that lives in the run's region,
 * region.hh), so where a stack lives and what an earlier tenant left
 * in it are invisible to the models: a run on warm, dirty slots is
 * bit-identical to one on fresh slots.
 *
 * The pool is a process-wide singleton (the simulator is single-host-
 * threaded) and released slot ranges are recycled across scheduler
 * lifetimes through the free map, so a tuning sweep's thousands of
 * runs reuse one arena instead of churning the heap.
 */

#ifndef HTMSIM_SIM_STACK_POOL_HH
#define HTMSIM_SIM_STACK_POOL_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace htmsim::sim
{

/** A committed, ready-to-run stack region (guard pages below it). */
struct StackSpan
{
    char* base = nullptr; ///< Lowest usable byte.
    std::size_t size = 0; ///< Usable bytes; the top is base + size.
};

class StackPool
{
  public:
    /** The process-wide pool (created on first use). */
    static StackPool& instance();

    /** Largest stack a slot can hold. */
    static constexpr std::size_t maxStackBytes = std::size_t(1) << 20;

    /** Guard floor: committed stacks of maxStackBytes still leave this
     *  much PROT_NONE below them inside their own slot. */
    static constexpr std::size_t guardBytes = std::size_t(1) << 16;

    /** Distance between consecutive slot tops. */
    static constexpr std::size_t slotStrideBytes =
        maxStackBytes + guardBytes;

    /** Arena capacity; ~1 GB of *virtual* reservation, nothing
     *  resident until committed and touched. */
    static constexpr unsigned maxSlots = 1024;

    /** Slots below this index stay committed when their fiber
     *  finishes (see the file comment). 16 covers a 16-thread run. */
    static constexpr unsigned warmSlots = 16;

    /**
     * Reserve @p count consecutive slots (deterministic first-fit) and
     * return the base slot index. Throws std::runtime_error when no
     * contiguous range fits.
     */
    unsigned reserveRange(unsigned count);

    /** Return a range to the free map, retiring every slot in it.
     *  Recycled ranges are what later schedulers get. */
    void releaseRange(unsigned base, unsigned count);

    /**
     * Commit @p stack_bytes (rounded up to whole pages) at the top of
     * @p slot and return the usable span. A slot still committed (a
     * warm slot's earlier tenant) is reused: as is when the size
     * matches, else only the difference is re-protected — the extra
     * pages made RW to grow, the excess returned and made PROT_NONE to
     * shrink — so the RW window is exactly the stack and the guard
     * lies directly below it.
     */
    StackSpan commit(unsigned slot, std::size_t stack_bytes);

    /** The fiber on @p slot finished: a slot at or above warmSlots is
     *  decommitted (pages returned, PROT_NONE); a warm slot keeps its
     *  stack for the next tenant. */
    void retire(unsigned slot);

    bool committed(unsigned slot) const
    {
        return committedBytes_[slot] != 0;
    }

    /** Currently committed stack bytes across all slots. */
    std::size_t committedStackBytes() const { return totalCommitted_; }

    /** High-water mark of committedStackBytes() — the pooled budget
     *  the stress tests assert against. */
    std::size_t peakCommittedBytes() const { return peakCommitted_; }

    /** Lifetime commits that made pages RW (a first commit or a
     *  growth); a run on warm slots of its stack size makes none. */
    std::uint64_t commitCount() const { return commitCount_; }

    StackPool(const StackPool&) = delete;
    StackPool& operator=(const StackPool&) = delete;

  private:
    StackPool();

    char* slotTop(unsigned slot) const
    {
        return arena_ + std::size_t(slot + 1) * slotStrideBytes;
    }

    /** Record @p slot's committed size, keeping the totals. */
    void setCommitted(unsigned slot, std::size_t bytes);

    char* arena_ = nullptr;
    std::vector<bool> used_;
    std::vector<std::size_t> committedBytes_;
    std::size_t totalCommitted_ = 0;
    std::size_t peakCommitted_ = 0;
    std::uint64_t commitCount_ = 0;
};

} // namespace htmsim::sim

#endif // HTMSIM_SIM_STACK_POOL_HH
