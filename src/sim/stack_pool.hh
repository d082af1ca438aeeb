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
 * fixed-stride slots up front; a slot's stack is committed (mprotect
 * RW) only when a fiber is first dispatched and decommitted
 * (madvise MADV_DONTNEED) when it finishes, so resident memory tracks
 * the *live* fibers' touched pages, not the spawn count. Stacks grow
 * downward from the top of their slot, and everything below the
 * committed region stays PROT_NONE — an overflow lands on a guard of
 * at least 64 KB instead of silently corrupting a neighbour.
 *
 * Stacks hold no simulated state (that lives in the run's region,
 * region.hh), so where and when a stack is committed is invisible to
 * the models: the pooled/lazy path is bit-identical to eager
 * per-fiber stacks.
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

    /**
     * Reserve @p count consecutive slots (deterministic first-fit) and
     * return the base slot index. Throws std::runtime_error when no
     * contiguous range fits.
     */
    unsigned reserveRange(unsigned count);

    /** Return a range to the free map, decommitting any slots still
     *  committed. Recycled ranges are what later schedulers get. */
    void releaseRange(unsigned base, unsigned count);

    /**
     * Commit @p stack_bytes (rounded up to whole pages) at the top of
     * @p slot and return the usable span. Idempotent per slot while
     * committed (returns the existing span).
     */
    StackSpan commit(unsigned slot, std::size_t stack_bytes);

    /** Decommit a slot's stack: the pages are returned to the kernel
     *  and the whole slot reverts to PROT_NONE. */
    void decommit(unsigned slot);

    bool committed(unsigned slot) const
    {
        return committedBytes_[slot] != 0;
    }

    /** Currently committed stack bytes across all slots. */
    std::size_t committedStackBytes() const { return totalCommitted_; }

    /** High-water mark of committedStackBytes() — the pooled budget
     *  the stress tests assert against. */
    std::size_t peakCommittedBytes() const { return peakCommitted_; }

    /** Lifetime commit operations (visibility into slot recycling). */
    std::uint64_t commitCount() const { return commitCount_; }

    StackPool(const StackPool&) = delete;
    StackPool& operator=(const StackPool&) = delete;

  private:
    StackPool();

    char* slotTop(unsigned slot) const
    {
        return arena_ + std::size_t(slot + 1) * slotStrideBytes;
    }

    char* arena_ = nullptr;
    std::vector<bool> used_;
    std::vector<std::size_t> committedBytes_;
    std::size_t totalCommitted_ = 0;
    std::size_t peakCommitted_ = 0;
    std::uint64_t commitCount_ = 0;
};

} // namespace htmsim::sim

#endif // HTMSIM_SIM_STACK_POOL_HH
