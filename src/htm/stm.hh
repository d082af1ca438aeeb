/**
 * @file
 * Software-TM engine for the hybrid backend (DESIGN.md "Hybrid
 * layer"): a TL2-style commit-time-validating STM that runs
 * concurrently with hardware transactions instead of serializing
 * behind the global fallback lock.
 *
 * Layout:
 *
 *  - a fixed power-of-two table of ownership records (orecs), each a
 *    bare version number, indexed by hashing the conflict-granularity
 *    line of an address — hash collisions are false conflicts, exactly
 *    as in real orec-based STMs;
 *  - a global version clock, advanced by every committing writer
 *    (software or, in hybrid mode, hardware — the instrumented fast
 *    path the hybrid-TM literature proves unavoidable);
 *  - one ordinary memory word, the *clock cell*, stored to on every
 *    software commit. Hardware transactions subscribe to it exactly
 *    like the fallback lock word: eagerly (a transactional load at
 *    begin, so any software commit dooms them through the conflict
 *    directory) or lazily (snapshot at begin, compare at commit).
 *
 * The engine is embedded by value in the Runtime, which resets it (and
 * so allocates the orec table and the clock cell) only for the hybrid
 * backend; every other backend gates every hook off. Orec versions
 * are bookkeeping, not timing: bumping one never advances a virtual
 * clock or draws randomness.
 */

#ifndef HTMSIM_HTM_STM_HH
#define HTMSIM_HTM_STM_HH

#include <cstdint>
#include <vector>

#include "machine.hh"
#include "sim/region.hh"

namespace htmsim::htm
{

/** Hybrid-backend knobs (RuntimeConfig::hybrid). */
struct HybridRuntimeConfig
{
    /** How hardware transactions subscribe to software commits. */
    enum class Subscription : std::uint8_t
    {
        /** Transactional load of the clock cell at begin: a software
         *  commit dooms every in-flight hardware transaction (the
         *  Hybrid-NOrec-style instrumentation; cheap to check, dear
         *  under software commits). */
        eager,
        /** Snapshot at begin, compare at the commit point: hardware
         *  transactions overlapping a software commit abort only at
         *  their end. Per-address dooming by a software commit
         *  carries correctness either way; the mode moves cost. */
        lazy,
    };

    Subscription subscription = Subscription::eager;

    /** Skip hardware attempts entirely: every section goes straight
     *  to the software path. Isolates the STM instrumentation cost
     *  (EXPERIMENTS.md "Hybrid TM bounds") and makes orec unit tests
     *  deterministic. */
    bool stmOnly = false;

    /** Software attempts before the ultimate global-lock fallback
     *  (progress guarantee; irrevocable bodies need the lock). */
    int stmAttempts = 3;

    /** log2 of the orec-table size. Small tables make hash-collision
     *  false conflicts likely (tested); 2^10 is the default. */
    unsigned orecTableLog2 = 10;

    /** Version-clock value at which the clock wraps: the engine then
     *  zeroes every orec, restarts the clock and bumps the epoch,
     *  invalidating all in-flight software transactions. 0 = never
     *  (full 64-bit clock). Tests shrink this to exercise wraparound. */
    std::uint64_t clockWrapLimit = 0;

    // -- Cost model (virtual cycles). The software path pays
    //    non-transactional access costs plus explicit instrumentation;
    //    the hardware fast path pays a commit-time publication fee in
    //    hybrid mode — the two overheads the bounds literature says
    //    any hybrid must pay somewhere.

    /** Begin: read the clock, snapshot the read version. */
    static constexpr Cycles stmBeginCost = 12;
    /** Per access: orec hash + version check + logging, on top of the
     *  machine's non-transactional access cost. */
    static constexpr Cycles stmAccessOverhead = 14;
    /** Commit: base fee (clock CAS + fencing). */
    static constexpr Cycles stmCommitBase = 40;
    /** Commit: per tracked orec revalidation. */
    static constexpr Cycles stmValidateCost = 4;
    /** Abort: discard buffers, reset logs. */
    static constexpr Cycles stmAbortCost = 30;
    /** Hardware commit in hybrid mode: advance the global clock. */
    static constexpr Cycles htmInstrumentationCost = 8;
    /** Hardware commit in hybrid mode: per written line orec bump. */
    static constexpr Cycles htmOrecPublishCost = 2;
};

/**
 * The orec table + version clock + clock cell. Owned by value by the
 * Runtime; reset() is called at construction only for the hybrid
 * backend, so other runs never pay the table allocation.
 */
class StmEngine
{
  public:
    /** (Re)initialize for a run. @p conflict_shift is the runtime's
     *  resolved conflict-granularity shift. */
    void
    reset(const HybridRuntimeConfig& config, unsigned conflict_shift)
    {
        mask_ = (std::size_t(1) << config.orecTableLog2) - 1;
        orecs_.assign(mask_ + 1, 0);
        conflictShift_ = conflict_shift;
        wrapLimit_ = config.clockWrapLimit;
        clock_ = 0;
        epoch_ = 0;
        clockCell_ = sim::make<std::uint64_t>();
    }

    // --- Version clock -----------------------------------------------

    std::uint64_t clock() const { return clock_; }

    /** Epoch counter: bumped on clock wraparound; any software
     *  transaction whose begin-epoch differs must abort. */
    std::uint64_t epoch() const { return epoch_; }

    /** Advance the clock, handling wraparound, and return the new
     *  write version. */
    std::uint64_t
    advanceClock()
    {
        if (wrapLimit_ != 0 && clock_ >= wrapLimit_) {
            // Epoch reset: orec versions restart from zero, so every
            // read version snapshotted under the old epoch is
            // meaningless — the epoch counter is what keeps stale
            // software transactions from validating against them.
            std::fill(orecs_.begin(), orecs_.end(), 0);
            clock_ = 0;
            ++epoch_;
        }
        return ++clock_;
    }

    // --- Clock cell (the hardware subscription channel) --------------

    /** The memory word hardware transactions subscribe to. */
    std::uint64_t* clockCellAddr() { return clockCell_.get(); }
    std::uint64_t clockCell() const { return *clockCell_; }

    /** Raw store of the committed write version into the clock cell
     *  (the caller dooms directory subscribers first). */
    void publishClock(std::uint64_t version) { *clockCell_ = version; }

    // --- Orecs --------------------------------------------------------

    std::size_t orecCount() const { return orecs_.size(); }

    /** Orec index covering a conflict-granularity line number. */
    std::size_t
    indexOfLine(std::uintptr_t line) const
    {
        // Fibonacci hashing of the line number (a region address
        // shifted right).
        return std::size_t((std::uint64_t(line) *
                            0x9E3779B97F4A7C15ull) >> 32) & mask_;
    }

    /** Orec index covering an address. */
    std::size_t
    indexOfAddr(std::uintptr_t addr) const
    {
        return indexOfLine(addr >> conflictShift_);
    }

    std::uint64_t
    orecVersion(std::size_t index) const
    {
        return orecs_[index];
    }

    /** Set an orec to a committed write version. */
    void
    bumpOrec(std::size_t index, std::uint64_t version)
    {
        orecs_[index] = version;
    }

    /** Direct (non-transactional / irrevocable / hardware-commit)
     *  store instrumentation: stamp the address's orec with a fresh
     *  version so software validation observes the write. */
    void
    onDirectStore(std::uintptr_t addr)
    {
        orecs_[indexOfAddr(addr)] = advanceClock();
    }

    /** Free is a write. A software transaction can hold a pointer
     *  read consistently before the owner unlinked and freed the
     *  node; the region then recycles that memory with uninstrumented
     *  freelist stores. Hardware readers are doomed eagerly through
     *  the directory, but software readers are invisible to it —
     *  stamping every freed line here is what makes their next read
     *  of the recycled block fail validation instead of chasing a
     *  dangling pointer (the classic TL2 reclamation rule). */
    void
    onFree(const void* ptr, std::size_t bytes)
    {
        if (bytes == 0)
            return;
        const std::uint64_t version = advanceClock();
        const std::uintptr_t addr = std::uintptr_t(ptr);
        const std::uintptr_t first = addr >> conflictShift_;
        const std::uintptr_t last =
            (addr + bytes - 1) >> conflictShift_;
        for (std::uintptr_t line = first; line <= last; ++line)
            orecs_[indexOfLine(line)] = version;
    }

  private:
    std::vector<std::uint64_t> orecs_;
    std::size_t mask_ = 0;
    std::uint64_t clock_ = 0;
    std::uint64_t epoch_ = 0;
    std::uint64_t wrapLimit_ = 0;
    /** A simulated word on its own line in the run's region. */
    sim::Ptr<std::uint64_t> clockCell_;
    unsigned conflictShift_ = 0;
};

} // namespace htmsim::htm

#endif // HTMSIM_HTM_STM_HH
