/**
 * @file
 * Per-thread transaction context: the API application code programs
 * against inside an atomic section.
 *
 * A Tx is handed to the body passed to Runtime::atomic(). All shared
 * loads and stores inside the body must go through Tx::load()/store()
 * (the analogue of STAMP's TM_READ/TM_WRITE); transactional allocation
 * must use Tx::create()/destroy() (TM_MALLOC/TM_FREE). The same body
 * code runs unchanged when the section falls back to the global lock:
 * the Tx is then in irrevocable mode and accesses pass straight
 * through to memory with strong isolation.
 */

#ifndef HTMSIM_HTM_TX_HH
#define HTMSIM_HTM_TX_HH

#include <cassert>
#include <csetjmp>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <vector>

#include "abort.hh"
#include "flat_table.hh"
#include "site.hh"
#include "sim/scheduler.hh"

namespace htmsim::htm
{

class IrrevocableScope;
class Runtime;

/**
 * Lifecycle state of a transaction context. Three states also name the
 * kind of attempt Runtime::attempt drives: active (a hardware attempt,
 * constrained and ideal ones included), software and rollbackOnly.
 */
enum class TxStatus : std::uint8_t
{
    inactive,
    active,       ///< hardware attempt
    doomed,       ///< aborted by a peer; aborts at the next tx event
    irrevocable,  ///< running under the global lock
    rollbackOnly, ///< POWER8 ROT: buffering without conflict detection
    software,     ///< hybrid backend's STM slow path (stm.hh)
};

/**
 * Transaction context for one simulated thread.
 *
 * Supported access types are trivially copyable and at most 8 bytes
 * (word-granular store buffering); every location must be accessed
 * with a single consistent type, which all library data structures
 * honor. A buffered word re-accessed with another width throws
 * std::logic_error.
 *
 * Aborts restore a checkpoint, as the hardware does: the one attempt
 * driver (Runtime::attempt) takes one before begin for every kind of
 * attempt, and an abort raised inside the body jumps back to it,
 * abandoning the body's frames without running their destructors
 * (STAMP's TL2 TM_BEGIN is a sigsetjmp for the same reason). A body must therefore be restartable: it may hold no owning
 * object (a container, a string, an RAII guard) across a Tx access or
 * allocation. Keep such state in per-thread scratch owned outside the
 * body and clear it at body start.
 */
class Tx
{
  public:
    /** Transactional load (TM_READ). */
    template <typename T>
    T
    load(const T* addr)
    {
        static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8);
        const std::uint64_t word = loadWord(addr, sizeof(T));
        T value;
        std::memcpy(&value, &word, sizeof(T));
        return value;
    }

    /** Transactional store (TM_WRITE). */
    template <typename T>
    void
    store(T* addr, T value)
    {
        static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8);
        std::uint64_t word = 0;
        std::memcpy(&word, &value, sizeof(T));
        storeWord(addr, sizeof(T), word);
    }

    /** Charge @p cycles of in-transaction compute work. A doom raised
     *  by a peer meanwhile is acted on at the next access or at tend. */
    void work(sim::Cycles cycles);

    /**
     * Transactionally allocate and construct (TM_MALLOC). The object's
     * memory is charged to the transactional store footprint — real
     * HTM tracks initializing stores too — and is released if the
     * transaction aborts. T must be trivially destructible.
     */
    template <typename T, typename... Args>
    T*
    create(Args&&... args)
    {
        static_assert(std::is_trivially_destructible_v<T>);
        void* memory = allocBytes(sizeof(T));
        return ::new (memory) T(std::forward<Args>(args)...);
    }

    /**
     * Transactionally free (TM_FREE): the memory is reclaimed only if
     * the transaction commits.
     */
    template <typename T>
    void
    destroy(T* ptr)
    {
        static_assert(std::is_trivially_destructible_v<T>);
        deallocBytes(ptr, sizeof(T));
    }

    /** Raw transactional allocation; footprint-charged like create(). */
    void* allocBytes(std::size_t bytes);

    /** Raw deferred free. */
    void deallocBytes(void* ptr, std::size_t bytes);

    /** Explicit abort (tabort). Not allowed in irrevocable mode. */
    [[noreturn]] void abortTx();

    /**
     * POWER8 suspend: subsequent accesses are non-transactional until
     * resume(). Only valid on machines with suspend/resume support.
     */
    void suspend();

    /** POWER8 resume. */
    void resume();

    bool isSuspended() const { return suspended_; }
    bool isIrrevocable() const { return status_ == TxStatus::irrevocable; }
    TxStatus status() const { return status_; }

    /** Owning simulated thread id. */
    unsigned tid() const { return tid_; }

    /** Static site of the current atomic section (0 = unregistered). */
    TxSiteId site() const { return site_; }

    sim::ThreadContext& ctx() { return *ctx_; }
    sim::Rng& rng() { return ctx_->rng(); }
    Runtime& runtime() { return *runtime_; }

    /** Unique transactional load lines so far (capacity granularity). */
    std::uint32_t loadLines() const { return loadLines_; }
    /** Unique transactional store lines so far. */
    std::uint32_t storeLines() const { return storeLines_; }

  private:
    friend class IrrevocableScope;
    friend class Runtime;

    /// Buffered speculative value for one word.
    struct WriteEntry
    {
        std::uint64_t value;
        std::uint8_t size;
    };

    /// One deferred or speculative allocation.
    struct AllocRecord
    {
        void* ptr;
        std::size_t bytes;
    };

    /// Flag bits of the capacity-line and orec maps.
    static constexpr std::uint8_t lineRead = 1;
    static constexpr std::uint8_t lineWritten = 2;

    /// zEC12 constrained-transaction limits (Section 2.2). The 256-byte
    /// operand footprint is approximated as four cache lines.
    static constexpr std::uint32_t constrainedMaxOps() { return 32; }
    static constexpr std::size_t constrainedMaxLines() { return 4; }

    std::uint64_t loadWord(const void* addr, std::size_t size);
    void storeWord(void* addr, std::size_t size, std::uint64_t value);

    /// Software-path access slow paths (hybrid backend; stm.cc):
    /// orec-checked read / buffered write with orec logging.
    std::uint64_t stmLoadWord(const void* addr, std::size_t size);
    void stmStoreWord(void* addr, std::size_t size,
                      std::uint64_t value);

    /// Insert/overwrite a buffered speculative store, logging new
    /// addresses for the commit-time write-back walk.
    void bufferStore(std::uintptr_t uaddr, std::size_t size,
                     std::uint64_t value);

    /// Model the Intel adjacent-line prefetcher (Section 5.1).
    void maybePrefetch(std::uintptr_t addr);
    /// Enforce the constrained-transaction footprint limit.
    void checkConstraintFootprint();

    /// Abort (selfAbort) with the peer's cause if a peer doomed this
    /// transaction.
    void checkDoom();

    /// Raise an abort from inside an access or the body: record
    /// @p cause and restore the attempt driver's checkpoint. Begin and
    /// commit return their aborts instead. Throws std::logic_error
    /// when no attempt holds a live checkpoint.
    [[noreturn]] void selfAbort(AbortCause cause);

    /// The buffered store to the word at @p uaddr, or nullptr. Throws
    /// std::logic_error if it was stored with a width other than
    /// @p size: the word-keyed buffer cannot merge mixed widths.
    const WriteEntry* findBuffered(std::uintptr_t uaddr,
                                   std::size_t size) const;

    /// Record a software-path orec access (stm.cc).
    void touchOrec(std::size_t index, std::uint8_t flag);

    /// Mark a line in the conflict directory (read or write). This
    /// attempt's read flag for the line is "tid is among its readers",
    /// its write flag "tid owns it": no peer can clear either while
    /// the attempt is live, since taking a line over dooms it first.
    void touchConflictLine(std::uintptr_t addr, bool is_write);
    /// Account a line against the capacity budgets.
    void touchCapacityLine(std::uintptr_t addr, bool is_write);

    /// Reset all per-attempt state (buffers, sets, counters).
    void resetAttemptState();

    /// Whether touchLog_ holds conflict lines: true unless the last
    /// attempt ran on the software path and logged orec indices.
    bool logsConflictLines() const { return stmOrecs_.empty(); }

    Runtime* runtime_ = nullptr;
    sim::ThreadContext* ctx_ = nullptr;
    unsigned tid_ = 0;

    TxStatus status_ = TxStatus::inactive;
    AbortCause doomCause_ = AbortCause::none;
    /// The running attempt's begin checkpoint, live from the driver's
    /// setjmp until the body ends or aborts. After selfAbort() jumps
    /// back, the driver reads the cause from raised_: a local set
    /// between setjmp and longjmp would be indeterminate.
    std::jmp_buf checkpoint_;
    bool checkpointLive_ = false;
    AbortCause raised_ = AbortCause::none;
    bool suspended_ = false;
    bool constrained_ = false;
    bool unkillable_ = false;
    bool holdsSpecId_ = false;
    std::uint64_t startOrder_ = 0;

    /// Static site of the enclosing atomic section; persists across
    /// retries and the global-lock fallback of that section.
    TxSiteId site_ = unknownTxSite;
    /// Virtual time the current attempt started (cycle attribution).
    sim::Cycles attemptStart_ = 0;

    /// Sentinel for the last-line memo: no line seen yet. Real line
    /// numbers are addresses shifted right, so all-ones is unreachable.
    static constexpr std::uintptr_t noLine = ~std::uintptr_t(0);

    FlatTable<WriteEntry> writeBuffer_;
    /// Buffered store addresses in first-store order: commit walks
    /// this log (O(touched words)) instead of iterating the table.
    std::vector<std::uintptr_t> writeLog_;
    /// First-touch log of the attempt's tracked keys: conflict lines
    /// (prefetched neighbours included) on the hardware path, orec
    /// indices on the software path, which never marks the directory.
    /// Directory cleanup, the hybrid orec bump and software validation
    /// walk it, so they cost this attempt's footprint, not the
    /// tables' high water. It outlives the attempt until the next one
    /// begins: the Runtime's destructor and trackedConflictLines()
    /// read the lines a thread may still have marked from it.
    std::vector<std::uintptr_t> touchLog_;
    /// Capacity-granularity lines touched: bit0 = read, bit1 = write.
    FlatTable<std::uint8_t> capacityLines_;
    /// Store lines per L1 set (Intel way-conflict model).
    FlatTable<unsigned> storeSetLines_;

    /// One-entry memo of the last (conflict, capacity) line pair whose
    /// read/write bookkeeping is complete: consecutive accesses to the
    /// same line (sequential scans) skip all table probes.
    std::uintptr_t memoReadConflictLine_ = noLine;
    std::uintptr_t memoReadCapacityLine_ = noLine;
    std::uintptr_t memoWriteConflictLine_ = noLine;
    std::uintptr_t memoWriteCapacityLine_ = noLine;

    std::uint32_t loadLines_ = 0;
    std::uint32_t storeLines_ = 0;
    std::uint32_t opCount_ = 0;

    /// Software path (hybrid backend): orecs touched this attempt
    /// (bit0 = read, bit1 = written), the read-version snapshot, and
    /// the clock-cell snapshot taken at begin.
    FlatTable<std::uint8_t> stmOrecs_;
    std::uint64_t stmRv_ = 0;
    std::uint64_t stmClockSnap_ = 0;

    std::vector<AllocRecord> speculativeAllocs_;
    std::vector<AllocRecord> deferredFrees_;
};

/**
 * RAII guard for irrevocable (non-speculative) execution of a Tx.
 *
 * Binds the thread context and flips the Tx to irrevocable mode for
 * the guard's scope; the destructor restores it to inactive even when
 * the body throws, so an exception can never leak a Tx stuck in
 * irrevocable mode into the next atomic section. Every irrevocable
 * path — the global-lock fallback, runLocked(), runNonSpeculative()
 * — goes through this guard.
 */
class IrrevocableScope
{
  public:
    IrrevocableScope(Tx& tx, sim::ThreadContext& ctx)
        : tx_(tx)
    {
        assert(tx.status_ == TxStatus::inactive);
        tx_.ctx_ = &ctx;
        tx_.status_ = TxStatus::irrevocable;
    }

    ~IrrevocableScope() { tx_.status_ = TxStatus::inactive; }

    IrrevocableScope(const IrrevocableScope&) = delete;
    IrrevocableScope& operator=(const IrrevocableScope&) = delete;

  private:
    Tx& tx_;
};

} // namespace htmsim::htm

#endif // HTMSIM_HTM_TX_HH
