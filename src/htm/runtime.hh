/**
 * @file
 * The HTM emulation runtime, layered (DESIGN.md Section 3):
 *
 *   RetryPolicy (retry_policy.hh)  — when to retry after an abort, and
 *                                    TierPolicy, which tier runs next;
 *   CapacityModel (capacity_model.hh) — per-machine footprint budgets;
 *   Runtime (this file)            — the machine substrate: conflict
 *                                    directory, begin/commit/rollback,
 *                                    global-lock fallback, statistics,
 *                                    and the one section driver.
 *
 * One Runtime instance models one machine for one multi-threaded run.
 * Application threads (simulated threads) call atomic() to execute a
 * critical section. The section driver (runSection) tries hardware
 * attempts, then the hybrid backend's software tier, then the global
 * lock, with each thread's TierPolicy deciding when to move on — over
 * the paper's Figure 1 retry mechanism (three counters: lock /
 * persistent / transient) on zEC12, Intel Core and POWER8, and the
 * system-provided single-counter mechanism with adaptation on
 * Blue Gene/Q. The backend (backend.hh) only picks the starting tier
 * and which tiers are live.
 */

#ifndef HTMSIM_HTM_RUNTIME_HH
#define HTMSIM_HTM_RUNTIME_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "abort.hh"
#include "backend.hh"
#include "capacity_model.hh"
#include "flat_table.hh"
#include "function_ref.hh"
#include "hazard.hh"
#include "machine.hh"
#include "observer.hh"
#include "retry_policy.hh"
#include "site.hh"
#include "stats.hh"
#include "stm.hh"
#include "tx.hh"
#include "sim/region.hh"
#include "sim/scheduler.hh"

namespace htmsim::htm
{

/**
 * Ceiling on simulated threads per Runtime. Sized for the server
 * scenario's 256 clients; the conflict directory's reader sets are
 * fixed-width multiword bitmasks of exactly this many bits, so raising
 * it costs directory memory and a word per reader-walk, nothing else.
 */
inline constexpr unsigned kMaxTxThreads = 256;

/**
 * Fixed-width set of reader thread ids. A drop-in widening of the old
 * single-uint64 mask: the hot paths still set/clear one bit with two
 * shifts, and walks visit only non-zero words with ctz scans.
 */
struct ReaderSet
{
    static constexpr unsigned kWords = kMaxTxThreads / 64;

    std::uint64_t words[kWords] = {};

    void
    set(unsigned tid)
    {
        words[tid >> 6] |= std::uint64_t(1) << (tid & 63);
    }

    void
    clear(unsigned tid)
    {
        words[tid >> 6] &= ~(std::uint64_t(1) << (tid & 63));
    }

    bool
    any() const
    {
        std::uint64_t all = 0;
        for (const std::uint64_t word : words)
            all |= word;
        return all != 0;
    }

    /**
     * Invoke @p fn(tid) for every member except @p self. Callers that
     * mutate the underlying line during the walk (dooming a reader
     * clears its marks) must iterate a by-value copy, exactly as the
     * old code copied the uint64 mask.
     */
    template <typename Fn>
    void
    forEachExcept(unsigned self, Fn&& fn) const
    {
        for (unsigned w = 0; w < kWords; ++w) {
            std::uint64_t bits = words[w];
            if (w == (self >> 6))
                bits &= ~(std::uint64_t(1) << (self & 63));
            while (bits != 0) {
                fn(w * 64 + unsigned(__builtin_ctzll(bits)));
                bits &= bits - 1;
            }
        }
    }
};

/**
 * Tracking state of one conflict-granularity line: the
 * cache-coherence-based access marks all four machines keep (writer id
 * plus a reader set, Section 2). The directory lives directly in the
 * Runtime as a FlatTable keyed by line number (address >> granularity
 * log2); entries are never erased — clearing a mark empties the state
 * and the slot is reused on the next touch, trading a bounded
 * footprint (distinct lines ever touched) for erase-free probing.
 */
struct ConflictLineState
{
    /** Writing transaction's thread id, or -1. */
    int writer = -1;
    /** Reader thread ids (up to kMaxTxThreads). */
    ReaderSet readers;

    bool
    empty() const
    {
        return writer < 0 && !readers.any();
    }
};

/** Who survives when two transactions collide on a line. */
enum class ConflictPolicy : std::uint8_t
{
    /** The access in progress aborts the peer (coherence-invalidation
     *  behaviour of all four machines; the default). */
    attackerWins,
    /** The access in progress aborts its own transaction. */
    attackerLoses,
    /** The younger transaction aborts (timestamp arbitration). */
    olderWins,
};

/**
 * Deliberate model faults, enabled only by simcheck self-tests
 * (check_runner --inject-fault) to prove the differential oracle
 * detects a broken conflict-detection path. Never set in experiments;
 * the default compiles to the unmodified hot path.
 */
enum class CheckFault : std::uint8_t
{
    none,
    /** Eager-detection miss: a transactional store no longer dooms
     *  concurrent readers of its line, so a reader can commit a stale
     *  snapshot (lost updates — a serializability violation). */
    missReaderConflict,
    /** Retry-driver bug: the section driver ignores the policy's
     *  decision to leave the hardware tier for the lock, so a thread
     *  whose attempts keep aborting retries forever (a liveness
     *  violation the liveness oracle must catch). */
    stuckRetry,
    /** Hybrid-backend subscription bug: a software commit's write-back
     *  skips both the per-address dooming of conflicting hardware
     *  transactions and the clock-cell publication (orec bumps are
     *  kept), so hardware readers commit stale snapshots under either
     *  subscription mode (lost updates the oracle must catch). */
    missStmSubscription,
};

/** Blue Gene/Q-specific runtime knobs (Section 2.1 / Section 3). */
struct BgqRuntimeConfig
{
    /** Execution mode: conflict granularity and L1 handling. */
    BgqMode mode = BgqMode::shortRunning;
    /** The system software's single retry counter (env variable). */
    int maxRetries = 10;
    /** Adaptation: stop retrying after frequent fallback. */
    bool adaptation = true;
};

/** Intel Core-specific runtime knobs. */
struct IntelRuntimeConfig
{
    /** Ablation switch for the adjacent-line prefetcher (Section 5.1). */
    bool prefetchEnabled = true;
};

/** Everything configurable about one run. */
struct RuntimeConfig
{
    MachineConfig machine;
    RetryCounts retry;
    ConflictPolicy policy = ConflictPolicy::attackerWins;

    /** Which retry-policy implementation HTM sections run under: the
     *  machine's own mechanism, or the hardened starvation-proof
     *  policy (retry_policy.hh). */
    RetryPolicyKind policyKind = RetryPolicyKind::machineDefault;

    /** How atomic() executes: best-effort HTM (the machines), the
     *  global-lock-only baseline, or the ideal-HTM oracle. */
    BackendKind backend = BackendKind::htm;

    /** Vendor-specific knobs (ignored on other machines). */
    BgqRuntimeConfig bgq;
    IntelRuntimeConfig intel;

    /** Record per-transaction footprints (Figures 10/11). */
    bool collectTrace = false;
    /** Disable capacity aborts (the paper's STM-based trace tool had
     *  no capacity limit); used together with collectTrace. */
    bool ignoreCapacity = false;

    /** Injected model fault for simcheck oracle self-tests only. */
    CheckFault checkFault = CheckFault::none;

    /** Hybrid-backend knobs (stm.hh): subscription mode, software
     *  retry budget, orec-table geometry, cost model. Read only when
     *  backend == BackendKind::hybrid; the orec table they size is
     *  allocated only when the software path is live. */
    HybridRuntimeConfig hybrid;

    /** Deterministic hazard injection (hazard.hh). Off by default;
     *  when off the layer is provably zero-perturbation. */
    HazardConfig hazard;

    /**
     * Lifecycle-event observer to register at construction (txprof /
     * simcheck). Non-owning; must outlive the Runtime. Equivalent to
     * calling setObserver() right after construction — this hook
     * exists so harness code that builds runtimes internally (the
     * STAMP measurement harness, the bench suite) can attach a
     * profiler without new plumbing. nullptr = no observer.
     */
    TxObserver* observer = nullptr;

    /** Base cycles of randomized backoff after an abort. The paper's
     *  Figure 1 retries immediately; a small randomized delay only
     *  de-synchronizes the deterministic lock-step of the simulation
     *  and must stay well below a transaction's length. */
    Cycles backoffBase = 15;
    /** Cap for the exponential backoff shift. */
    unsigned maxBackoffShift = 4;

    /**
     * Epoch-batched scheduling fast path (DESIGN.md Section 5). On by
     * default; simulated results are bit-identical either way. The
     * switch exists as an escape hatch and for A/B verification
     * (`--no-batch` in the tools).
     */
    bool batchEpoch = true;

    /** Construct a config for one of the paper's machines. */
    explicit RuntimeConfig(MachineConfig machine_config)
        : machine(std::move(machine_config))
    {
    }

    RuntimeConfig() = default;
};

/**
 * HTM emulation runtime for one machine and one set of threads.
 */
class Runtime
{
  public:
    /**
     * @param config machine + policy configuration
     * @param num_threads simulated threads that will use this runtime;
     *        std::invalid_argument outside 1..kMaxTxThreads
     */
    Runtime(RuntimeConfig config, unsigned num_threads);
    ~Runtime();

    Runtime(const Runtime&) = delete;
    Runtime& operator=(const Runtime&) = delete;

    /**
     * Execute @p body atomically through the section driver: by
     * default transactionally with retries, then irrevocably under the
     * global lock (best-effort HTM + fallback). The body may run many
     * times; it must be idempotent apart from its Tx-mediated effects.
     */
    template <typename F>
    void
    atomic(sim::ThreadContext& ctx, F&& body)
    {
        atomic(ctx, unknownTxSite, std::forward<F>(body));
    }

    /** atomic() with a static site id for per-site profiling. */
    template <typename F>
    void
    atomic(sim::ThreadContext& ctx, TxSiteId site, F&& body)
    {
        bindSite(ctx.id(), site);
        FunctionRef<void(Tx&)> ref(body);
        // Section latency: begin-of-first-attempt (including any
        // lemming wait inside the driver) to commit, in virtual
        // cycles. Observation only — nothing here advances the clock.
        const Cycles start = ctx.now();
        runSection(ctx, ref);
        TxStats& stats = stats_[ctx.id()];
        const std::uint64_t latency = ctx.now() - start;
        ++stats.sections;
        stats.sectionCyclesTotal += latency;
        stats.sectionCyclesMax = std::max(stats.sectionCyclesMax,
                                          latency);
    }

    /**
     * zEC12 constrained transaction (Section 2.2): guaranteed eventual
     * commit, no fallback handler required. The body is limited to 32
     * transactional operations and a 256-byte footprint; violations
     * throw std::logic_error (a programming error, as on real zEC12).
     */
    template <typename F>
    void
    constrainedAtomic(sim::ThreadContext& ctx, F&& body)
    {
        constrainedAtomic(ctx, unknownTxSite, std::forward<F>(body));
    }

    /** constrainedAtomic() with a static site id. */
    template <typename F>
    void
    constrainedAtomic(sim::ThreadContext& ctx, TxSiteId site, F&& body)
    {
        bindSite(ctx.id(), site);
        FunctionRef<void(Tx&)> ref(body);
        runConstrained(ctx, ref);
    }

    /**
     * POWER8 rollback-only transaction: store buffering and rollback
     * without conflict detection (single-thread speculation support).
     * @return true if the body committed, false if it aborted.
     */
    template <typename F>
    bool
    rollbackOnly(sim::ThreadContext& ctx, F&& body)
    {
        return rollbackOnly(ctx, unknownTxSite, std::forward<F>(body));
    }

    /** rollbackOnly() with a static site id. */
    template <typename F>
    bool
    rollbackOnly(sim::ThreadContext& ctx, TxSiteId site, F&& body)
    {
        bindSite(ctx.id(), site);
        FunctionRef<void(Tx&)> ref(body);
        return runRollbackOnly(ctx, ref);
    }

    /**
     * Transactional attempts driven by a caller-owned RetryPolicy,
     * WITHOUT the lemming-effect wait, backoff, or lock fallback —
     * the caller owns the fallback path (lock-free retry loops, HLE).
     * @return AbortCause::none once an attempt commits, or the final
     * abort cause once the policy stops retrying.
     */
    template <typename F>
    AbortCause
    tryAtomic(sim::ThreadContext& ctx, RetryPolicy& policy, F&& body)
    {
        return tryAtomic(ctx, policy, unknownTxSite,
                         std::forward<F>(body));
    }

    /** tryAtomic() with a static site id. */
    template <typename F>
    AbortCause
    tryAtomic(sim::ThreadContext& ctx, RetryPolicy& policy,
              TxSiteId site, F&& body)
    {
        bindSite(ctx.id(), site);
        FunctionRef<void(Tx&)> ref(body);
        return runPolicyAttempts(ctx, policy, ref);
    }

    /**
     * Plain transactional attempt without any retry logic or lock
     * fallback. @return the abort cause, or AbortCause::none on
     * commit. Building block for HLE and custom policies.
     */
    template <typename F>
    AbortCause
    tryOnce(sim::ThreadContext& ctx, F&& body)
    {
        return tryOnce(ctx, unknownTxSite, std::forward<F>(body));
    }

    /** tryOnce() with a static site id. */
    template <typename F>
    AbortCause
    tryOnce(sim::ThreadContext& ctx, TxSiteId site, F&& body)
    {
        NoRetryPolicy policy;
        return tryAtomic(ctx, policy, site, body);
    }

    /** Execute @p body under the global lock (irrevocably). */
    template <typename F>
    void
    runLocked(sim::ThreadContext& ctx, F&& body)
    {
        runLocked(ctx, unknownTxSite, std::forward<F>(body));
    }

    /** runLocked() with a static site id. */
    template <typename F>
    void
    runLocked(sim::ThreadContext& ctx, TxSiteId site, F&& body)
    {
        bindSite(ctx.id(), site);
        FunctionRef<void(Tx&)> ref(body);
        runIrrevocable(ctx, txOf(ctx.id()), ref);
    }

    // --- Non-transactional (strongly isolated) accesses --------------

    /** Non-transactional load; aborts a conflicting peer writer. */
    template <typename T>
    T
    nonTxLoad(sim::ThreadContext& ctx, const T* addr)
    {
        static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8);
        ctx.advance(config_.machine.nonTxLoadCost);
        ctx.sync();
        nonTxConflict(ctx.id(), std::uintptr_t(addr), false, ctx.now());
        return *addr;
    }

    /** Non-transactional store; aborts conflicting peer transactions. */
    template <typename T>
    void
    nonTxStore(sim::ThreadContext& ctx, T* addr, T value)
    {
        static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8);
        ctx.advance(config_.machine.nonTxStoreCost);
        ctx.sync();
        nonTxConflict(ctx.id(), std::uintptr_t(addr), true, ctx.now());
        *addr = value;
    }

    /**
     * Atomic (in virtual time) compare-and-swap with strong
     * isolation; the substrate for lock-free baselines.
     */
    template <typename T>
    bool
    nonTxCas(sim::ThreadContext& ctx, T* addr, T expected, T desired)
    {
        static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8);
        ctx.advance(config_.machine.casCost);
        ctx.sync();
        nonTxConflict(ctx.id(), std::uintptr_t(addr), true, ctx.now());
        if (*addr != expected)
            return false;
        *addr = desired;
        return true;
    }

    /**
     * Run @p body non-speculatively (direct accesses with strong
     * isolation) WITHOUT taking the global fallback lock. The caller
     * must provide mutual exclusion itself — this is the HLE
     * lock-acquired path and the TLS in-order path. Exception-safe:
     * the irrevocable status is scoped to the body (and no commit is
     * counted) even if it throws.
     */
    template <typename F>
    void
    runNonSpeculative(sim::ThreadContext& ctx, F&& body)
    {
        Tx& tx = txOf(ctx.id());
        const Cycles start = ctx.now();
        IrrevocableScope scope(tx, ctx);
        body(tx);
        ++stats_[ctx.id()].irrevocableCommits;
        stats_[ctx.id()].fallbackCycles += ctx.now() - start;
    }

    /**
     * Site-aware runNonSpeculative for per-object lock fallbacks
     * (tmsync): binds @p site and emits a nonSpecCommit lifecycle
     * event at body completion so observers (simcheck, liveness,
     * txprof) see the section's serialization point. The 2-arg
     * overload above stays event-free — its callers (HLE global lock,
     * TLS) account their sections through other events.
     */
    template <typename F>
    void
    runNonSpeculative(sim::ThreadContext& ctx, TxSiteId site, F&& body)
    {
        bindSite(ctx.id(), site);
        const Cycles start = ctx.now();
        runNonSpeculative(ctx, std::forward<F>(body));
        emitEvent(TxEventKind::nonSpecCommit, ctx.id(), site, ctx.now(),
                  start);
    }

    /** Atomic (in virtual time) non-transactional fetch-add. */
    template <typename T>
    T
    nonTxFetchAdd(sim::ThreadContext& ctx, T* addr, T delta)
    {
        static_assert(std::is_integral_v<T>);
        ctx.advance(config_.machine.nonTxStoreCost +
                    config_.machine.nonTxLoadCost);
        ctx.sync();
        nonTxConflict(ctx.id(), std::uintptr_t(addr), true, ctx.now());
        const T previous = *addr;
        *addr = previous + delta;
        return previous;
    }

    // --- Introspection ------------------------------------------------

    const RuntimeConfig& config() const { return config_; }
    const MachineConfig& machine() const { return config_.machine; }

    /** The execution backend atomic() runs under. */
    BackendKind backendKind() const { return config_.backend; }

    /** Conflict-detection granularity in effect (mode-dependent on
     *  Blue Gene/Q: 8 B short-running, 64 B long-running). */
    std::size_t effectiveGranularity() const
    {
        return std::size_t(1) << conflictShift_;
    }

    /** Aggregated statistics across all threads. */
    TxStats stats() const;

    /** One thread's statistics. */
    const TxStats& threadStats(unsigned tid) const
    {
        return stats_[tid];
    }

    TraceCollector& trace() { return trace_; }
    const TraceCollector& trace() const { return trace_; }

    /** The software-TM engine (hybrid backend; tests inspect the
     *  clock/epoch, everything else goes through atomic()). */
    const StmEngine& stm() const { return stm_; }

    /** Free-is-a-write instrumentation (StmEngine::onFree), gated so
     *  non-hybrid runs never touch the engine. Every path that
     *  releases simulated memory back to the region while software
     *  transactions may be in flight must pass through here. */
    void
    stmOnFree(const void* ptr, std::size_t bytes)
    {
        if (stmEnabled_)
            stm_.onFree(ptr, bytes);
    }

    /**
     * Register a lifecycle-event observer (nullptr to remove).
     * Non-owning; must outlive the run. Events are delivered in
     * global virtual-time order (see observer.hh).
     */
    void setObserver(TxObserver* observer) { observer_ = observer; }
    TxObserver* observer() const { return observer_; }

    /** The transaction context of a thread (tests / TLS runtime). */
    Tx& txOf(unsigned tid) { return *txs_[tid]; }

    /**
     * Bind a static site id to a thread's next atomic section(s). The
     * binding sticks until the next bind, so every attempt — including
     * the global-lock fallback of the same section — reports the same
     * site. The site-aware atomic() overloads call this; it is public
     * for custom drivers (HLE, TLS) that stage sections themselves.
     */
    void bindSite(unsigned tid, TxSiteId site);

    /** Whether the global fallback lock is currently held. */
    bool globalLockHeld() const { return *lockWord_ != 0; }

    /** Number of lines with live marks in the conflict directory. */
    std::size_t
    trackedConflictLines() const
    {
        std::size_t count = 0;
        directory_.forEach(
            [&count](std::uintptr_t, const ConflictLineState& line) {
                if (!line.empty())
                    ++count;
            });
        return count;
    }

    /** Cycles charged per probe when spinning on the global lock. */
    static constexpr Cycles lockPollCost = 30;

    /** Constrained-tx aborts before the hardware escalates. */
    static constexpr unsigned escalationThreshold = 4;

  private:
    friend class Tx;

    /**
     * The one section driver behind atomic(): attempts starting on the
     * lock tier for the lock-only backend and on the TierPolicy's
     * first tier otherwise, moving hardware -> software -> lock as the
     * thread's TierPolicy decides, with the lemming-effect wait before
     * every attempt and backoff between same-tier retries.
     */
    void runSection(sim::ThreadContext& ctx, FunctionRef<void(Tx&)> body);
    AbortCause runPolicyAttempts(sim::ThreadContext& ctx,
                                 RetryPolicy& policy,
                                 FunctionRef<void(Tx&)> body);
    void runConstrained(sim::ThreadContext& ctx,
                        FunctionRef<void(Tx&)> body);
    bool runRollbackOnly(sim::ThreadContext& ctx,
                         FunctionRef<void(Tx&)> body);
    void runIrrevocable(sim::ThreadContext& ctx, Tx& tx,
                        FunctionRef<void(Tx&)> body);

    /**
     * One transactional attempt: begin, body, commit. Returns
     * AbortCause::none on success. When @p record_stats is set the
     * abort is tallied (reported bucket chosen per machine).
     */
    AbortCause attempt(Tx& tx, sim::ThreadContext& ctx,
                       FunctionRef<void(Tx&)> body, bool lazy_subscribe,
                       bool record_stats);

    /** Begin an attempt. Returns the abort cause when the attempt
     *  dies at begin (lock held under eager subscription), else
     *  AbortCause::none; aborts of the subscription load itself
     *  still throw. */
    AbortCause txBegin(Tx& tx, sim::ThreadContext& ctx,
                       bool lazy_subscribe);
    /** Commit an attempt, or return the cause that kills it at tend
     *  (doom, commit-point hazard, lazy lock or clock check). */
    AbortCause txCommit(Tx& tx, sim::ThreadContext& ctx,
                        bool lazy_subscribe);
    void rollback(Tx& tx, sim::ThreadContext& ctx);
    /** Clear @p tx's reader and writer marks from the directory. */
    void clearDirectoryMarks(const Tx& tx);
    void recordAbort(Tx& tx, AbortCause cause);

    // --- Software slow path (hybrid backend; stm.cc) ------------------

    /** One software attempt: begin, body, commit-time validation and
     *  write-back. Returns AbortCause::none on success. */
    AbortCause stmAttempt(Tx& tx, sim::ThreadContext& ctx,
                          FunctionRef<void(Tx&)> body);

    void stmBegin(Tx& tx, sim::ThreadContext& ctx);
    /** Validate and publish, or return the cause that aborts the
     *  commit (lock held, epoch wrap, stale read orec). */
    AbortCause stmCommit(Tx& tx, sim::ThreadContext& ctx);
    void stmRollback(Tx& tx, sim::ThreadContext& ctx, AbortCause cause);

    /** Spin until the global lock is free (lemming-effect avoidance,
     *  Figure 1 line 9) and no constrained transaction has priority. */
    void waitToBegin(sim::ThreadContext& ctx);

    void acquireGlobalLock(sim::ThreadContext& ctx);
    void releaseGlobalLock(sim::ThreadContext& ctx);

    /** Charge capped exponential backoff after an abort. Jitter is
     *  drawn from ctx.rng() by default; @p deterministic_jitter
     *  (hardened policy) hashes (tid, consecutive) instead, keeping
     *  the thread's main rng stream position schedule-independent. */
    void backoff(sim::ThreadContext& ctx, unsigned consecutive_aborts,
                 bool deterministic_jitter = false);

    /** Resolve a conflict on @p line between the attacking access and
     *  a peer transaction. */
    void resolveConflict(Tx& attacker, unsigned victim_tid,
                         AbortCause victim_cause, std::uintptr_t line);
    /** Doom @p victim_tid (if killable). @return whether it was. */
    bool doomTx(unsigned victim_tid, AbortCause cause);

    /** Strong isolation for non-transactional accesses. @p now is the
     *  accessor's virtual clock (conflict-event timestamping only). */
    void nonTxConflict(unsigned tid, std::uintptr_t addr, bool is_write,
                       Cycles now);

    // --- Conflict directory (line -> writer/readers marks) -----------

    /** Conflict-granularity line number covering @p addr. */
    std::uintptr_t conflictLineOf(std::uintptr_t addr) const
    {
        return addr >> conflictShift_;
    }

    /** Find-or-create the tracking state for a line. */
    ConflictLineState& directoryLine(std::uintptr_t line_number)
    {
        return directory_.insertOrFind(line_number);
    }

    /** Find the tracking state for a line, or nullptr. The returned
     *  state may be empty (marks already cleared; slots persist). */
    ConflictLineState* findDirectoryLine(std::uintptr_t line_number)
    {
        return directory_.find(line_number);
    }

    /** Deliver one lifecycle event to the registered observer. */
    void
    emitEvent(TxEventKind kind, unsigned tid, TxSiteId site,
              Cycles cycles, Cycles section_start,
              AbortCause cause = AbortCause::none)
    {
        if (observer_ != nullptr) {
            observer_->onEvent(TxEvent{kind, cause, std::uint16_t(tid),
                                       site, cycles, section_start});
        }
    }

    /** Deliver one conflict resolution to the registered observer. */
    void emitConflict(unsigned attacker_tid, unsigned victim_tid,
                      bool attacker_non_tx, std::uintptr_t line,
                      Cycles cycles);

    // Speculation-ID pool (Blue Gene/Q, Section 2.1).
    void acquireSpecId(Tx& tx, sim::ThreadContext& ctx);
    void releaseSpecId(Tx& tx);

    /** Threads currently transactional on a core (SMT sharing). */
    unsigned activeTxOnCore(unsigned core) const
    {
        return activePerCore_[core];
    }

    RuntimeConfig config_;
    unsigned conflictShift_;
    unsigned capacityShift_;

    // Effective machine parameters, resolved once at construction from
    // (machine preset, vendor mode, backend). The hot paths read these
    // instead of re-deriving vendor special cases per access; the
    // ideal-HTM backend zeroes the overheads and randomness here.
    Cycles txBeginCost_ = 0;
    Cycles txEndCost_ = 0;
    Cycles txAbortCost_ = 0;
    Cycles txLoadCost_ = 0;
    Cycles txStoreCost_ = 0;
    double prefetchProb_ = 0.0;
    double cacheFetchProb_ = 0.0;
    bool lazySubscription_ = false;
    unsigned specIdPool_ = 0;

    /** Resolved once: backend == hybrid and the software path is on.
     *  Every hybrid hook on the shared hot paths gates on this, so
     *  other backends (and hybrid with stmEnabled=false) execute the
     *  unmodified instruction stream. */
    bool stmEnabled_ = false;
    /** Resolved subscription mode (eager = clock-cell load at begin). */
    bool stmEagerSub_ = false;

    /** The conflict directory (see ConflictLineState). */
    FlatTable<ConflictLineState, 64> directory_;
    std::unique_ptr<CapacityModel> capacityModel_;
    /** Per-thread tier decisions for runSection (policies carry
     *  cross-section state, so one per thread). */
    std::vector<TierPolicy> tiers_;
    std::vector<std::unique_ptr<Tx>> txs_;
    std::vector<TxStats> stats_;
    TraceCollector trace_;
    TxObserver* observer_ = nullptr;

    /** Hazard injector (hazard.hh); every hot-path hook is gated on
     *  hazard_.enabled(). */
    HazardInjector hazard_;

    /** Software-TM engine (stm.hh); reset only when stmEnabled_. */
    StmEngine stm_;

    /** The single-memory-word global fallback lock (Section 3), a
     *  simulated word on its own line in the run's region. */
    sim::Ptr<std::uint64_t> lockWord_ = sim::make<std::uint64_t>();

    /** When the current lock holder completed its acquisition (hold
     *  span start for the lockReleased event; observation only). */
    Cycles lockHoldStart_ = 0;

    /** Thread holding constrained-transaction priority, or -1. */
    int constrainedOwner_ = -1;

    /** Monotonic transaction start order (olderWins arbitration). */
    std::uint64_t startCounter_ = 0;

    std::vector<unsigned> activePerCore_;

    // Speculation-ID pool state.
    unsigned freeSpecIds_ = 0;
    unsigned retiredSpecIds_ = 0;
};

} // namespace htmsim::htm

#endif // HTMSIM_HTM_RUNTIME_HH
