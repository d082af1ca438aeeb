/**
 * @file
 * Discrete-event scheduler for simulated threads.
 *
 * Every simulated thread owns a virtual clock measured in cycles. The
 * scheduler always resumes the runnable thread with the smallest clock,
 * so shared-memory events issued at scheduling points occur in global
 * virtual-time order. This is what makes speed-up measurements on a
 * single host core meaningful: the makespan (maximum finish time) of a
 * run is the simulated parallel execution time.
 *
 * Epoch batching (DESIGN.md Section 5): while one thread runs, every
 * other thread is frozen, so the smallest other runnable clock cannot
 * change between two of the running thread's scheduling points. The
 * scheduler therefore hands the dispatched thread a *lease* — the
 * virtual time up to which sync() is provably a no-op — and sync()
 * reduces to a single compare until the lease expires. A batched run
 * is bit-identical to an unbatched one by construction: only scheduling
 * points that could not have switched threads are elided.
 */

#ifndef HTMSIM_SIM_SCHEDULER_HH
#define HTMSIM_SIM_SCHEDULER_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fiber.hh"
#include "random.hh"

namespace htmsim::sim
{

/** Virtual time, in processor cycles. */
using Cycles = std::uint64_t;

/** Thrown when the simulation cannot make progress (virtual livelock). */
class SimError : public std::runtime_error
{
  public:
    explicit SimError(const std::string& what) : std::runtime_error(what) {}
};

class Scheduler;

/**
 * Hook consulted at every scheduling point (sync / yieldNow).
 *
 * Returning a non-zero delay pushes the current thread's clock forward
 * before the scheduler picks the next runnable thread, which reorders
 * globally visible events relative to the deterministic
 * earliest-time-first baseline while preserving the virtual-time
 * semantics (events still occur in virtual-time order). This is the
 * mechanism simcheck's FuzzScheduler (src/check) uses to explore
 * distinct interleavings per seed; with no perturber registered the
 * scheduler's behaviour is bit-identical to before the hook existed.
 *
 * Draw discipline (schedule format v2): the perturber is consulted
 * exactly once per scheduling point — sync() no longer draws a second
 * time when it enters the yield path, so per-thread point indices are
 * stable regardless of whether a point actually switched threads.
 * Schedules recorded under the old double-draw discipline do not
 * replay; re-record them. While a perturber is registered the sync()
 * fast path is disabled entirely, so epoch batching never elides a
 * point index.
 */
class SchedulePerturber
{
  public:
    virtual ~SchedulePerturber() = default;

    /**
     * Called once per scheduling point of thread @p tid, whose clock
     * reads @p now. @return extra cycles to charge the thread before
     * the scheduling decision (0 = leave the schedule alone).
     */
    virtual Cycles preemptDelay(unsigned tid, Cycles now) = 0;
};

/**
 * Per-thread handle passed to simulated-thread bodies.
 *
 * All methods must be called from within the owning thread's fiber,
 * except now() and id() which are always safe.
 */
class ThreadContext
{
  public:
    /** Simulated thread id, dense from 0. */
    unsigned id() const { return id_; }

    /** This thread's virtual clock. */
    Cycles now() const { return now_; }

    /** This thread's deterministic random stream. */
    Rng& rng() { return rng_; }

    /** Charge @p cycles of compute time without a scheduling point.
     *  The per-thread time scale models core sharing (SMT): a thread
     *  on an oversubscribed core advances proportionally slower. */
    void
    advance(Cycles cycles)
    {
        // The scaled rounding below yields exactly `cycles` for a unit
        // scale (any realistic cycle count is below 2^52), so the
        // integer fast path is bit-identical, just cheaper.
        if (timeScale_ == 1.0) {
            now_ += cycles;
            return;
        }
        now_ += Cycles(double(cycles) * timeScale_ + 0.5);
    }

    /** Set the execution-rate multiplier (>= 1; 1 = dedicated core). */
    void setTimeScale(double scale) { timeScale_ = scale; }
    double timeScale() const { return timeScale_; }

    /**
     * Scheduling point: if another runnable thread is behind this
     * thread in virtual time, switch to it. Call this before every
     * globally visible event so events happen in virtual-time order.
     *
     * Defined inline below the Scheduler: while the thread's clock is
     * inside its dispatch lease the point is provably a no-op and
     * costs one compare.
     */
    void sync();

    /** advance() then sync(); the common per-event pattern. */
    void step(Cycles cycles) { advance(cycles); sync(); }

    /** Unconditional scheduling point (used by spin loops). */
    void yieldNow();

    /**
     * Block until another thread calls Scheduler::wake(id()).
     * On wake-up the clock is advanced to at least the waker's clock.
     */
    void block();

    /**
     * Spin in virtual time until @p pred returns true, charging
     * @p poll_cycles per probe. Throws SimError after an enormous
     * number of probes (virtual livelock / deadlock guard).
     */
    template <typename Pred>
    void
    spinUntil(Pred pred, Cycles poll_cycles)
    {
        std::uint64_t probes = 0;
        while (!pred()) {
            advance(poll_cycles);
            yieldNow();
            if (++probes > spinProbeLimit)
                throw SimError("spinUntil: virtual livelock detected");
        }
    }

    /** The scheduler running this thread. */
    Scheduler& scheduler() { return *scheduler_; }

    /** Probe guard for spinUntil. */
    static constexpr std::uint64_t spinProbeLimit = 50'000'000;

  private:
    friend class Scheduler;

    /** Out-of-line sync() tail: lease expired, perturbed, or a switch
     *  is actually due. */
    void syncSlow();

    Scheduler* scheduler_ = nullptr;
    unsigned id_ = 0;
    Cycles now_ = 0;
    double timeScale_ = 1.0;
    Rng rng_;
};

/**
 * Owns the simulated threads and runs them to completion in
 * earliest-virtual-time-first order.
 *
 * Fiber stacks come from the process-wide StackPool: run() reserves
 * one contiguous slot range and attaches every fiber's stack before
 * the first dispatch, so neither a dispatch nor a switch ever touches
 * the pool. A finished fiber's slot is retired at once — decommitted,
 * or kept committed for the next run if it is warm (stack_pool.hh).
 */
class Scheduler
{
  public:
    /** @param seed master seed for all per-thread random streams. */
    explicit Scheduler(std::uint64_t seed = 1);
    ~Scheduler();

    Scheduler(const Scheduler&) = delete;
    Scheduler& operator=(const Scheduler&) = delete;

    /**
     * Add a simulated thread. Threads start with clock 0.
     * @return the new thread's id.
     */
    unsigned spawn(std::function<void(ThreadContext&)> body);

    /** Attach every thread's stack, then run until every spawned
     *  thread finishes. Rethrows body errors. */
    void run();

    /** Make a blocked thread runnable; clock pulled up to @p at_least. */
    void wake(unsigned tid, Cycles at_least);

    /** Maximum finish time over all threads (valid after run()). */
    Cycles makespan() const;

    /** Finish time of one thread (valid after run()). */
    Cycles finishTime(unsigned tid) const;

    unsigned numThreads() const { return unsigned(threads_.size()); }

    /** Context access (e.g. for post-run inspection). */
    ThreadContext& context(unsigned tid) { return threads_[tid]->context; }

    /**
     * Register a scheduling perturber (nullptr to remove). Non-owning;
     * the perturber must outlive run(). One perturber per scheduler.
     * Registering one disables the sync() fast path so every
     * scheduling point consults the hook (see SchedulePerturber).
     */
    void setPerturber(SchedulePerturber* perturber)
    {
        perturber_ = perturber;
    }

    /**
     * Enable/disable epoch batching (the sync() fast path). On by
     * default; results are bit-identical either way — the switch
     * exists as an escape hatch and for A/B verification
     * (`--no-batch` in the tools). @p max_epoch_cycles bounds how far
     * a lease may extend past the dispatched thread's clock.
     */
    void
    setBatching(bool enabled, Cycles max_epoch_cycles = defaultEpochCycles)
    {
        batching_ = enabled;
        epochCycles_ = max_epoch_cycles;
    }

    /** Default per-dispatch lease bound (virtual cycles). */
    static constexpr Cycles defaultEpochCycles = Cycles(1) << 20;

    /** Per-fiber stack size (before run()); capped by the pool's slot
     *  capacity. Raise it for workloads with deep recursion. */
    void
    setStackBytes(std::size_t bytes)
    {
        stackBytes_ = std::min(bytes, StackPool::maxStackBytes);
    }

  private:
    friend class ThreadContext;

    static constexpr unsigned kNone = ~0u;

    enum class State { runnable, running, blocked, finished };

    struct Thread
    {
        ThreadContext context;
        std::unique_ptr<Fiber> fiber;
        State state = State::runnable;
        Cycles finishTime = 0;
    };

    /** Sentinel parking a slot outside the run queue (also "no other
     *  runnable thread" in lease math). Real clocks never reach it. */
    static constexpr Cycles never = ~Cycles(0);

    /**
     * Per-thread scheduling record, indexed by tid. (time, order) is
     * the run-queue key while the thread is runnable — order is a
     * global enqueue stamp, so ties resolve in enqueue (FIFO) order
     * exactly as the former binary-heap queue did. A slot whose time
     * is `never` is not runnable (running, blocked, or finished).
     * Runnable tids additionally sit in the dense runnable_ list (pos
     * is their index there), which is what the scheduling scans walk —
     * their cost is O(runnable), not O(max-tid), so hundreds of
     * mostly-blocked or finished fibers don't tax every scheduling
     * point. Scan order over the list is arbitrary, but the (time,
     * order) key is unique per thread, so the pick is order-independent
     * and bit-identical to the full-array scan. leaseEnd is the sync()
     * fast-path bound of the running thread: scheduling points with
     * now < leaseEnd are provably no-ops.
     */
    struct SlotRec
    {
        Cycles time;
        std::uint64_t order;
        Cycles leaseEnd;
        unsigned pos;
    };

    /**
     * Earliest runnable thread by (time, order), or kNone.
     * @p min_other receives the smallest slot time among the other
     * runnable threads (the picked thread's lease bound).
     */
    unsigned pickNext(Cycles* min_other) const;

    /** Mark @p tid running and compute its dispatch lease. */
    void dispatch(unsigned tid, Cycles min_other);

    /** Renew the running thread's lease at a no-op scheduling point. */
    void renewLease(unsigned tid, Cycles min_other);

    /** Re-enqueue the running thread and switch to the earliest
     *  runnable thread (possibly itself — then no switch happens). */
    void yieldFrom(unsigned tid);

    /** Smallest slot time over runnable threads other than @p tid. */
    Cycles minRunnableTime(unsigned excluding) const;

    /** Put @p tid on the run queue at @p time (fresh order stamp). */
    void enqueue(unsigned tid, Cycles time);

    /** Take @p tid off the run queue (running/blocked/finished). */
    void dequeue(unsigned tid);

    /** Reserve this run's contiguous pool slot range and attach every
     *  fiber's stack (slot rangeBase_ + tid). */
    void attachStacks();

    std::uint64_t seed_;
    SchedulePerturber* perturber_ = nullptr;
    std::uint64_t orderCounter_ = 0;
    bool batching_ = true;
    Cycles epochCycles_ = defaultEpochCycles;
    std::size_t stackBytes_ = Fiber::defaultStackBytes;
    unsigned rangeBase_ = kNone;
    std::vector<std::unique_ptr<Thread>> threads_;
    std::vector<SlotRec> slots_;
    std::vector<unsigned> runnable_;
    unsigned runningTid_ = 0;
    bool running_ = false;
};

inline void
ThreadContext::sync()
{
    // Inside the dispatch lease no other runnable thread can be
    // strictly behind this clock, so the point cannot switch threads
    // (and no perturber is registered — leases are 0 then).
    if (now_ < scheduler_->slots_[id_].leaseEnd) [[likely]]
        return;
    syncSlow();
}

} // namespace htmsim::sim

#endif // HTMSIM_SIM_SCHEDULER_HH
