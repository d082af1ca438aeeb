/**
 * @file
 * Cooperative user-level fibers.
 *
 * Each simulated thread runs on its own fiber. Exactly one fiber (or the
 * scheduler) executes at any host instant, so simulated code needs no
 * host-level synchronization.
 *
 * On x86-64 Linux the switch is a hand-rolled stack swap that saves only
 * the callee-saved registers and the FP control words. ucontext's
 * swapcontext also saves/restores the signal mask — a sigprocmask
 * syscall per switch — which dominated host time at the simulator's
 * millions of scheduling points. Other platforms (or builds defining
 * HTMSIM_UCONTEXT_FIBERS) keep the portable ucontext backend.
 *
 * Control transfers come in two flavours: owner <-> fiber (resume /
 * yieldToOwner) and the direct fiber -> fiber hand-off (switchTo) the
 * scheduler uses at its scheduling points, which costs one stack swap
 * instead of two. The suspended owner's continuation is a single
 * per-host-thread slot — whichever fiber returns to the owner resumes
 * the most recent resume() call.
 */

#ifndef HTMSIM_SIM_FIBER_HH
#define HTMSIM_SIM_FIBER_HH

#include <ucontext.h>

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>

#include "stack_pool.hh"

#if defined(__x86_64__) && defined(__linux__) && \
    !defined(HTMSIM_UCONTEXT_FIBERS)
#define HTMSIM_FAST_FIBERS 1
#else
#define HTMSIM_FAST_FIBERS 0
#endif

namespace htmsim::sim
{
class Fiber;
}

#if HTMSIM_FAST_FIBERS
extern "C" void htmsim_fiber_finish(htmsim::sim::Fiber* fiber);
#endif

namespace htmsim::sim
{

/**
 * A single cooperative fiber.
 *
 * The owner (the scheduler) resumes the fiber with resume(); the fiber
 * returns control with yieldToOwner() or hands off to a sibling with
 * switchTo(). When the body function returns or throws, the fiber
 * becomes finished and control returns to the owner. An exception that
 * escaped the body is captured; the owner rethrows it explicitly via
 * rethrowPending().
 */
class Fiber
{
  public:
    /** Tag selecting the deferred-stack constructor. */
    struct DeferStack
    {
    };

    /**
     * Create a standalone fiber: a stack slot is reserved and
     * committed from the StackPool immediately and released on
     * destruction.
     */
    explicit Fiber(std::function<void()> body,
                   std::size_t stack_bytes = defaultStackBytes);

    /**
     * Create a fiber with no stack. The owner (the scheduler) attaches
     * one via attachStack() before the first resume()/switchTo() —
     * lazily, at first dispatch, on the pooled path.
     */
    Fiber(DeferStack, std::function<void()> body);

    Fiber(const Fiber&) = delete;
    Fiber& operator=(const Fiber&) = delete;
    ~Fiber();

    /**
     * Attach the stack this fiber will run on. Must happen exactly
     * once, before the fiber first gains control. The span stays owned
     * by the caller (the scheduler decommits it when the fiber
     * finishes).
     */
    void attachStack(StackSpan span);

    /** True once a stack is attached and the entry frame is built. */
    bool hasStack() const { return stack_.base != nullptr; }

    /**
     * Transfer control into the fiber until it (or a sibling it
     * switched to) yields back or finishes. Must not be called from
     * inside any fiber of this library. Rethrows an exception that
     * escaped this fiber's body; an exception from a sibling that
     * returned to the owner instead is surfaced via rethrowPending().
     */
    void resume();

    /** True once the body function has returned or thrown. */
    bool finished() const { return finished_; }

    /** Rethrow the exception that escaped the body, if any. */
    void
    rethrowPending()
    {
        if (pendingException_) {
            auto exception = pendingException_;
            pendingException_ = nullptr;
            std::rethrow_exception(exception);
        }
    }

    /**
     * Return control to the resume() call that last entered a fiber
     * of this host thread. Must be called from inside a fiber.
     */
    static void yieldToOwner();

    /**
     * Park the current fiber and run @p next directly, without
     * passing through the owner. Must be called from inside a fiber;
     * @p next must be a different, unfinished fiber.
     */
    static void switchTo(Fiber& next);

    /** Default stack size. Much smaller than the historical 1 MB —
     *  hundreds of pooled fibers must fit a modest resident budget —
     *  and safe because an overflow now lands on the slot's PROT_NONE
     *  guard instead of corrupting a neighbouring stack. STAMP's yada
     *  recursion still fits comfortably. */
    static constexpr std::size_t defaultStackBytes = 256 * 1024;

  private:
#if HTMSIM_FAST_FIBERS
    friend void ::htmsim_fiber_finish(Fiber*);

    /// Build the initial stack frame the first switch-in will pop.
    void initFastStack();
#endif

    static void trampoline(unsigned hi, unsigned lo);
#if HTMSIM_FAST_FIBERS
    // Referenced only from the context-switch asm, which LTO cannot
    // see: `used` keeps the definition out of dead-code elimination.
    __attribute__((used))
#endif
    void run();

    std::function<void()> body_;
    /// The stack this fiber runs on (pool-owned). Empty until
    /// attachStack().
    StackSpan stack_{};
#if HTMSIM_FAST_FIBERS
    /// Saved stack pointer while switched out.
    void* fastSp_ = nullptr;
#else
    ucontext_t context_;
#endif
    std::exception_ptr pendingException_;
    /// Standalone fibers own a 1-slot pool range; kNoSlot otherwise.
    unsigned ownSlot_ = kNoSlot;
    bool finished_ = false;
    bool started_ = false;

    static constexpr unsigned kNoSlot = ~0u;
};

} // namespace htmsim::sim

#endif // HTMSIM_SIM_FIBER_HH
