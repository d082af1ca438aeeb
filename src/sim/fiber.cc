#include "fiber.hh"

#include <cassert>
#include <cstdint>

#if defined(__SANITIZE_ADDRESS__)
#define HTMSIM_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HTMSIM_ASAN_FIBERS 1
#endif
#endif
#ifndef HTMSIM_ASAN_FIBERS
#define HTMSIM_ASAN_FIBERS 0
#endif

#if HTMSIM_ASAN_FIBERS
// ASan tracks one stack per thread; a hand-rolled switch must announce
// departures/landings or the first abort-unwind on a fiber stack
// corrupts its shadow bookkeeping. Direct fiber->fiber switches need
// the same annotations even on the ucontext backend's swapcontext
// interceptor-covered paths, and yields back to the owner must name
// the host thread's own stack, learned once via pthread_getattr_np.
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>

#include <pthread.h>
#endif

namespace htmsim::sim
{

namespace
{
/// The fiber currently executing, or nullptr when the owner runs.
thread_local Fiber* current_fiber = nullptr;

#if HTMSIM_FAST_FIBERS
/// The suspended owner continuation: the stack pointer parked by the
/// most recent resume(). One slot per host thread — whichever fiber
/// returns to the owner resumes that call, which is what makes direct
/// fiber->fiber hand-offs possible (a per-fiber owner slot would go
/// stale as soon as a fiber entered via switchTo yielded back).
thread_local void* owner_sp = nullptr;
#else
/// ucontext flavour of the shared owner continuation (also the
/// uc_link target for finishing fibers).
thread_local ucontext_t owner_context;
#endif

#if HTMSIM_FAST_FIBERS && HTMSIM_ASAN_FIBERS
thread_local const void* owner_stack_bottom = nullptr;
thread_local std::size_t owner_stack_size = 0;

void
captureOwnerStack()
{
    if (owner_stack_bottom != nullptr)
        return;
    pthread_attr_t attr;
    pthread_getattr_np(pthread_self(), &attr);
    void* base = nullptr;
    std::size_t size = 0;
    pthread_attr_getstack(&attr, &base, &size);
    pthread_attr_destroy(&attr);
    owner_stack_bottom = base;
    owner_stack_size = size;
}
#endif
} // namespace

} // namespace htmsim::sim

#if HTMSIM_FAST_FIBERS

extern "C" {
/// Save callee-saved state on the current stack, park the stack pointer
/// in *save_sp, and resume the context whose stack pointer is to_sp.
void htmsim_context_switch(void** save_sp, void* to_sp);
/// First-activation entry: runs on the fiber stack, built by
/// initFastStack() so that Fiber::run() is entered at the exact stack
/// pointer glibc makecontext would have produced: both backends give
/// run() the same stack alignment. (Simulated results depend only on
/// region addresses, never on host frame addresses.)
void htmsim_fiber_thunk();
}

// System V x86-64: rbx, rbp, r12-r15 plus the mxcsr/x87 control words
// are callee-saved; everything else is dead across a call, so a switch
// only needs these 7 quadwords and no signal-mask syscall.
__asm__(
    ".text\n"
    ".p2align 4\n"
    ".globl htmsim_context_switch\n"
    ".hidden htmsim_context_switch\n"
    ".type htmsim_context_switch, @function\n"
    "htmsim_context_switch:\n"
    "    pushq %rbp\n"
    "    pushq %rbx\n"
    "    pushq %r12\n"
    "    pushq %r13\n"
    "    pushq %r14\n"
    "    pushq %r15\n"
    "    subq $8, %rsp\n"
    "    stmxcsr (%rsp)\n"
    "    fnstcw 4(%rsp)\n"
    "    movq %rsp, (%rdi)\n"
    "    movq %rsi, %rsp\n"
    "    ldmxcsr (%rsp)\n"
    "    fldcw 4(%rsp)\n"
    "    addq $8, %rsp\n"
    "    popq %r15\n"
    "    popq %r14\n"
    "    popq %r13\n"
    "    popq %r12\n"
    "    popq %rbx\n"
    "    popq %rbp\n"
    "    retq\n"
    ".size htmsim_context_switch, .-htmsim_context_switch\n"
    ".p2align 4\n"
    ".globl htmsim_fiber_thunk\n"
    ".hidden htmsim_fiber_thunk\n"
    ".type htmsim_fiber_thunk, @function\n"
    "htmsim_fiber_thunk:\n"
    // initFastStack() left the Fiber* in r15 and an entry rsp such
    // that this call enters run() at glibc makecontext's stack
    // pointer (the ucontext backend tail-jumps trampoline -> run).
    "    movq %r15, %rdi\n"
    "    movq %r15, %rbx\n"
    "    call _ZN6htmsim3sim5Fiber3runEv\n"
    "    movq %rbx, %rdi\n"
    "    call htmsim_fiber_finish\n"
    "    ud2\n"
    ".size htmsim_fiber_thunk, .-htmsim_fiber_thunk\n");

// `used`: the only caller is the thunk asm, invisible to LTO.
extern "C" __attribute__((used)) void
htmsim_fiber_finish(htmsim::sim::Fiber* fiber)
{
    (void)fiber;
#if HTMSIM_ASAN_FIBERS
    // nullptr fake-stack save: the fiber departs for good, ASan may
    // release its fake stack.
    __sanitizer_start_switch_fiber(nullptr,
                                   htmsim::sim::owner_stack_bottom,
                                   htmsim::sim::owner_stack_size);
#endif
    // Final transfer back to the owner; the fiber is finished and will
    // never be switched to again, so the save slot is scratch.
    void* scratch;
    htmsim_context_switch(&scratch, htmsim::sim::owner_sp);
    __builtin_unreachable();
}

#endif // HTMSIM_FAST_FIBERS

namespace htmsim::sim
{

Fiber::Fiber(std::function<void()> body, std::size_t stack_bytes)
    : body_(std::move(body))
{
    StackPool& pool = StackPool::instance();
    ownSlot_ = pool.reserveRange(1);
    attachStack(pool.commit(ownSlot_, stack_bytes));
}

Fiber::Fiber(DeferStack, std::function<void()> body)
    : body_(std::move(body))
{
}

void
Fiber::attachStack(StackSpan span)
{
    assert(stack_.base == nullptr && "attachStack() called twice");
    assert(!started_ && "attachStack() after the fiber already ran");
    stack_ = span;
#if HTMSIM_ASAN_FIBERS
    // A pooled slot keeps the shadow poison of its previous fiber's
    // frames (a warm slot keeps their bytes too); the new fiber starts
    // on a clean stack.
    __asan_unpoison_memory_region(stack_.base, stack_.size);
#endif
#if HTMSIM_FAST_FIBERS
    initFastStack();
#else
    getcontext(&context_);
    context_.uc_stack.ss_sp = stack_.base;
    context_.uc_stack.ss_size = stack_.size;
    context_.uc_link = &owner_context;
    auto self = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&context_, reinterpret_cast<void (*)()>(&trampoline), 2,
                unsigned(self >> 32), unsigned(self & 0xffffffffu));
#endif
}

#if HTMSIM_FAST_FIBERS
void
Fiber::initFastStack()
{
    // Match glibc makecontext's initial stack pointer, so run() sees
    // the same stack alignment under both backends.
    const auto top =
        reinterpret_cast<std::uintptr_t>(stack_.base + stack_.size);
    const std::uintptr_t run_entry =
        ((top - 8) & ~std::uintptr_t(15)) - 8;
    const std::uintptr_t thunk_entry = run_entry + 8;
    auto* frame = reinterpret_cast<std::uintptr_t*>(thunk_entry) - 8;

    std::uint32_t mxcsr = 0;
    std::uint16_t fcw = 0;
    __asm__ volatile("stmxcsr %0" : "=m"(mxcsr));
    __asm__ volatile("fnstcw %0" : "=m"(fcw));

    // The frame htmsim_context_switch pops on first switch-in, low to
    // high: FP control words, r15..r12, rbx, rbp, return address.
    frame[0] = std::uintptr_t(mxcsr) | (std::uintptr_t(fcw) << 32);
    frame[1] = reinterpret_cast<std::uintptr_t>(this); // -> r15
    frame[2] = 0;                                      // -> r14
    frame[3] = 0;                                      // -> r13
    frame[4] = 0;                                      // -> r12
    frame[5] = 0;                                      // -> rbx
    frame[6] = 0;                                      // -> rbp
    frame[7] = reinterpret_cast<std::uintptr_t>(&htmsim_fiber_thunk);
    fastSp_ = frame;
}
#endif

Fiber::~Fiber()
{
    // Destroying an unfinished fiber abandons its stack without unwinding.
    // The scheduler only destroys fibers after run() completes, so this is
    // reached only when a simulation is torn down after an error.
    if (ownSlot_ != kNoSlot)
        StackPool::instance().releaseRange(ownSlot_, 1);
}

void
Fiber::trampoline(unsigned hi, unsigned lo)
{
    auto self = reinterpret_cast<Fiber*>(
        (std::uintptr_t(hi) << 32) | std::uintptr_t(lo));
    self->run();
}

void
Fiber::run()
{
#if HTMSIM_FAST_FIBERS && HTMSIM_ASAN_FIBERS
    // First landing on this fiber's stack; the departed stack needs no
    // bookkeeping update (owner bounds are learned in resume()).
    __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
#endif
    try {
        body_();
    } catch (...) {
        pendingException_ = std::current_exception();
    }
    finished_ = true;
    // Returning hands control back to the owner: via uc_link on the
    // ucontext backend, via htmsim_fiber_thunk/htmsim_fiber_finish on
    // the fast backend.
}

void
Fiber::resume()
{
    assert(!finished_ && "resume() on a finished fiber");
    assert(current_fiber == nullptr && "resume() from inside a fiber");
    assert(hasStack() && "resume() before attachStack()");
    started_ = true;
    current_fiber = this;
#if HTMSIM_FAST_FIBERS
#if HTMSIM_ASAN_FIBERS
    captureOwnerStack();
    void* owner_fake_stack = nullptr;
    __sanitizer_start_switch_fiber(&owner_fake_stack, stack_.base,
                                   stack_.size);
#endif
    htmsim_context_switch(&owner_sp, fastSp_);
#if HTMSIM_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(owner_fake_stack, nullptr,
                                    nullptr);
#endif
#else
    swapcontext(&owner_context, &context_);
#endif
    current_fiber = nullptr;
    // If this very fiber finished with an exception, surface it here
    // (standalone Fiber users). When another fiber returned to the
    // owner, the scheduler checks that one via rethrowPending().
    rethrowPending();
}

void
Fiber::yieldToOwner()
{
    Fiber* self = current_fiber;
    assert(self && "yieldToOwner() outside any fiber");
    current_fiber = nullptr;
#if HTMSIM_FAST_FIBERS
#if HTMSIM_ASAN_FIBERS
    void* fiber_fake_stack = nullptr;
    __sanitizer_start_switch_fiber(&fiber_fake_stack,
                                   owner_stack_bottom,
                                   owner_stack_size);
#endif
    htmsim_context_switch(&self->fastSp_, owner_sp);
#if HTMSIM_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(fiber_fake_stack, nullptr,
                                    nullptr);
#endif
#else
    swapcontext(&self->context_, &owner_context);
#endif
    current_fiber = self;
}

void
Fiber::switchTo(Fiber& next)
{
    Fiber* self = current_fiber;
    assert(self && "switchTo() outside any fiber");
    assert(self != &next && "switchTo() the current fiber");
    assert(!next.finished_ && "switchTo() a finished fiber");
    assert(next.hasStack() && "switchTo() before attachStack()");
    next.started_ = true;
    current_fiber = &next;
#if HTMSIM_FAST_FIBERS
#if HTMSIM_ASAN_FIBERS
    void* fiber_fake_stack = nullptr;
    __sanitizer_start_switch_fiber(&fiber_fake_stack,
                                   next.stack_.base,
                                   next.stack_.size);
#endif
    htmsim_context_switch(&self->fastSp_, next.fastSp_);
#if HTMSIM_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(fiber_fake_stack, nullptr,
                                    nullptr);
#endif
#else
    // ASan's swapcontext interceptor covers this backend.
    swapcontext(&self->context_, &next.context_);
#endif
    current_fiber = self;
}

} // namespace htmsim::sim
