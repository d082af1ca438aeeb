#include "scheduler.hh"

#include <algorithm>
#include <cassert>

namespace htmsim::sim
{

namespace
{
/// leaseEnd is exclusive: a point at now == min_other must not yield
/// (the peer is not *strictly* behind), so the lease extends to
/// min_other + 1, saturating at the top of the cycle range.
Cycles
leaseBound(Cycles bound)
{
    return bound == ~Cycles(0) ? bound : bound + 1;
}
} // namespace

void
ThreadContext::syncSlow()
{
    Scheduler& s = *scheduler_;
    if (s.perturber_ != nullptr) {
        // Preemption point: a registered perturber may push this
        // thread's clock forward, letting another thread's events
        // overtake. Exactly one draw per scheduling point — the yield
        // below does not draw again (schedule format v2).
        now_ += s.perturber_->preemptDelay(id_, now_);
        if (s.minRunnableTime(id_) < now_)
            s.yieldFrom(id_);
        return;
    }
    // One scan resolves the whole scheduling point: the earliest other
    // runnable thread is the yield target (this thread is not on the
    // runnable list while it runs) and the runner-up time is the
    // target's dispatch lease. The scan walks the dense runnable list,
    // so its cost is O(runnable) however many threads exist.
    const Scheduler::SlotRec* slots = s.slots_.data();
    unsigned best = Scheduler::kNone;
    Cycles best_time = Scheduler::never;
    std::uint64_t best_order = 0;
    Cycles second = Scheduler::never;
    for (const unsigned tid : s.runnable_) {
        const Scheduler::SlotRec& slot = slots[tid];
        if (best == Scheduler::kNone || slot.time < best_time ||
            (slot.time == best_time && slot.order < best_order)) {
            if (best != Scheduler::kNone)
                second = std::min(second, best_time);
            best = tid;
            best_time = slot.time;
            best_order = slot.order;
        } else {
            second = std::min(second, slot.time);
        }
    }
    // Both exits renew a lease inline; with no perturber registered,
    // only the batching flag gates it (renewLease without the
    // perturber branch).
    if (best_time >= now_) {
        // No-op scheduling point past the lease (nobody is strictly
        // behind — `never` when nobody is runnable at all): renew it.
        // Other threads cannot have moved since dispatch, but the
        // lease is also bounded by the epoch budget, which may simply
        // have expired.
        s.slots_[id_].leaseEnd =
            s.batching_
                ? leaseBound(std::min(best_time, now_ + s.epochCycles_))
                : 0;
        return;
    }
    // Yield: the re-enqueued self is stamped later than every waiting
    // thread, so it loses all ties — `best` is exactly the thread the
    // run-queue scan would pick, and the runner-up lease is the
    // remaining minimum including self. Dispatch is fused in, and the
    // Thread records stay untouched: the state field only needs to
    // distinguish blocked (wake()) and finished (run()/deadlock), both
    // maintained on their own paths, and the target's clock equals its
    // parked slot time, so the lease cap needs no pointer chase.
    s.enqueue(id_, now_);
    s.dequeue(best); // leave the run queue while running
    s.runningTid_ = best;
    s.slots_[best].leaseEnd =
        s.batching_
            ? leaseBound(std::min(std::min(second, now_),
                                  best_time + s.epochCycles_))
            : 0;
    Fiber::switchTo(*s.threads_[best]->fiber);
}

void
ThreadContext::yieldNow()
{
    Scheduler& s = *scheduler_;
    if (s.perturber_ != nullptr)
        now_ += s.perturber_->preemptDelay(id_, now_);
    s.yieldFrom(id_);
}

void
ThreadContext::block()
{
    Scheduler& s = *scheduler_;
    auto& thread = *s.threads_[id_];
    thread.state = Scheduler::State::blocked;
    Cycles min_other;
    const unsigned next = s.pickNext(&min_other);
    if (next == Scheduler::kNone) {
        // Nothing runnable: return to the owner loop, which declares
        // deadlock (or finishes the run if everyone is done).
        Fiber::yieldToOwner();
        return;
    }
    s.dispatch(next, min_other);
    Fiber::switchTo(*s.threads_[next]->fiber);
}

Scheduler::Scheduler(std::uint64_t seed) : seed_(seed) {}

Scheduler::~Scheduler()
{
    // Fibers first (their stacks must not outlive the slots), then the
    // whole slot range back to the pool, which retires the slots of
    // fibers that never finished (a run ended by deadlock or error).
    threads_.clear();
    if (rangeBase_ != kNone)
        StackPool::instance().releaseRange(rangeBase_,
                                           unsigned(slots_.size()));
}

unsigned
Scheduler::spawn(std::function<void(ThreadContext&)> body)
{
    assert(!running_ && "spawn() during run() is not supported");
    assert(rangeBase_ == kNone && "spawn() after run() started");
    const unsigned tid = unsigned(threads_.size());
    auto thread = std::make_unique<Thread>();
    thread->context.scheduler_ = this;
    thread->context.id_ = tid;
    thread->context.rng_ = Rng(seed_, tid);
    ThreadContext* context = &thread->context;
    auto wrapped = [body = std::move(body), context] { body(*context); };
    // Deferred stack: the slot range is reserved, and every stack
    // attached, when run() starts and the thread count is final.
    thread->fiber =
        std::make_unique<Fiber>(Fiber::DeferStack{}, std::move(wrapped));
    threads_.push_back(std::move(thread));
    slots_.push_back(SlotRec{never, 0, 0, kNone});
    enqueue(tid, 0);
    return tid;
}

void
Scheduler::attachStacks()
{
    if (rangeBase_ != kNone || threads_.empty())
        return;
    StackPool& pool = StackPool::instance();
    rangeBase_ = pool.reserveRange(unsigned(threads_.size()));
    for (unsigned tid = 0; tid < unsigned(threads_.size()); ++tid) {
        threads_[tid]->fiber->attachStack(
            pool.commit(rangeBase_ + tid, stackBytes_));
    }
}

void
Scheduler::run()
{
    attachStacks();
    running_ = true;
    for (;;) {
        Cycles min_other;
        const unsigned next = pickNext(&min_other);
        if (next == kNone)
            break;
        dispatch(next, min_other);
        threads_[next]->fiber->resume();
        // Control is back at the owner: the fiber that ran last (not
        // necessarily `next` — threads switch among themselves)
        // finished, or blocked with nothing left runnable.
        Thread& last = *threads_[runningTid_];
        if (last.fiber->finished()) {
            last.fiber->rethrowPending();
            last.state = State::finished;
            last.finishTime = last.context.now();
            // A cold slot's stack goes back to the kernel now; a warm
            // one stays committed for the next run (stack_pool.hh).
            StackPool::instance().retire(rangeBase_ + runningTid_);
        }
    }
    running_ = false;
    for (const auto& thread : threads_) {
        if (thread->state != State::finished) {
            throw SimError("simulation deadlock: thread " +
                           std::to_string(thread->context.id()) +
                           " blocked forever");
        }
    }
}

void
Scheduler::wake(unsigned tid, Cycles at_least)
{
    Thread& thread = *threads_[tid];
    if (thread.state != State::blocked)
        return;
    thread.context.now_ = std::max(thread.context.now_, at_least);
    thread.state = State::runnable;
    enqueue(tid, thread.context.now_);
    // The waker's lease no longer covers the woken thread's clock.
    if (running_) {
        SlotRec& self = slots_[runningTid_];
        self.leaseEnd =
            std::min(self.leaseEnd, leaseBound(slots_[tid].time));
    }
}

Cycles
Scheduler::makespan() const
{
    Cycles result = 0;
    for (const auto& thread : threads_)
        result = std::max(result, thread->finishTime);
    return result;
}

Cycles
Scheduler::finishTime(unsigned tid) const
{
    return threads_[tid]->finishTime;
}

unsigned
Scheduler::pickNext(Cycles* min_other) const
{
    unsigned best = kNone;
    Cycles best_time = 0;
    std::uint64_t best_order = 0;
    Cycles second = never;
    for (const unsigned tid : runnable_) {
        const SlotRec& slot = slots_[tid];
        if (best == kNone || slot.time < best_time ||
            (slot.time == best_time && slot.order < best_order)) {
            if (best != kNone)
                second = std::min(second, best_time);
            best = tid;
            best_time = slot.time;
            best_order = slot.order;
        } else {
            second = std::min(second, slot.time);
        }
    }
    *min_other = second;
    return best;
}

void
Scheduler::dispatch(unsigned tid, Cycles min_other)
{
    Thread& thread = *threads_[tid];
    thread.state = State::running;
    dequeue(tid); // leave the run queue while running
    runningTid_ = tid;
    renewLease(tid, min_other);
}

void
Scheduler::enqueue(unsigned tid, Cycles time)
{
    SlotRec& slot = slots_[tid];
    assert(slot.pos == kNone && "enqueue() of an already-queued thread");
    slot.time = time;
    slot.order = orderCounter_++;
    slot.pos = unsigned(runnable_.size());
    runnable_.push_back(tid);
}

void
Scheduler::dequeue(unsigned tid)
{
    SlotRec& slot = slots_[tid];
    assert(slot.pos != kNone && "dequeue() of an unqueued thread");
    const unsigned moved = runnable_.back();
    runnable_[slot.pos] = moved;
    slots_[moved].pos = slot.pos;
    runnable_.pop_back();
    slot.time = never;
    slot.pos = kNone;
}

void
Scheduler::renewLease(unsigned tid, Cycles min_other)
{
    SlotRec& slot = slots_[tid];
    if (!batching_ || perturber_ != nullptr) {
        slot.leaseEnd = 0;
        return;
    }
    const Cycles cap = threads_[tid]->context.now_ + epochCycles_;
    slot.leaseEnd = leaseBound(std::min(min_other, cap));
}

void
Scheduler::yieldFrom(unsigned tid)
{
    Thread& self = *threads_[tid];
    enqueue(tid, self.context.now_);
    self.state = State::runnable;
    Cycles min_other;
    const unsigned next = pickNext(&min_other);
    assert(next != kNone && "yieldFrom with an empty run queue");
    dispatch(next, min_other);
    if (next == tid)
        return; // Still the earliest: the switch would be a no-op.
    Fiber::switchTo(*threads_[next]->fiber);
}

Cycles
Scheduler::minRunnableTime(unsigned excluding) const
{
    Cycles min = never;
    for (const unsigned tid : runnable_) {
        if (tid != excluding)
            min = std::min(min, slots_[tid].time);
    }
    return min;
}

} // namespace htmsim::sim
