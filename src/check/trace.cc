#include "trace.hh"

#include <cstdio>

namespace htmsim::check
{

using htm::TxEvent;
using htm::TxEventKind;

namespace
{

std::string
describe(const TxEvent& event)
{
    char buffer[128];
    std::snprintf(buffer, sizeof(buffer),
                  "t%u %s%s%s%s @%llu", unsigned(event.tid),
                  htm::txEventKindName(event.kind),
                  event.kind == TxEventKind::abort ? " " : "",
                  event.kind == TxEventKind::abort
                      ? htm::abortCauseName(event.cause)
                      : "",
                  event.rollbackOnly ? " (rollback-only)" : "",
                  (unsigned long long) event.cycles);
    return buffer;
}

} // namespace

std::string
checkTraceInvariants(const std::vector<TxEvent>& events,
                     unsigned num_threads)
{
    std::vector<bool> active(num_threads, false);
    std::vector<sim::Cycles> lastCycles(num_threads, 0);
    // Event that opened each thread's live attempt, and the lock
    // holder's acquisition: what the end-of-run checks point at.
    std::vector<std::size_t> openedAt(num_threads, 0);
    int lockHolder = -1;
    std::size_t acquiredAt = 0;

    // Names the offending event. Built only once a check has failed:
    // a passing run formats nothing.
    const auto at = [&events](std::size_t i, const std::string& what) {
        return what + " (event #" + std::to_string(i) + ": " +
               describe(events[i]) + ")";
    };
    const auto holder = [&lockHolder] {
        return "t" + std::to_string(lockHolder);
    };

    for (std::size_t i = 0; i < events.size(); ++i) {
        const TxEvent& event = events[i];
        const unsigned tid = event.tid;
        if (tid >= num_threads)
            return at(i, "tid " + std::to_string(tid) + " >= " +
                             std::to_string(num_threads));

        if (event.cycles < lastCycles[tid])
            return at(i, "per-thread virtual time went backwards");
        lastCycles[tid] = event.cycles;

        switch (event.kind) {
          case TxEventKind::begin:
            if (active[tid])
                return at(i, "nested begin without commit/abort");
            active[tid] = true;
            openedAt[tid] = i;
            break;
          case TxEventKind::commit:
            if (!active[tid])
                return at(i, "commit without an active attempt");
            // A rollback-only transaction does not subscribe to the
            // lock, so only its commit may land inside a lock hold.
            if (lockHolder >= 0 && !event.rollbackOnly)
                return at(i, "transactional commit while " + holder() +
                                 " holds the fallback lock");
            active[tid] = false;
            break;
          case TxEventKind::abort:
            if (!active[tid])
                return at(i, "abort without an active attempt");
            active[tid] = false;
            break;
          case TxEventKind::lockAcquired:
            if (lockHolder >= 0)
                return at(i, "lock acquired while " + holder() +
                                 " holds it");
            if (active[tid])
                return at(i, "lock acquired with a live transactional "
                             "attempt");
            lockHolder = int(tid);
            acquiredAt = i;
            break;
          case TxEventKind::lockReleased:
            if (lockHolder != int(tid))
                return at(i, "lock released by a non-holder");
            lockHolder = -1;
            break;
          case TxEventKind::fallbackCommit:
            if (lockHolder != int(tid))
                return at(i, "fallback commit without holding the lock");
            break;
          case TxEventKind::nonSpecCommit:
            // Serialization point of a non-speculative section under a
            // caller-provided (per-object) lock; the global fallback
            // lock is uninvolved, but a live transactional attempt on
            // the same thread would mean irrevocability leaked into a
            // speculative section.
            if (active[tid])
                return at(i, "non-speculative commit with a live "
                             "transactional attempt");
            break;
        }
    }

    for (unsigned tid = 0; tid < num_threads; ++tid) {
        if (active[tid])
            return at(openedAt[tid],
                      "t" + std::to_string(tid) +
                          " left an attempt open at end of run");
    }
    if (lockHolder >= 0)
        return at(acquiredAt,
                  holder() + " left the fallback lock held at end of run");
    return "";
}

std::string
formatTrace(const std::vector<TxEvent>& events, std::size_t tail)
{
    std::string result;
    const std::size_t first =
        events.size() > tail ? events.size() - tail : 0;
    if (first > 0)
        result += "... (" + std::to_string(first) + " earlier)\n";
    for (std::size_t i = first; i < events.size(); ++i)
        result += "  " + describe(events[i]) + "\n";
    return result;
}

} // namespace htmsim::check
