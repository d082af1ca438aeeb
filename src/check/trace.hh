/**
 * @file
 * Per-run transaction-event trace (simcheck).
 *
 * EventRing is a fixed-capacity ring buffer implementing TxObserver:
 * it retains the most recent events of a run in bounded memory, which
 * is what lets the long seed sweeps trace every run without growing
 * unboundedly. Overflow is observable (dropped() counts the events
 * that fell off the front) and the differential oracle treats it as a
 * failure in its own right — a truncated trace must never silently
 * "pass" the invariants (oracle.cc, `--ring-capacity` in
 * check_runner). When the ring never wrapped it holds the complete
 * event history and checkTraceInvariants() can verify the
 * interleaving-level invariants of the HTM model:
 *
 *  - per-thread lifecycle: begin -> (commit | abort), never nested,
 *    never a commit/abort without a begin;
 *  - the global fallback lock has at most one holder, is released by
 *    its holder, and is never acquired by a thread with a live
 *    transactional attempt;
 *  - fallback sections commit while their thread holds the lock;
 *  - no transactional commit while any thread holds the fallback lock
 *    (eager subscription aborts at begin, lazy subscription at
 *    commit — either way a commit under a held lock means the
 *    single-lock fallback protocol is broken), except a rollback-only
 *    commit (TxEvent::rollbackOnly): ROTs do not subscribe to the lock;
 *  - event virtual times are non-decreasing per thread.
 */

#ifndef HTMSIM_CHECK_TRACE_HH
#define HTMSIM_CHECK_TRACE_HH

#include <cassert>
#include <cstddef>
#include <string>
#include <vector>

#include "htm/observer.hh"

namespace htmsim::check
{

/** Bounded most-recent-events trace of one run. */
class EventRing final : public htm::TxObserver
{
  public:
    explicit EventRing(std::size_t capacity)
        : capacity_(capacity == 0 ? 1 : capacity)
    {
        events_.reserve(capacity_);
    }

    void
    onEvent(const htm::TxEvent& event) override
    {
        if (events_.size() < capacity_) {
            events_.push_back(event);
        } else {
            events_[next_] = event;
            next_ = (next_ + 1) % capacity_;
            ++dropped_;
        }
    }

    /** Events retained, oldest first. */
    std::vector<htm::TxEvent>
    events() const
    {
        std::vector<htm::TxEvent> ordered;
        ordered.reserve(events_.size());
        for (std::size_t i = 0; i < events_.size(); ++i)
            ordered.push_back(events_[(next_ + i) % events_.size()]);
        return ordered;
    }

    /** The complete history, oldest first, without a copy: valid
     *  only while nothing has been dropped (the ring never wrapped,
     *  so its storage is still in arrival order). */
    const std::vector<htm::TxEvent>&
    history() const
    {
        assert(dropped_ == 0 && "history() of a wrapped ring");
        return events_;
    }

    /** Events that fell off the front of the ring. */
    std::uint64_t dropped() const { return dropped_; }

    /** Events currently retained. */
    std::size_t size() const { return events_.size(); }

    void
    clear()
    {
        events_.clear();
        next_ = 0;
        dropped_ = 0;
    }

  private:
    std::size_t capacity_;
    std::size_t next_ = 0;
    std::uint64_t dropped_ = 0;
    std::vector<htm::TxEvent> events_;
};

/**
 * Check the interleaving invariants over a complete event history
 * (@p num_threads threads, tids dense from 0). Returns an empty
 * string when all invariants hold, else a description of the first
 * violation naming the offending event ("event #N: ..."; for an
 * attempt or lock left open at the end, the event that opened it).
 * The history must be complete — pass EventRing::history(), which
 * requires EventRing::dropped() == 0.
 */
std::string checkTraceInvariants(const std::vector<htm::TxEvent>& events,
                                 unsigned num_threads);

/** Human-readable rendering of the last @p tail events (diagnostics
 *  printed with a failing schedule). */
std::string formatTrace(const std::vector<htm::TxEvent>& events,
                        std::size_t tail = 64);

} // namespace htmsim::check

#endif // HTMSIM_CHECK_TRACE_HH
