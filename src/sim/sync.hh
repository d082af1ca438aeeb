/**
 * @file
 * Synchronization primitives operating in virtual time.
 */

#ifndef HTMSIM_SIM_SYNC_HH
#define HTMSIM_SIM_SYNC_HH

#include <cassert>
#include <vector>

#include "scheduler.hh"

namespace htmsim::sim
{

/**
 * Reusable rendezvous barrier. All parties' clocks advance to the
 * maximum arrival time (plus a small release cost) before continuing.
 */
class Barrier
{
  public:
    explicit Barrier(unsigned parties) : parties_(parties) {}

    /** Cycles charged to every thread for the barrier release. */
    static constexpr Cycles releaseCost = 100;

    /** Block until all parties have arrived. */
    void
    arrive(ThreadContext& ctx)
    {
        assert(parties_ > 0);
        maxTime_ = std::max(maxTime_, ctx.now());
        if (++arrived_ < parties_) {
            waiters_.push_back(ctx.id());
            ctx.block();
            return;
        }
        // Last arriver: release everyone at the common time.
        const Cycles release_at = maxTime_ + releaseCost;
        std::vector<unsigned> to_wake;
        to_wake.swap(waiters_);
        arrived_ = 0;
        maxTime_ = 0;
        for (unsigned tid : to_wake)
            ctx.scheduler().wake(tid, release_at);
        ctx.advance(release_at - ctx.now());
        ctx.sync();
    }

  private:
    unsigned parties_;
    unsigned arrived_ = 0;
    Cycles maxTime_ = 0;
    std::vector<unsigned> waiters_;
};

} // namespace htmsim::sim

#endif // HTMSIM_SIM_SYNC_HH
