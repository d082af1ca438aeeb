/**
 * @file
 * Hardware Lock Elision (Intel Core, Section 2.3 / 6.2).
 *
 * An HLE critical section first runs as a transaction that merely
 * *subscribes* to the lock word (the XACQUIRE store is elided). On any
 * abort, the section re-executes with the lock actually taken — there
 * is no software retry mechanism, which is exactly why the paper finds
 * HLE reaches only ~80 % of tuned RTM (Figure 7).
 */

#ifndef HTMSIM_HTM_HLE_HH
#define HTMSIM_HTM_HLE_HH

#include "runtime.hh"

namespace htmsim::htm
{

/** An elidable lock. One instance guards one set of critical
 *  sections; on the hle backend (backend.hh) the Runtime owns one and
 *  runs every atomic() section under it. */
class HleLock
{
  public:
    /**
     * Execute @p body under lock elision: one transactional attempt,
     * then fall back to really acquiring the lock. The body sees a Tx
     * in either transactional or non-speculative mode.
     */
    template <typename F>
    void
    execute(Runtime& runtime, sim::ThreadContext& ctx, F&& body)
    {
        execute(runtime, ctx, unknownTxSite, std::forward<F>(body));
    }

    /** execute() with a static site id for per-site profiling. */
    template <typename F>
    void
    execute(Runtime& runtime, sim::ThreadContext& ctx, TxSiteId site,
            F&& body)
    {
        // Elision attempt: subscribe to the lock word; the section
        // aborts if someone holds (or takes) the real lock. Machines
        // whose transactions are too costly to elide with (BG/Q's
        // software begin/end) skip straight to the real acquisition.
        if (runtime.machine().supportsElision()) {
            const AbortCause cause =
                runtime.tryOnce(ctx, site, [&](Tx& tx) {
                    if (tx.load(word_.get()) != 0)
                        tx.abortTx();
                    body(tx);
                });
            if (cause == AbortCause::none)
                return;
        }

        // Abort: re-execute with the lock held (no retries). The CAS
        // is atomic in virtual time, unlike a plain store after a
        // spin, which could race with another acquirer. The section's
        // nonSpecCommit event is its serialization point for the
        // observers.
        while (!runtime.nonTxCas(ctx, word_.get(), std::uint64_t(0),
                                 std::uint64_t(1))) {
            ctx.spinUntil([this] { return *word_ == 0; },
                          Runtime::lockPollCost);
        }
        runtime.runNonSpeculative(ctx, site, body);
        runtime.nonTxStore(ctx, word_.get(), std::uint64_t(0));
    }

    bool held() const { return *word_ != 0; }

  private:
    /** The lock word: a simulated word on its own line in the run's
     *  region. */
    sim::Ptr<std::uint64_t> word_ = sim::make<std::uint64_t>();
};

} // namespace htmsim::htm

#endif // HTMSIM_HTM_HLE_HH
