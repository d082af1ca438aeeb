/**
 * @file
 * Transactional lock guards: run a critical-section body under an
 * atomic_mutex / atomic_shared_mutex with optional lock elision,
 * carrying a TxSiteId so txprof attributes the section's cycles.
 *
 * Shape note — these are *executor* guards, not unlock-only RAII: the
 * constructor runs the whole protocol (speculative attempt, fallback
 * acquisition, body, release) around a body callback. True RAII
 * (construct = lock, destruct = unlock, body between) is impossible
 * here because an elided attempt aborts by jumping back to the
 * checkpoint Runtime's attempt driver took before begin, abandoning
 * the body's frames, and the retry/fallback then needs to re-run the
 * body from the top — the body must therefore be a re-invocable,
 * restartable callable, exactly like Runtime::atomic() bodies (tx.hh).
 * The object form still buys scoped naming, the site id, and a place
 * to ask which path committed (elided()).
 *
 * Elision contract (per guard, SyncMode::elided):
 *   1. up to maxElisionAttempts transactional attempts; each first
 *      spin-waits for the lock word to clear, then subscribes it and
 *      aborts if it is busy (shared guards: if the writer bit is
 *      set). The bounded retry is load-bearing, not a tweak: with a
 *      single attempt, one fallback acquisition's CAS dooms every
 *      subscriber through strong isolation, each victim falls back
 *      and CASes in turn, and the lock word never goes quiet again —
 *      the elided arm degenerates into TATAS-with-wasted-attempts.
 *      Re-attempting after the word clears lets the population
 *      re-enter the all-elided regime where nobody writes the word;
 *   2. when the attempts are exhausted — e.g. under conflicts from a
 *      peer's real acquisition — the guard acquires the lock for real
 *      and re-runs the body non-speculatively via the site-aware
 *      runNonSpeculative(), whose nonSpecCommit event marks the
 *      serialization point;
 *   3. machines where Machine::supportsElision() is false (Blue
 *      Gene/Q) skip step 1 entirely.
 * Both directions of mutual exclusion hold: elided sections see a held
 * word and abort; real acquirers' CAS/stores doom elided subscribers.
 *
 * Nested guarded sections are rejected (std::logic_error at guard
 * entry, before any transactional state is touched): an inner elision
 * attempt inside an outer speculative or irrevocable section would
 * trip the runtime's single-attempt-per-thread machinery. Take both
 * locks under one guard instead. Pinned in test_tmsync.cc.
 */

#ifndef HTMSIM_TMSYNC_GUARD_HH
#define HTMSIM_TMSYNC_GUARD_HH

#include <stdexcept>

#include "htm/runtime.hh"
#include "htm/tx.hh"
#include "tmsync/atomic_mutex.hh"
#include "tmsync/backoff.hh"
#include "tmsync/atomic_shared_mutex.hh"
#include "tmsync/sync_mode.hh"

namespace htmsim::tmsync
{

/** Speculative attempts per guarded section before the real lock
 *  (elision contract step 1 in the file comment). */
inline constexpr unsigned maxElisionAttempts = 4;

namespace detail
{

inline void
rejectNested(htm::Runtime& runtime, sim::ThreadContext& ctx)
{
    if (runtime.txOf(ctx.id()).status() != htm::TxStatus::inactive) {
        throw std::logic_error(
            "tmsync: nested guarded sections are not supported; take "
            "both locks under one guard");
    }
}

/** The common protocol: one elision attempt subscribing @p word and
 *  aborting when (word & busy_mask) != 0, then the real fallback. */
template <typename F, typename Lock, typename Unlock>
bool
runGuarded(htm::Runtime& runtime, sim::ThreadContext& ctx,
           std::uint64_t* word, std::uint64_t busy_mask,
           htm::TxSiteId site, SyncMode mode, F&& body, Lock&& lock,
           Unlock&& unlock)
{
    rejectNested(runtime, ctx);
    if (mode == SyncMode::globalLock) {
        runtime.runLocked(ctx, site, body);
        return false;
    }
    if (mode == SyncMode::elided &&
        runtime.machine().supportsElision()) {
        for (unsigned attempt = 0; attempt < maxElisionAttempts;
             ++attempt) {
            spinBackoff(ctx, [&] {
                return (*word & busy_mask) == 0;
            });
            const htm::AbortCause cause =
                runtime.tryOnce(ctx, site, [&](htm::Tx& tx) {
                    if ((tx.load(word) & busy_mask) != 0)
                        tx.abortTx();
                    body(tx);
                });
            if (cause == htm::AbortCause::none)
                return true;
        }
    }
    lock();
    runtime.runNonSpeculative(ctx, site, body);
    unlock();
    return false;
}

} // namespace detail

/** Exclusive guard over an atomic_mutex or (exclusive side of) an
 *  atomic_shared_mutex. */
class transactional_lock_guard
{
  public:
    template <typename F>
    transactional_lock_guard(htm::Runtime& runtime,
                             sim::ThreadContext& ctx,
                             atomic_mutex& mutex, htm::TxSiteId site,
                             SyncMode mode, F&& body)
        : elided_(detail::runGuarded(
              runtime, ctx, mutex.word(), ~std::uint64_t(0), site,
              mode, std::forward<F>(body),
              [&] { mutex.lock(runtime, ctx); },
              [&] { mutex.unlock(runtime, ctx); }))
    {
    }

    template <typename F>
    transactional_lock_guard(htm::Runtime& runtime,
                             sim::ThreadContext& ctx,
                             atomic_shared_mutex& mutex,
                             htm::TxSiteId site, SyncMode mode,
                             F&& body)
        : elided_(detail::runGuarded(
              runtime, ctx, mutex.word(), ~std::uint64_t(0), site,
              mode, std::forward<F>(body),
              [&] { mutex.lock(runtime, ctx); },
              [&] { mutex.unlock(runtime, ctx); }))
    {
    }

    /** Whether the section committed on the speculative path. */
    bool elided() const { return elided_; }

  private:
    bool elided_;
};

/** Shared guard over an atomic_shared_mutex. The elided attempt
 *  tolerates concurrent real readers (it aborts only on the writer
 *  bit), so it coexists with them until a count change dooms it. */
class transactional_shared_lock_guard
{
  public:
    template <typename F>
    transactional_shared_lock_guard(htm::Runtime& runtime,
                                    sim::ThreadContext& ctx,
                                    atomic_shared_mutex& mutex,
                                    htm::TxSiteId site, SyncMode mode,
                                    F&& body)
        : elided_(detail::runGuarded(
              runtime, ctx, mutex.word(),
              atomic_shared_mutex::writerBit, site, mode,
              std::forward<F>(body),
              [&] { mutex.lock_shared(runtime, ctx); },
              [&] { mutex.unlock_shared(runtime, ctx); }))
    {
    }

    bool elided() const { return elided_; }

  private:
    bool elided_;
};

} // namespace htmsim::tmsync

#endif // HTMSIM_TMSYNC_GUARD_HH
