/**
 * @file
 * Transaction-event observation hooks.
 *
 * A TxObserver registered on a Runtime receives one callback per
 * transactional lifecycle event, in global virtual-time order (the
 * simulator is single-threaded on the host, and every event site is
 * preceded by a scheduling point, so callback order *is* the order in
 * which the events become globally visible). The simcheck subsystem
 * (src/check) uses this to capture per-run traces, reconstruct the
 * committed-transaction order for its differential serializability
 * oracle, and verify lock/transaction interleaving invariants.
 *
 * The hook is deliberately pull-free and allocation-free: the Runtime
 * emits plain structs through a single virtual call, guarded by one
 * null check, so the transactional hot path is unaffected when no
 * observer is registered (the default for all experiments).
 */

#ifndef HTMSIM_HTM_OBSERVER_HH
#define HTMSIM_HTM_OBSERVER_HH

#include <cstdint>

#include "abort.hh"
#include "site.hh"
#include "sim/scheduler.hh"

namespace htmsim::htm
{

/** What happened (one TxEvent per occurrence). */
enum class TxEventKind : std::uint8_t
{
    /** A transactional attempt began (status became active). */
    begin,
    /** A transactional attempt committed (write-back completed). */
    commit,
    /** A transactional attempt rolled back; TxEvent::cause says why. */
    abort,
    /** The global fallback lock was acquired by TxEvent::tid. */
    lockAcquired,
    /** The global fallback lock was released by TxEvent::tid. */
    lockReleased,
    /** An irrevocable (global-lock fallback) section completed its
     *  body; emitted while the lock is still held, i.e. at the
     *  section's serialization point. */
    fallbackCommit,
    /** A non-speculative section completed its body *without* the
     *  global fallback lock — e.g. under a per-object tmsync lock
     *  after a failed elision attempt. Emitted by the site-aware
     *  Runtime::runNonSpeculative overload while the caller's own
     *  lock is still held (the section's serialization point). */
    nonSpecCommit,
};

/** Human-readable event-kind name ("begin", "commit", ...). */
const char* txEventKindName(TxEventKind kind);

/** One transactional lifecycle event. */
struct TxEvent
{
    TxEventKind kind;
    /** Abort cause (meaningful for kind == abort, none otherwise). */
    AbortCause cause;
    /** Simulated thread the event belongs to. */
    std::uint16_t tid;
    /** Static site of the surrounding atomic section (0 = unknown). */
    TxSiteId site = unknownTxSite;
    /** Set on the begin and commit of a POWER8 rollback-only
     *  transaction, which does not subscribe to the fallback lock. */
    bool rollbackOnly = false;
    /** The thread's virtual clock when the event occurred. */
    sim::Cycles cycles;
    /**
     * Virtual time the enclosing span began — pure observation, never
     * fed back into the simulation. Per kind:
     *   commit / abort    start of the attempt (before tbegin cost);
     *   fallbackCommit    start of the locked body (lock acquired);
     *   nonSpecCommit     start of the non-speculative body;
     *   lockAcquired      when the thread started waiting for the lock;
     *   lockReleased      when the lock was acquired (hold start);
     *   begin             start of the attempt (== the later commit's
     *                     or abort's sectionStart).
     * cycles - sectionStart is the span's duration; the txprof
     * subsystem attributes useful/wasted/lock cycles from exactly
     * these pairs.
     */
    sim::Cycles sectionStart = 0;
};

// The flag fills padding: observers copy events into rings by value.
static_assert(sizeof(TxEvent) == 24, "TxEvent grew past 24 bytes");

/**
 * One conflict-caused doom/abort decision. The *attacker* is the
 * winning side of the arbitration (whose access or line ownership
 * prevailed), the *victim* is the side whose transaction rolls back —
 * whichever way the configured ConflictPolicy decided. Emitted at
 * conflict-resolution time — before the victim rolls back — so both
 * parties' sites are still bound. This is the raw feed of the txprof
 * conflict matrix (which site pairs fight, and over which lines).
 */
struct TxConflictEvent
{
    /** Thread on the winning side of the conflict. */
    std::uint16_t attackerTid;
    /** Thread whose transaction aborts because of it. */
    std::uint16_t victimTid;
    /** Site bound on the winning thread (its most recently bound
     *  section when the winning access was non-transactional). */
    TxSiteId attackerSite;
    /** Site of the aborting section. */
    TxSiteId victimSite;
    /** The attacking access was non-transactional (strong isolation,
     *  including fallback-lock acquisition dooming subscribers). */
    bool attackerNonTx;
    /** Conflict-granularity line number (address >> granularity). */
    std::uintptr_t line;
    /** Attacker's virtual clock at resolution time. */
    sim::Cycles cycles;
};

/** Receives Runtime lifecycle events in global virtual-time order. */
class TxObserver
{
  public:
    virtual ~TxObserver() = default;

    /** One event. Must not re-enter the Runtime or the scheduler. */
    virtual void onEvent(const TxEvent& event) = 0;

    /** One conflict resolution. Default: ignore (existing observers
     *  like the simcheck EventRing only need lifecycle events). */
    virtual void onConflict(const TxConflictEvent& event)
    {
        (void) event;
    }
};

} // namespace htmsim::htm

#endif // HTMSIM_HTM_OBSERVER_HH
