/**
 * @file
 * Deterministic hazard injection for the HTM models.
 *
 * Real HTM implementations abort transactions for reasons the paper's
 * machine models (Section 3) do not simulate: external interrupts, TLB
 * shootdowns, spurious microarchitectural events, and OS preemption of
 * the fallback-lock holder. The retry policies and the lemming-effect
 * fallback exist precisely to survive those, yet nothing in the
 * simulator exercised them under adversity. This layer injects such
 * hazards deterministically so the retry/fallback subsystem can be
 * chaos-tested and replayed (see src/check/liveness.hh for the oracle
 * that consumes it).
 *
 * Determinism contract (same discipline as the FuzzScheduler,
 * DESIGN.md Section 8):
 *
 *  - Every draw comes from a per-thread Rng stream derived from
 *    (HazardConfig::seed, tid). Nothing is drawn from the simulated
 *    thread's own rng(), whose draw sequence feeds backoff jitter and
 *    cache-fetch probabilities and is therefore
 *    interleaving-position-dependent.
 *  - The per-attempt draw count is fixed (every arm/disarm decision is
 *    drawn at attempt start whether or not its probability is zero),
 *    so a thread's k-th attempt sees the same hazards regardless of
 *    how the attempts interleave with other threads.
 *  - The interrupt process is anchored to virtual time (an interrupt
 *    fires when the thread's clock passes the next deadline), so it is
 *    schedule-sensitive by design but still a pure function of
 *    (seed, schedule).
 *
 * Zero-perturbation contract: with `enabled == false` (the default)
 * every hook reduces to one branch and the simulation is
 * bit-identical to a build without the layer. tests/test_hazard.cc
 * pins this with an A/B run over the full benchmark grid.
 */

#ifndef HTMSIM_HTM_HAZARD_HH
#define HTMSIM_HTM_HAZARD_HH

#include <cstdint>
#include <vector>

#include "abort.hh"
#include "sim/random.hh"
#include "sim/scheduler.hh"

namespace htmsim::htm
{

/** Everything injectable; off by default (RuntimeConfig::hazard). */
struct HazardConfig
{
    /** Master switch. When false the other fields are never read. */
    bool enabled = false;
    /** Master seed for the per-thread hazard streams. Independent of
     *  the scheduler and workload seeds, so the same hazard pattern
     *  replays under a different schedule and vice versa. */
    std::uint64_t seed = 1;
    /** Per-attempt probability of one spurious transient abort. */
    double spuriousAbortProb = 0.0;
    /** Interrupt-style aborts: expected interrupts per virtual cycle
     *  and thread (1e-6 = one per million cycles). Unlike spurious
     *  aborts these hit long transactions harder, like real timer
     *  interrupts do. */
    double interruptRate = 0.0;
    /** Per-attempt probability of a capacity misestimate: the attempt
     *  aborts with capacityOverflow once it touches more than a small
     *  drawn number of lines, as if the hardware granted almost no
     *  buffer space this time. */
    double capacityNoiseProb = 0.0;
    /** Probability that the fallback-lock holder is preempted (by the
     *  "OS") right after acquiring the lock, stalling every lemming
     *  spinning behind it. */
    double lockPreemptProb = 0.0;
    /** Length of one injected holder preemption, in cycles. */
    sim::Cycles lockPreemptStall = 25'000;
    /** Thread whose every HTM attempt spuriously aborts (-1 = none).
     *  The deterministic worst case: the liveness self-test uses it to
     *  manufacture a livelock a correct policy must survive. */
    int pinnedVictim = -1;
};

/**
 * Draws and delivers the hazards of one run. One injector per Runtime;
 * all hooks are called from the owning simulated thread's fiber.
 */
class HazardInjector
{
  public:
    HazardInjector() = default;

    /** Install the run's hazard plan for @p num_threads threads. */
    void reset(const HazardConfig& config, unsigned num_threads);

    bool enabled() const { return config_.enabled; }

    /** Draw this attempt's hazards (called from Runtime::beginAttempt). */
    void onAttemptStart(unsigned tid, sim::Cycles now);

    /** Hazard due at a transactional access, or none. */
    AbortCause onAccess(unsigned tid, sim::Cycles now);

    /** Hazard due at commit, or none. A spurious abort armed for this
     *  attempt but not yet delivered (short transaction) fires here,
     *  keeping the per-attempt probability exact. */
    AbortCause onCommitPoint(unsigned tid, sim::Cycles now);

    /** True if this attempt's misestimated capacity budget is
     *  exceeded at @p lines transactional lines. Fires at most once
     *  per attempt. */
    bool capacityExceeded(unsigned tid, std::size_t lines);

    /** Injected preemption stall for a fresh fallback-lock holder
     *  (0 = not preempted this time). */
    sim::Cycles lockHolderStall(unsigned tid);

  private:
    /** Mutable per-thread hazard state. */
    struct ThreadHazards
    {
        sim::Rng rng;
        /** Spurious abort armed for the current attempt. */
        bool spuriousArmed = false;
        /** Accesses left until the armed spurious abort fires. */
        std::uint32_t spuriousCountdown = 0;
        /** Capacity misestimate armed for the current attempt. */
        bool capacityArmed = false;
        /** Misestimated line budget while armed. */
        std::uint32_t capacityBudget = 0;
        /** Virtual deadline of the next interrupt (0 = not yet
         *  drawn). */
        sim::Cycles nextInterrupt = 0;
    };

    AbortCause interruptDue(ThreadHazards& t, sim::Cycles now);

    HazardConfig config_;
    std::vector<ThreadHazards> threads_;
};

} // namespace htmsim::htm

#endif // HTMSIM_HTM_HAZARD_HH
