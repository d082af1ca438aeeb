#include "hazard.hh"

namespace htmsim::htm
{

namespace
{
/** Stream-domain constant separating hazard streams from the
 *  FuzzScheduler's (0x...f022d) and the scheduler's own streams. */
constexpr std::uint64_t hazardSeedSalt = 0x4a7a2dca5eedULL;

/** Window of accesses over which an armed spurious abort may fire;
 *  attempts shorter than the drawn point abort at commit instead. */
constexpr std::uint32_t spuriousWindow = 24;

/** Largest misestimated line budget (drawn uniformly from 1..max).
 *  Small enough that any non-trivial transaction trips it. */
constexpr std::uint32_t capacityNoiseMaxLines = 6;
} // namespace

void
HazardInjector::reset(const HazardConfig& config, unsigned num_threads)
{
    config_ = config;
    threads_.assign(num_threads, ThreadHazards());
    // Seed eagerly (enabled or not) so the allocation and
    // initialization work is identical either way; the per-thread
    // streams make hazard draws a function of (seed, tid, attempt
    // index), never of the interleaving.
    for (unsigned tid = 0; tid < num_threads; ++tid)
        threads_[tid].rng = sim::Rng(config_.seed ^ hazardSeedSalt,
                                     tid + 211);
}

void
HazardInjector::onAttemptStart(unsigned tid, sim::Cycles now)
{
    ThreadHazards& t = threads_[tid];
    // Fixed draw count per attempt: both Bernoullis and both payload
    // draws happen even when their probability is zero, so a thread's
    // k-th attempt consumes the same stream positions regardless of
    // configuration details or interleaving.
    const bool spurious = t.rng.nextBool(config_.spuriousAbortProb);
    const std::uint32_t countdown =
        std::uint32_t(t.rng.nextRange(spuriousWindow)) + 1;
    const bool capacity = t.rng.nextBool(config_.capacityNoiseProb);
    const std::uint32_t budget =
        std::uint32_t(t.rng.nextRange(capacityNoiseMaxLines)) + 1;
    t.spuriousArmed = spurious || int(tid) == config_.pinnedVictim;
    t.spuriousCountdown = t.spuriousArmed ? countdown : 0;
    t.capacityArmed = capacity;
    t.capacityBudget = budget;
    if (config_.interruptRate > 0.0 && t.nextInterrupt == 0) {
        // First attempt of this thread: anchor the interrupt process.
        const double interval =
            (0.5 + t.rng.nextDouble()) / config_.interruptRate;
        t.nextInterrupt = now + sim::Cycles(interval);
    }
}

AbortCause
HazardInjector::interruptDue(ThreadHazards& t, sim::Cycles now)
{
    if (config_.interruptRate <= 0.0 || t.nextInterrupt == 0 ||
        now < t.nextInterrupt) {
        return AbortCause::none;
    }
    // Rearm past `now`: one interrupt per crossing even if the clock
    // jumped several intervals ahead (e.g. across a backoff stall).
    while (t.nextInterrupt <= now) {
        const double interval =
            (0.5 + t.rng.nextDouble()) / config_.interruptRate;
        t.nextInterrupt += sim::Cycles(interval) + 1;
    }
    return AbortCause::interrupt;
}

AbortCause
HazardInjector::onAccess(unsigned tid, sim::Cycles now)
{
    ThreadHazards& t = threads_[tid];
    const AbortCause irq = interruptDue(t, now);
    if (irq != AbortCause::none)
        return irq;
    if (t.spuriousArmed && --t.spuriousCountdown == 0) {
        t.spuriousArmed = false;
        return AbortCause::spurious;
    }
    return AbortCause::none;
}

AbortCause
HazardInjector::onCommitPoint(unsigned tid, sim::Cycles now)
{
    ThreadHazards& t = threads_[tid];
    const AbortCause irq = interruptDue(t, now);
    if (irq != AbortCause::none)
        return irq;
    if (t.spuriousArmed) {
        // Attempt was shorter than the drawn delivery point: deliver
        // at commit so "probability per attempt" means what it says.
        t.spuriousArmed = false;
        return AbortCause::spurious;
    }
    return AbortCause::none;
}

bool
HazardInjector::capacityExceeded(unsigned tid, std::size_t lines)
{
    ThreadHazards& t = threads_[tid];
    if (!t.capacityArmed || lines <= t.capacityBudget)
        return false;
    t.capacityArmed = false;
    return true;
}

sim::Cycles
HazardInjector::lockHolderStall(unsigned tid)
{
    ThreadHazards& t = threads_[tid];
    if (!t.rng.nextBool(config_.lockPreemptProb))
        return 0;
    return config_.lockPreemptStall;
}

} // namespace htmsim::htm
