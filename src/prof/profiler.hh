/**
 * @file
 * txprof: per-site transaction profiling on top of the TxObserver hook.
 *
 * A TxProfiler records the runtime's lifecycle and conflict events into
 * preallocated buffers and, after the run, aggregates them into a
 * per-site profile (useful vs wasted cycles, stalls, abort causes) and
 * a site-pair conflict matrix (who aborts whom, and over which lines).
 *
 * Recording stays off the simulation's critical path: both event
 * buffers are reserved up front in the constructor, and recording is
 * a bounds-checked push_back that drops (and counts) events past
 * capacity instead of growing. All analysis happens post-run in
 * report(). Observers never touch simulated state, so a profiled run
 * is bit-identical to an unprofiled one (tests/test_prof.cc proves
 * this with an A/B grid).
 */

#ifndef HTMSIM_PROF_PROFILER_HH
#define HTMSIM_PROF_PROFILER_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "htm/observer.hh"
#include "htm/site.hh"

namespace htmsim::prof
{

/** Aggregated profile of one static transaction site. */
struct SiteProfile
{
    htm::TxSiteId site = htm::unknownTxSite;
    std::string name;

    /** Transactional attempts (begin events). */
    std::uint64_t attempts = 0;
    /** Hardware (and constrained) commits. */
    std::uint64_t commits = 0;
    /** Aborted attempts. */
    std::uint64_t aborts = 0;
    /** Global-lock fallback executions. */
    std::uint64_t fallbackCommits = 0;
    /** Aborts by true model-internal cause. */
    std::array<std::uint64_t, htm::numAbortCauses> abortCauses{};
    /** Subset of aborts injected by the hazard layer (spurious and
     *  interrupt causes, hazard.hh). */
    std::uint64_t hazardAborts = 0;
    /** Wasted cycles of those hazard-injected aborts. */
    std::uint64_t hazardWastedCycles = 0;

    /** Cycles of committed attempts (attempt start -> commit). */
    std::uint64_t committedCycles = 0;
    /** Cycles of aborted attempts (attempt start -> rollback end). */
    std::uint64_t wastedCycles = 0;
    /** Cycles under the fallback lock (acquisition -> body end). */
    std::uint64_t fallbackCycles = 0;
    /** Cycles between an abort and the next attempt on the same
     *  thread: randomized backoff plus the lemming-effect wait. */
    std::uint64_t stallCycles = 0;
    /** Cycles spent waiting to acquire the fallback lock. */
    std::uint64_t lockWaitCycles = 0;

    /** Aborted-attempt cycles over all in-section cycles. */
    double
    wastedWorkRatio() const
    {
        const std::uint64_t useful = committedCycles + fallbackCycles;
        const std::uint64_t total = useful + wastedCycles;
        return total == 0 ? 0.0 : double(wastedCycles) / double(total);
    }

    /** Aborted attempts over all transactional attempts. */
    double
    abortRatio() const
    {
        const std::uint64_t tries = commits + aborts;
        return tries == 0 ? 0.0 : double(aborts) / double(tries);
    }

    std::uint64_t
    totalCycles() const
    {
        return committedCycles + wastedCycles + fallbackCycles;
    }
};

/** One cell of the conflict matrix: attacker site beats victim site. */
struct ConflictPairProfile
{
    /** Winning side of the arbitration. */
    htm::TxSiteId attacker = htm::unknownTxSite;
    /** Side whose transaction rolled back. */
    htm::TxSiteId victim = htm::unknownTxSite;
    std::string attackerName;
    std::string victimName;

    /** Conflict resolutions attributed to this pair. */
    std::uint64_t conflicts = 0;
    /** Subset where the winning access was non-transactional
     *  (strong isolation, including fallback-lock acquisition). */
    std::uint64_t nonTxConflicts = 0;
    /** Distinct conflict-granularity lines fought over. */
    std::size_t distinctLines = 0;
    /** The line with the most conflicts, and its count. */
    std::uintptr_t hotLine = 0;
    std::uint64_t hotLineConflicts = 0;
};

/** Post-run aggregation of everything a TxProfiler captured. */
struct ProfileReport
{
    /** Per-site profiles, hottest (most in-section cycles) first. */
    std::vector<SiteProfile> sites;
    /** Conflict matrix cells, most conflicts first. */
    std::vector<ConflictPairProfile> pairs;

    std::uint64_t events = 0;
    std::uint64_t droppedEvents = 0;
    std::uint64_t conflicts = 0;
    std::uint64_t droppedConflicts = 0;

    /** Totals across all sites. */
    std::uint64_t committedCycles = 0;
    std::uint64_t wastedCycles = 0;
    std::uint64_t fallbackCycles = 0;
    /** Wasted cycles attributed to hazard-injected aborts. */
    std::uint64_t hazardWastedCycles = 0;

    double
    wastedWorkRatio() const
    {
        const std::uint64_t useful = committedCycles + fallbackCycles;
        const std::uint64_t total = useful + wastedCycles;
        return total == 0 ? 0.0 : double(wastedCycles) / double(total);
    }
};

/**
 * TxObserver that records a run's events for post-run analysis.
 *
 * Allocation-free during the run (see the file comment); register it
 * via RuntimeConfig::observer or Runtime::setObserver. One profiler
 * can observe several runs back to back (call clear() in between) but
 * not two runtimes concurrently.
 */
class TxProfiler : public htm::TxObserver
{
  public:
    /** Default buffer sizes: ~48 MB of events, enough for every
     *  scaled STAMP cell at the default HTMSIM_SCALE. */
    static constexpr std::size_t defaultEventCapacity = 1u << 21;
    static constexpr std::size_t defaultConflictCapacity = 1u << 18;

    explicit TxProfiler(
        std::size_t event_capacity = defaultEventCapacity,
        std::size_t conflict_capacity = defaultConflictCapacity);

    void onEvent(const htm::TxEvent& event) override;
    void onConflict(const htm::TxConflictEvent& event) override;

    /** Raw captured events, in global virtual-time order. */
    const std::vector<htm::TxEvent>& events() const { return events_; }
    const std::vector<htm::TxConflictEvent>& conflicts() const
    {
        return conflicts_;
    }

    std::uint64_t droppedEvents() const { return droppedEvents_; }
    std::uint64_t droppedConflicts() const { return droppedConflicts_; }
    /** Whether any buffer overflowed (the profile is then partial). */
    bool truncated() const
    {
        return droppedEvents_ != 0 || droppedConflicts_ != 0;
    }

    /** Drop all captured data, keeping the reserved buffers. */
    void clear();

    /** Aggregate the captured events (post-run; allocates freely). */
    ProfileReport report() const;

  private:
    std::vector<htm::TxEvent> events_;
    std::vector<htm::TxConflictEvent> conflicts_;
    std::uint64_t droppedEvents_ = 0;
    std::uint64_t droppedConflicts_ = 0;
};

} // namespace htmsim::prof

#endif // HTMSIM_PROF_PROFILER_HH
