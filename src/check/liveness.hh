/**
 * @file
 * Liveness oracle (simcheck).
 *
 * The differential oracle (oracle.hh) checks *safety*: committed
 * results are serializable. It says nothing about *progress* — a retry
 * policy that livelocks, convoys forever on the fallback lock, or
 * starves one thread while its peers commit would pass every safety
 * check by never committing the starved sections at all. This oracle
 * closes that gap, following the progress-centric view of hybrid-TM
 * fallback design (Alistarh et al., "Inherent Limitations of Hybrid
 * Transactional Memory"):
 *
 *  - bounded completion: every atomic section must commit (in hardware
 *    or via the fallback) within a bounded virtual-time window of its
 *    first begin;
 *  - no starvation: a section must not stay open while its peers rack
 *    up an unbounded number of commits;
 *  - completeness: when the run ends, every operation committed
 *    exactly once.
 *
 * The checker is an online TxObserver: it watches the same event
 * stream the differential oracle records (delivered in global
 * virtual-time order) and throws LivenessViolation the moment a bound
 * is exceeded, so a livelocked run fails fast instead of spinning to
 * the scheduler's probe guard. Violations carry the fired preemption
 * schedule and the hazard configuration, which check_runner prints as
 * a one-command replay artifact and ddmin-shrinks with the same
 * machinery as safety failures (shrink.hh).
 */

#ifndef HTMSIM_CHECK_LIVENESS_HH
#define HTMSIM_CHECK_LIVENESS_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/oracle.hh"
#include "htm/observer.hh"
#include "sim/scheduler.hh"

namespace htmsim::check
{

/** Progress bounds enforced by the LivenessChecker. */
struct LivenessOptions
{
    /** Max virtual cycles from a section's first begin to its commit
     *  (hardware or fallback). Generous: legitimate worst cases —
     *  watchdog-bounded retries, preempted lock holders, fuzzed
     *  preemption delays — stay well under it; a livelocked section
     *  crosses it quickly. */
    sim::Cycles maxSectionCycles = 4'000'000;
    /** Max commits by peers while one section stays open. */
    std::uint64_t starvationCommitBound = 512;
};

/** Thrown from the observer when a progress bound is exceeded. */
class LivenessViolation : public std::runtime_error
{
  public:
    explicit LivenessViolation(const std::string& what)
        : std::runtime_error(what)
    {
    }
};

/**
 * Online progress watchdog over the lifecycle-event stream. Forwards
 * every event to @p forward (the diagnostic EventRing) before
 * checking, so the trace tail of a violation shows the events leading
 * up to it.
 *
 * A *section* opens at the first begin after the previous close and
 * closes at commit / fallbackCommit; retried attempts keep it open.
 * Sections that run straight to the lock (pure fallback) never open —
 * their progress is the lock holder's, which the completion bound of
 * the section that acquired it already covers.
 */
class LivenessChecker final : public htm::TxObserver
{
  public:
    LivenessChecker(unsigned num_threads, LivenessOptions options,
                    htm::TxObserver* forward = nullptr)
        : options_(options), forward_(forward), threads_(num_threads)
    {
    }

    void onEvent(const htm::TxEvent& event) override;

    void
    onConflict(const htm::TxConflictEvent& event) override
    {
        if (forward_ != nullptr)
            forward_->onConflict(event);
    }

    /** Commits observed so far (all threads). */
    std::uint64_t globalCommits() const { return globalCommits_; }

  private:
    struct ThreadProgress
    {
        bool open = false;
        /** Virtual time of the open section's first begin. */
        sim::Cycles openSince = 0;
        /** globalCommits_ when the section opened. */
        std::uint64_t commitsAtOpen = 0;
    };

    LivenessOptions options_;
    htm::TxObserver* forward_;
    std::vector<ThreadProgress> threads_;
    std::uint64_t globalCommits_ = 0;
};

/**
 * Run the liveness oracle for (@p workload, @p machine, @p seed): the
 * concurrent phase of the differential oracle (ConcurrentRun) —
 * fuzzed schedule, hazards, retry policy, backend and hybrid settings
 * from @p options — watched by a
 * LivenessChecker, plus the exactly-once completeness check. No serial
 * replay (that is the safety oracle's job). When @p replay is non-null
 * the run fires exactly that schedule, making failures replayable and
 * shrinkable from the printed artifact.
 */
RunOutcome runLiveness(const WorkloadFactory& workload,
                       const htm::MachineConfig& machine,
                       std::uint64_t seed,
                       const CheckOptions& options = {},
                       const LivenessOptions& liveness = {},
                       const Schedule* replay = nullptr);

} // namespace htmsim::check

#endif // HTMSIM_CHECK_LIVENESS_HH
