/**
 * @file
 * Differential serializability oracle (simcheck).
 *
 * One oracle run executes a workload twice:
 *
 *  1. concurrently — N simulated threads under the best-effort HTM
 *     backend on a given MachineConfig, with a FuzzScheduler
 *     perturbing the interleaving and a TxObserver recording the
 *     event trace and the global commit order;
 *  2. serially — a fresh copy of the workload on one thread under the
 *     global-lock backend, applying the committed operations in the
 *     exact commit order observed in (1).
 *
 * The HTM model is serializable iff the serial run is indistinguishable
 * from the concurrent one: every operation's result (which folds the
 * values it loaded — opacity at word granularity) and the final-state
 * fingerprint must match, the trace must satisfy the interleaving
 * invariants (trace.hh), and every operation must have committed
 * exactly once. Any discrepancy is reported with the fired preemption
 * schedule so the failing interleaving can be replayed and shrunk.
 */

#ifndef HTMSIM_CHECK_ORACLE_HH
#define HTMSIM_CHECK_ORACLE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "check/fuzz_scheduler.hh"
#include "check/workload.hh"
#include "htm/machine.hh"
#include "htm/runtime.hh"
#include "sim/region.hh"
#include "sim/scheduler.hh"

namespace htmsim::check
{

/** Knobs for one oracle run. */
struct CheckOptions
{
    /** Simulated threads in the concurrent phase. */
    unsigned threads = 4;
    /** Transactions per thread. */
    unsigned opsPerThread = 24;
    /** Schedule-fuzzing knobs (ignored when replaying). */
    FuzzOptions fuzz;
    /** Event-ring capacity; the oracle fails loudly (with guidance to
     *  raise this) if the ring ever wraps, so size it above threads *
     *  opsPerThread * worst-case retries. */
    std::size_t ringCapacity = std::size_t(1) << 15;
    /** Model fault to inject (simcheck self-test). */
    htm::CheckFault fault = htm::CheckFault::none;
    /** Hazard injection for the concurrent phase (hazard.hh); off by
     *  default. The serial replay never injects — hazards must not
     *  change what the committed operations compute. */
    htm::HazardConfig hazard;
    /** Retry policy the concurrent phase runs under. */
    htm::RetryPolicyKind policyKind = htm::RetryPolicyKind::machineDefault;
    /** Backend the concurrent phase runs under (htm or hybrid; the
     *  serial replay always uses the global-lock backend). */
    htm::BackendKind backend = htm::BackendKind::htm;
    /** Hybrid-backend knobs (subscription mode, software-path
     *  switches); only read when backend == hybrid. */
    htm::HybridRuntimeConfig hybrid;
};

/** Verdict of one oracle run. */
struct RunOutcome
{
    bool ok = true;
    /** First violation found (empty when ok). */
    std::string reason;
    /** Preemption points that fired — the replayable schedule. */
    Schedule fired;
    /** Rendered tail of the event trace: populated on failure only,
     *  empty when ok. */
    std::string traceTail;
    /** Commits observed in the concurrent phase. */
    std::uint64_t commits = 0;
};

/**
 * The concurrent phase both oracles run (this one and liveness.hh),
 * in one place so their configurations cannot drift apart: one run
 * of the simulated heap, the workload, a fuzzed (or replayed)
 * schedule, the runtime configured from CheckOptions (fault, hazards,
 * policy, backend, hybrid settings), and one fiber per thread
 * applying that thread's operations.
 */
struct ConcurrentRun
{
    /** Set up the phase for (@p factory, @p machine, @p seed); fire
     *  exactly @p replay's schedule when it is non-null. */
    ConcurrentRun(const WorkloadFactory& factory,
                  const htm::MachineConfig& machine, std::uint64_t seed,
                  const CheckOptions& options, const Schedule* replay);

    /**
     * Run every thread's operations to completion; when @p results is
     * non-null, store op i of thread t in (*results)[t][i]. Errors
     * raised in the run, an observer's included, propagate.
     */
    void run(std::vector<std::vector<std::uint64_t>>* results);

    const unsigned threads;
    const unsigned ops;
    /** Seed of the op streams, derived from the run seed so that both
     *  oracles and the serial replay agree on the ops. */
    const std::uint64_t workloadSeed;
    // Declaration order is construction order: the workload and the
    // runtime are allocated in this run of the simulated heap.
    sim::RunScope region;
    const sim::Ptr<CheckWorkload> workload;
    sim::Scheduler scheduler;
    FuzzScheduler fuzz;
    /** The runtime under test; the oracle attaches its observer. */
    htm::Runtime runtime;
};

/**
 * Run the differential oracle for (@p workload, @p machine, @p seed).
 * When @p replay is non-null the concurrent phase fires exactly that
 * schedule instead of fuzzing; everything else is identical, which is
 * what makes failures reproducible from the printed artifact.
 */
RunOutcome runDifferential(const WorkloadFactory& workload,
                           const htm::MachineConfig& machine,
                           std::uint64_t seed,
                           const CheckOptions& options = {},
                           const Schedule* replay = nullptr);

} // namespace htmsim::check

#endif // HTMSIM_CHECK_ORACLE_HH
