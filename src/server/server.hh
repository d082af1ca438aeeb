/**
 * @file
 * The simulated TM-backed server: N open-loop clients over one KvStore.
 *
 * runServer() is to the OLTP scenario what stamp/harness.hh is to the
 * STAMP suite: it wires a Scheduler, a Runtime on the chosen machine
 * model and backend, and one fiber per simulated client, then reports
 * committed-transaction throughput and virtual-time latency
 * percentiles.
 *
 * Latency definition (DESIGN.md Section 9): one operation's latency is
 * measured in virtual cycles from the begin of its first transactional
 * attempt — the atomic() entry, after any arrival-time wait — to its
 * commit, inclusive of every retry, backoff wait, lemming wait, and
 * global-lock fallback in between. Time a request spends queued behind
 * the client's previous request (open-loop lateness) is reported
 * separately via the queueDelay histogram, not folded into operation
 * latency.
 *
 * Clients beyond the machine's SMT capacity timeshare cores via the
 * oversubscription extension of MachineConfig::smtTimeScale, so a
 * 256-client run on a 4-core/2-way Intel model is 32 clients per core
 * at pinned aggregate throughput — contention honesty for tail
 * latencies.
 */

#ifndef HTMSIM_SERVER_SERVER_HH
#define HTMSIM_SERVER_SERVER_HH

#include <array>
#include <cstdint>
#include <optional>

#include "htm/runtime.hh"
#include "latency.hh"
#include "tmsync/sync_mode.hh"
#include "traffic.hh"

namespace htmsim::server
{

/** Everything configurable about one server run. */
struct ServerConfig
{
    /** Machine model, backend, retry policy, batching, hazards. */
    htm::RuntimeConfig runtime;
    /** Simulated clients (1 .. htm::kMaxTxThreads). */
    unsigned clients = 64;
    /** Workload shape and offered load. */
    TrafficConfig traffic;
    /** Master seed for the scheduler and all traffic streams. */
    std::uint64_t seed = 1;
    /**
     * Optional ordered-index guard around the range-scan path. Empty
     * leaves every operation on the plain runtime.atomic path —
     * bit-identical to the pre-tmsync server. A SyncMode routes scans
     * through a tmsync::transactional_shared_lock_guard (shared mode)
     * and the index-mutating put/rmw ops through an exclusive
     * transactional_lock_guard over one process-wide
     * tmsync::atomic_shared_mutex, in that mode. get and transfer
     * never touch the ordered index and stay on runtime.atomic.
     */
    std::optional<tmsync::SyncMode> indexLock;
    /** Optional observer (txprof attribution); may be nullptr. */
    htm::TxObserver* observer = nullptr;
};

/** Outcome of one server run. */
struct ServerResult
{
    /** Operations completed (every request, exactly once). */
    std::uint64_t committedOps = 0;
    /** Virtual time of the last client to finish. */
    std::uint64_t horizonCycles = 0;
    /** First-attempt-to-commit latency over all operations. */
    LatencyHistogram latency;
    /** Latency split by operation kind. */
    std::array<LatencyHistogram, numOpKinds> perOp;
    /** Open-loop lateness: scheduled arrival -> first attempt. */
    LatencyHistogram queueDelay;
    /** Aggregated runtime statistics (aborts, fallbacks, cycles). */
    htm::TxStats stats;
    /** Operations routed through the index guard (0 when the guard
     *  is off), and how many of those elided the lock. */
    std::uint64_t indexGuardSections = 0;
    std::uint64_t indexGuardElided = 0;
    /** Conserved-balance and table/index-agreement checks. */
    bool invariantsOk = false;

    /** Committed transactions per thousand virtual cycles. */
    double
    throughputPerKcycle() const
    {
        return horizonCycles == 0 ? 0.0 :
               double(committedOps) * 1000.0 / double(horizonCycles);
    }
};

/** Run one server configuration to completion. */
ServerResult runServer(const ServerConfig& config);

} // namespace htmsim::server

#endif // HTMSIM_SERVER_SERVER_HH
