/**
 * @file
 * Deterministic check workloads for the differential oracle (simcheck).
 *
 * A CheckWorkload is a bag of shared state plus a precomputed table of
 * per-thread operations. The oracle runs the same workload twice:
 * concurrently under the fuzzed HTM model, then serially (one thread,
 * global-lock backend) in the concurrent run's commit order. For that
 * comparison to be meaningful the workloads obey two rules:
 *
 *  - operations are precomputed in the constructor from the workload
 *    seed alone — apply() must never draw from the thread context's
 *    rng(), which the HTM runtime itself consumes (backoff, cache
 *    fetch, prefetch draws) and whose stream position is therefore
 *    interleaving-dependent;
 *  - apply() folds every transactionally loaded value it depends on
 *    into its return value, so a stale or torn read shows up as a
 *    result mismatch against the serial replay, not just (maybe) as a
 *    final-state difference.
 *
 * The registry covers the tmds structures (hash table, rb-tree, sorted
 * list, ring queue, heap, bitmap) and the two distilled STAMP kernels
 * (kmeans accumulator, vacation-style reservations).
 */

#ifndef HTMSIM_CHECK_WORKLOAD_HH
#define HTMSIM_CHECK_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/region.hh"

namespace htmsim::htm
{
class Tx;
class Runtime;
}

namespace htmsim::sim
{
class ThreadContext;
}

namespace htmsim::check
{

/** One replayable unit of work over shared transactional state. */
class CheckWorkload
{
  public:
    virtual ~CheckWorkload() = default;

    /**
     * Execute thread @p tid's @p op-th operation inside transaction
     * @p tx. Must be deterministic given (tid, op) and the shared
     * state, and must fold loaded values into the returned result.
     */
    virtual std::uint64_t apply(htm::Tx& tx, unsigned tid,
                                unsigned op) = 0;

    /**
     * Self-driven workloads stage their own atomic sections (e.g. the
     * tmsync lock-elision protocols) instead of running apply() inside
     * a driver-provided runtime.atomic(). The oracle then calls
     * applyDirect() with the runtime and thread context and relies on
     * each op emitting exactly one closing lifecycle event (commit /
     * fallbackCommit / nonSpecCommit) as its serialization point.
     */
    virtual bool selfDriven() const { return false; }

    /** Execute op directly against the runtime (selfDriven() only).
     *  Same determinism and result-folding rules as apply(). */
    virtual std::uint64_t
    applyDirect(htm::Runtime& runtime, sim::ThreadContext& ctx,
                unsigned tid, unsigned op)
    {
        (void) runtime;
        (void) ctx;
        (void) tid;
        (void) op;
        return 0;
    }

    /** Structural digest of the shared state (host-side, post-run). */
    virtual std::uint64_t fingerprint() = 0;
};

/** Named constructor for a workload instance. */
struct WorkloadFactory
{
    const char* name;
    sim::Ptr<CheckWorkload> (*make)(std::uint64_t seed,
                                    unsigned threads,
                                    unsigned ops_per_thread);
};

/** All registered workloads, in sweep order. */
const std::vector<WorkloadFactory>& allWorkloads();

/** Find a workload by name; nullptr when unknown. */
const WorkloadFactory* findWorkload(const std::string& name);

/** Order-sensitive 64-bit fold used by workload fingerprints. */
inline std::uint64_t
foldHash(std::uint64_t h, std::uint64_t v)
{
    std::uint64_t state =
        h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
    state ^= state >> 30;
    state *= 0xbf58476d1ce4e5b9ULL;
    state ^= state >> 27;
    state *= 0x94d049bb133111ebULL;
    return state ^ (state >> 31);
}

} // namespace htmsim::check

#endif // HTMSIM_CHECK_WORKLOAD_HH
