/**
 * @file
 * Per-access cost microbenchmark: tight transactional load/store loops
 * with the application logic stripped away, so the simulator's
 * per-access overhead (clocking, scheduling rendezvous, conflict and
 * capacity probes) is measurable in isolation.
 *
 * Two sharing patterns at 1/2/4 threads:
 *
 *  - uncontended: each thread walks a private array slice, so no
 *    conflict ever resolves against another thread and the scheduler
 *    ping-pongs purely on virtual-time ordering. This is the epoch
 *    batching fast path's best case (DESIGN.md Section 5).
 *  - contended: all threads walk the same array, so conflict
 *    resolution, aborts and retries dominate. This bounds the fast
 *    path's worst case.
 *
 * Used by bench_perf, which prints the rows and records them in
 * BENCH_perf.json alongside the grid.
 */

#ifndef HTMSIM_BENCH_ACCESS_MICRO_HH
#define HTMSIM_BENCH_ACCESS_MICRO_HH

#include <chrono>
#include <cstdint>
#include <vector>

#include "htm/runtime.hh"
#include "sim/region.hh"
#include "sim/sim.hh"

namespace htmsim::bench
{

/** One microbenchmark cell. */
struct AccessResult
{
    const char* pattern = "";     ///< "uncontended" | "contended"
    unsigned threads = 0;
    std::uint64_t accesses = 0;   ///< simulated loads + stores issued
    std::uint64_t hostNs = 0;     ///< host wall-clock for the run
    std::uint64_t tmCycles = 0;   ///< simulated makespan
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;

    double
    nsPerAccess() const
    {
        return accesses == 0 ? 0.0
                             : double(hostNs) / double(accesses);
    }
};

/**
 * Run one access-loop cell: every thread executes @p txs transactions
 * of @p accesses_per_tx loads+stores over @p words shared words.
 * @p contended shares one array among all threads; otherwise each
 * thread works a disjoint slice.
 */
inline AccessResult
runAccessCell(const htm::RuntimeConfig& base_config, unsigned threads,
              bool contended, unsigned txs = 4000,
              unsigned accesses_per_tx = 16, unsigned words = 4096)
{
    htm::RuntimeConfig config = base_config;
    AccessResult result;
    result.pattern = contended ? "contended" : "uncontended";
    result.threads = threads;

    sim::RunScope run;
    sim::Vector<std::uint64_t> data(words, 1);
    const auto start = std::chrono::steady_clock::now();

    sim::Scheduler scheduler(1);
    scheduler.setBatching(config.batchEpoch);
    htm::Runtime runtime(config, threads);
    for (unsigned t = 0; t < threads; ++t) {
        scheduler.spawn([&, t](sim::ThreadContext& ctx) {
            // Disjoint slices when uncontended; full overlap when
            // contended. Strides are odd so walks wrap the whole
            // range instead of cycling a few lines.
            const unsigned slice = words / threads;
            const unsigned lo = contended ? 0 : t * slice;
            const unsigned span = contended ? words : slice;
            for (unsigned i = 0; i < txs; ++i) {
                runtime.atomic(ctx, [&](htm::Tx& tx) {
                    unsigned index = (i * 17 + t * 5) % span;
                    std::uint64_t sum = 0;
                    for (unsigned a = 0; a < accesses_per_tx; ++a) {
                        std::uint64_t* word =
                            &data[lo + (index % span)];
                        if ((a & 3) == 3)
                            tx.store(word, sum);
                        else
                            sum += tx.load(word);
                        index += 13;
                    }
                });
            }
        });
    }
    scheduler.run();

    const auto finish = std::chrono::steady_clock::now();
    result.hostNs = std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(finish -
                                                             start)
            .count());
    result.accesses = std::uint64_t(threads) * txs * accesses_per_tx;
    result.tmCycles = scheduler.makespan();
    const htm::TxStats stats = runtime.stats();
    result.commits = stats.totalCommits();
    result.aborts = stats.totalAborts();
    return result;
}

/** bench_perf's access sweep: both patterns at 1/2/4 threads. */
inline std::vector<AccessResult>
runAccessSweep(const htm::RuntimeConfig& config)
{
    std::vector<AccessResult> results;
    for (const bool contended : {false, true}) {
        for (const unsigned threads : {1u, 2u, 4u})
            results.push_back(
                runAccessCell(config, threads, contended));
    }
    return results;
}

} // namespace htmsim::bench

#endif // HTMSIM_BENCH_ACCESS_MICRO_HH
