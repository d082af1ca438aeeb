/**
 * @file
 * The simulated outcome of one STAMP run as the A/B tests compare it.
 */

#ifndef HTMSIM_TESTS_RUN_METRICS_HH
#define HTMSIM_TESTS_RUN_METRICS_HH

#include <array>
#include <cstdint>

#include "htm/abort.hh"
#include "stamp/harness.hh"

namespace htmsim::test
{

struct RunMetrics
{
    std::uint64_t seqCycles = 0;
    std::uint64_t tmCycles = 0;
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t committedTxCycles = 0;
    std::uint64_t wastedTxCycles = 0;
    std::array<std::uint64_t, htm::numAbortCauses> causes{};

    static RunMetrics
    of(const stamp::Speedup& speedup)
    {
        const htm::TxStats& stats = speedup.tm.stats;
        return {speedup.seq.cycles,     speedup.tm.cycles,
                stats.totalCommits(),   stats.totalAborts(),
                stats.committedTxCycles, stats.wastedTxCycles,
                stats.trueCauseAborts};
    }

    bool operator==(const RunMetrics& other) const = default;
};

} // namespace htmsim::test

#endif // HTMSIM_TESTS_RUN_METRICS_HH
