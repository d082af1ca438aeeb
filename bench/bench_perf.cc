/**
 * @file
 * Host-time benchmark harness: the perf trajectory of the simulator
 * itself.
 *
 * Runs the paper's STAMP x machine grid (the Figure 2 cells, full
 * retry-count tuning) and measures what the other benches do not:
 * host wall-clock per cell and simulated-commit throughput (committed
 * transactions per host second). Emits machine-readable
 * BENCH_perf.json so successive runs can compare.
 *
 * Every run allocates its simulated state in the run's region
 * (sim/region.hh), so the per-candidate simulated metrics in the JSON
 * depend only on the inputs and are directly comparable across builds
 * and processes: a hot-path refactor that claims bit-identical model
 * behavior must reproduce them exactly.
 *
 * Usage: bench_perf [--no-batch] [-o OUT.json]
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "access_micro.hh"
#include "check/cli.hh"
#include "prof/report.hh"
#include "report.hh"

namespace
{

using namespace htmsim;
using Clock = std::chrono::steady_clock;

std::uint64_t
elapsedNs(Clock::time_point start, Clock::time_point finish)
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(finish -
                                                             start)
            .count());
}

/** One tuning candidate's outcome: host cost + simulated metrics. */
struct CandidateResult
{
    std::uint64_t hostNs = 0;   ///< seq + tm run, host wall-clock
    std::uint64_t hostTmNs = 0; ///< tm share (by simulated cycles)
    stamp::Speedup speedup;
};

/** Run one tuning candidate (sequential baseline + tm run). */
CandidateResult
runCandidate(const std::string& bench,
             const htm::MachineConfig& machine,
             const htm::RuntimeConfig& config, unsigned threads,
             std::uint64_t seed)
{
    bench::SuiteRunner runner(false);
    CandidateResult candidate;
    const auto start = Clock::now();
    candidate.speedup =
        runner.run(bench, config, machine, threads, true, seed);
    const auto finish = Clock::now();
    candidate.hostNs = elapsedNs(start, finish);
    // The sequential baseline is identical across candidates and
    // cheap; attribute host time to the tm run proportionally to
    // simulated cycles instead of timing the phases separately.
    const stamp::Speedup& speedup = candidate.speedup;
    const double total_cycles =
        double(speedup.seq.cycles) + double(speedup.tm.cycles);
    const double tm_share = total_cycles == 0.0
                                ? 0.0
                                : double(speedup.tm.cycles) /
                                      total_cycles;
    candidate.hostTmNs =
        std::uint64_t(double(candidate.hostNs) * tm_share);
    return candidate;
}

struct CellResult
{
    std::string bench;
    std::string machine;
    std::vector<CandidateResult> candidates;

    std::uint64_t
    hostNs() const
    {
        std::uint64_t sum = 0;
        for (const auto& candidate : candidates)
            sum += candidate.hostNs;
        return sum;
    }

    std::uint64_t
    hostTmNs() const
    {
        std::uint64_t sum = 0;
        for (const auto& candidate : candidates)
            sum += candidate.hostTmNs;
        return sum;
    }

    std::uint64_t
    committedTx() const
    {
        std::uint64_t sum = 0;
        for (const auto& candidate : candidates)
            sum += candidate.speedup.tm.stats.totalCommits();
        return sum;
    }

    /** Committed transactions per host second of transactional runs. */
    double
    txPerSec() const
    {
        const std::uint64_t ns = hostTmNs();
        return ns == 0 ? 0.0
                       : double(committedTx()) * 1e9 / double(ns);
    }

    /** Best speed-up over the tuning grid (the paper's reporting). */
    double
    bestRatio() const
    {
        double best = 0.0;
        bool first = true;
        for (const auto& candidate : candidates) {
            if (first || candidate.speedup.ratio > best) {
                best = candidate.speedup.ratio;
                first = false;
            }
        }
        return best;
    }
};

} // namespace

int
main(int argc, char** argv)
{
    std::string output_path = "BENCH_perf.json";
    bool batch = true;
    cli::Args args(argc, argv);
    while (args.next()) {
        if (args.is("-o")) {
            output_path = args.value();
        } else if (args.is("--no-batch")) {
            // Escape hatch: disable the epoch-batched sync() fast
            // path (DESIGN.md Section 5). Simulated metrics must be
            // bit-identical either way; only host time may differ.
            batch = false;
        } else {
            args.unknown();
        }
    }
    const unsigned threads = 4;
    const std::uint64_t seed = 1;

    std::vector<CellResult> cells;
    const auto suite_start = Clock::now();
    for (const htm::MachineConfig& machine :
         htm::MachineConfig::all()) {
        for (const std::string& bench : bench::suiteNames()) {
            CellResult cell;
            cell.bench = bench;
            cell.machine = machine.name;
            for (htm::RuntimeConfig config :
                 bench::SuiteRunner::tuningCandidates(machine)) {
                config.batchEpoch = batch;
                cell.candidates.push_back(
                    runCandidate(bench, machine, config, threads, seed));
            }
            std::printf("%-14s %-22s %8.1f ms  %10.0f tx/s  "
                        "speedup %.2f\n",
                        cell.bench.c_str(), cell.machine.c_str(),
                        double(cell.hostNs()) / 1e6, cell.txPerSec(),
                        cell.bestRatio());
            std::fflush(stdout);
            cells.push_back(std::move(cell));
        }
    }
    const auto suite_finish = Clock::now();

    // Per-access cost microbenchmark, recorded alongside the grid
    // (see access_micro.hh).
    htm::RuntimeConfig access_config{htm::MachineConfig::intelCore()};
    access_config.batchEpoch = batch;
    const std::vector<bench::AccessResult> access_rows =
        bench::runAccessSweep(access_config);
    std::printf("\n%-12s %8s %12s %10s %10s %10s\n", "access",
                "threads", "accesses", "ns/access", "commits", "aborts");
    for (const bench::AccessResult& row : access_rows) {
        std::printf("%-12s %8u %12llu %10.1f %10llu %10llu\n",
                    row.pattern, row.threads,
                    (unsigned long long)row.accesses,
                    row.nsPerAccess(), (unsigned long long)row.commits,
                    (unsigned long long)row.aborts);
    }

    // Geomean of per-cell host times: the suite-level trajectory
    // metric (robust to one cell dominating).
    std::vector<double> cell_ns;
    std::uint64_t total_ns = 0;
    for (const CellResult& cell : cells) {
        cell_ns.push_back(double(cell.hostNs()));
        total_ns += cell.hostNs();
    }
    const double geomean_ns = bench::geomean(cell_ns);

    if (!bench::writeReport(output_path, argc, argv, [&](auto& json) {
            json.field("threads", threads)
                .field("seed", seed)
                .field("total_host_ns", total_ns)
                .field("wall_host_ns", elapsedNs(suite_start, suite_finish))
                .field("geomean_cell_host_ns", geomean_ns)
                .key("cells")
                .beginArray();
            for (const CellResult& cell : cells) {
                json.beginObject()
                    .field("bench", cell.bench)
                    .field("machine", cell.machine)
                    .field("host_ns", cell.hostNs())
                    .field("host_tm_ns", cell.hostTmNs())
                    .field("committed_tx", cell.committedTx())
                    .field("tx_per_sec", cell.txPerSec())
                    .field("best_speedup", cell.bestRatio())
                    .key("candidates")
                    .beginArray();
                for (const CandidateResult& candidate : cell.candidates)
                    prof::writeJson(json, candidate.speedup);
                json.end().end();
            }
            json.end().key("access").beginArray();
            for (const bench::AccessResult& row : access_rows) {
                json.beginObject()
                    .field("pattern", row.pattern)
                    .field("threads", row.threads)
                    .field("accesses", row.accesses)
                    .field("host_ns", row.hostNs)
                    .field("ns_per_access", row.nsPerAccess())
                    .field("tm_cycles", row.tmCycles)
                    .field("commits", row.commits)
                    .field("aborts", row.aborts)
                    .end();
            }
            json.end();
        }))
        return 1;

    std::printf("\ntotal %.1f ms (geomean cell %.1f ms) -> %s\n",
                double(total_ns) / 1e6, geomean_ns / 1e6,
                output_path.c_str());
    return 0;
}
