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
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "access_micro.hh"
#include "suite.hh"

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
    std::uint64_t seqCycles = 0;
    std::uint64_t tmCycles = 0;
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::array<std::uint64_t, htm::numAbortCauses> causes{};
    double ratio = 0.0;
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
    const stamp::Speedup speedup =
        runner.run(bench, config, machine, threads, true, seed);
    const auto finish = Clock::now();
    candidate.hostNs = elapsedNs(start, finish);
    // The sequential baseline is identical across candidates and
    // cheap; attribute host time to the tm run proportionally to
    // simulated cycles instead of timing the phases separately.
    const double total_cycles =
        double(speedup.seq.cycles) + double(speedup.tm.cycles);
    const double tm_share = total_cycles == 0.0
                                ? 0.0
                                : double(speedup.tm.cycles) /
                                      total_cycles;
    candidate.hostTmNs =
        std::uint64_t(double(candidate.hostNs) * tm_share);
    candidate.seqCycles = speedup.seq.cycles;
    candidate.tmCycles = speedup.tm.cycles;
    candidate.commits = speedup.tm.stats.totalCommits();
    candidate.aborts = speedup.tm.stats.totalAborts();
    candidate.causes = speedup.tm.stats.trueCauseAborts;
    candidate.ratio = speedup.ratio;
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
            sum += candidate.commits;
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
            if (first || candidate.ratio > best) {
                best = candidate.ratio;
                first = false;
            }
        }
        return best;
    }
};

void
writeCellJson(std::FILE* out, const CellResult& cell)
{
    std::fprintf(out,
                 "    {\"bench\": \"%s\", \"machine\": \"%s\",\n"
                 "     \"host_ns\": %llu, \"host_tm_ns\": %llu,\n"
                 "     \"committed_tx\": %llu, \"tx_per_sec\": %.1f,\n"
                 "     \"best_speedup\": %.4f,\n"
                 "     \"candidates\": [\n",
                 cell.bench.c_str(), cell.machine.c_str(),
                 (unsigned long long)cell.hostNs(),
                 (unsigned long long)cell.hostTmNs(),
                 (unsigned long long)cell.committedTx(),
                 cell.txPerSec(), cell.bestRatio());
    for (std::size_t i = 0; i < cell.candidates.size(); ++i) {
        const CandidateResult& candidate = cell.candidates[i];
        std::fprintf(out,
                     "      {\"seq_cycles\": %llu, \"tm_cycles\": %llu, "
                     "\"commits\": %llu, \"aborts\": %llu, "
                     "\"causes\": [",
                     (unsigned long long)candidate.seqCycles,
                     (unsigned long long)candidate.tmCycles,
                     (unsigned long long)candidate.commits,
                     (unsigned long long)candidate.aborts);
        for (std::size_t c = 0; c < candidate.causes.size(); ++c) {
            std::fprintf(out, "%s%llu", c == 0 ? "" : ", ",
                         (unsigned long long)candidate.causes[c]);
        }
        std::fprintf(out, "]}%s\n",
                     i + 1 < cell.candidates.size() ? "," : "");
    }
    std::fprintf(out, "    ]}");
}

} // namespace

int
main(int argc, char** argv)
{
    const char* output_path = "BENCH_perf.json";
    bool batch = true;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "-o") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "usage: %s [--no-batch] [-o output.json]\n",
                             argv[0]);
                return 2;
            }
            output_path = argv[++i];
        } else if (std::strcmp(argv[i], "--no-batch") == 0) {
            // Escape hatch: disable the epoch-batched sync() fast
            // path (DESIGN.md Section 5). Simulated metrics must be
            // bit-identical either way; only host time may differ.
            batch = false;
        } else {
            output_path = argv[i];
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
    std::printf("\n%-12s %8s %10s\n", "access", "threads",
                "ns/access");
    for (const bench::AccessResult& row : access_rows) {
        std::printf("%-12s %8u %10.1f\n", row.pattern, row.threads,
                    row.nsPerAccess());
    }

    // Geomean of per-cell host times: the suite-level trajectory
    // metric (robust to one cell dominating).
    double log_sum = 0.0;
    std::uint64_t total_ns = 0;
    for (const CellResult& cell : cells) {
        log_sum += std::log(double(cell.hostNs()));
        total_ns += cell.hostNs();
    }
    const double geomean_ns =
        cells.empty() ? 0.0 : std::exp(log_sum / double(cells.size()));

    std::FILE* out = std::fopen(output_path, "w");
    if (out == nullptr) {
        std::perror(output_path);
        return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"schema\": \"htmsim-bench-perf-v1\",\n"
                 "  \"threads\": %u,\n"
                 "  \"seed\": %llu,\n"
                 "  \"scale\": %.3f,\n"
                 "  \"total_host_ns\": %llu,\n"
                 "  \"wall_host_ns\": %llu,\n"
                 "  \"geomean_cell_host_ns\": %.0f,\n"
                 "  \"cells\": [\n",
                 threads, (unsigned long long)seed,
                 bench::workloadScale(),
                 (unsigned long long)total_ns,
                 (unsigned long long)elapsedNs(suite_start,
                                               suite_finish),
                 geomean_ns);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        writeCellJson(out, cells[i]);
        std::fprintf(out, "%s\n", i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n  \"access\": [\n");
    for (std::size_t i = 0; i < access_rows.size(); ++i) {
        const bench::AccessResult& row = access_rows[i];
        std::fprintf(
            out,
            "    {\"pattern\": \"%s\", \"threads\": %u, "
            "\"accesses\": %llu, \"host_ns\": %llu, "
            "\"ns_per_access\": %.2f, \"tm_cycles\": %llu, "
            "\"commits\": %llu, \"aborts\": %llu}%s\n",
            row.pattern, row.threads,
            (unsigned long long)row.accesses,
            (unsigned long long)row.hostNs, row.nsPerAccess(),
            (unsigned long long)row.tmCycles,
            (unsigned long long)row.commits,
            (unsigned long long)row.aborts,
            i + 1 < access_rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);

    std::printf("\ntotal %.1f ms (geomean cell %.1f ms) -> %s\n",
                double(total_ns) / 1e6, geomean_ns / 1e6, output_path);
    return 0;
}
