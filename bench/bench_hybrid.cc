/**
 * @file
 * Hybrid TM bounds (EXPERIMENTS.md "Hybrid TM bounds"): the two
 * charts the hybrid-TM literature frames the design space with.
 *
 *  1. Instrumentation cost. Single-thread slowdown of the pure
 *     software path (backend=hybrid, stmOnly) relative to pure
 *     hardware (backend=htm) per machine: the per-access orec and
 *     write-buffer bookkeeping Alistarh et al. ("Inherent Limitations
 *     of Hybrid TM") identify as the term no hybrid can hide on the
 *     slow path.
 *
 *  2. Concurrency. Speed-up versus thread count on contended
 *     benchmarks for the global-lock fallback, plain best-effort HTM
 *     (lock fallback), and the hybrid backend (STM fallback). The
 *     hybrid's claim — Brown & Ravi, "On the Cost of Concurrency in
 *     Hybrid TM" — is that fallbacks still run concurrently, so on at
 *     least one contended cell per machine it must beat the lock-only
 *     bound. The binary exits nonzero if any machine lacks such a
 *     cell.
 *
 * Emits BENCH_hybrid.json. All runs use the machine's default retry
 * configuration (no tuning grid): both comparisons are about backend
 * structure, not retry-budget luck.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "check/cli.hh"
#include "report.hh"

namespace
{

using namespace htmsim;
using htm::BackendKind;

double
runRatio(const bench::SuiteRunner& runner, const std::string& bench,
         const htm::MachineConfig& machine, BackendKind backend,
         bool stm_only, unsigned threads, std::uint64_t seed)
{
    htm::RuntimeConfig config{machine};
    config.backend = backend;
    config.hybrid.stmOnly = stm_only;
    return runner.run(bench, config, machine, threads, true, seed)
        .ratio;
}

struct InstRow
{
    std::string bench;
    std::string machine;
    double htm = 0.0;
    double stm = 0.0;
    double slowdown = 0.0;
};

struct ConcRow
{
    std::string bench;
    std::string machine;
    unsigned threads = 0;
    double lock = 0.0;
    double htm = 0.0;
    double hybrid = 0.0;
};

} // namespace

int
main(int argc, char** argv)
{
    std::string output_path = "BENCH_hybrid.json";
    cli::Args args(argc, argv);
    while (args.next()) {
        if (args.is("-o"))
            output_path = args.value();
        else
            args.unknown();
    }
    const std::uint64_t seed = 1;
    const bench::SuiteRunner runner(false);

    // A read-leaning / write-leaning / allocation-heavy spread keeps
    // the instrumentation geomean honest without running all ten.
    const std::vector<std::string> inst_benches = {
        "genome", "kmeans-low", "ssca2", "vacation-low"};
    // The contended cells: high conflict (intruder, yada) and high
    // capacity pressure (labyrinth, vacation-high) — where fallbacks
    // actually happen and the fallback's concurrency matters.
    const std::vector<std::string> conc_benches = {
        "intruder", "labyrinth", "vacation-high", "yada"};
    const std::vector<unsigned> thread_counts = {1, 2, 4};

    std::printf("-- instrumentation cost (1 thread, stm-only vs "
                "htm) --\n");
    std::printf("%-14s %-22s %8s %8s %10s\n", "benchmark", "machine",
                "htm", "stm", "slowdown");
    std::vector<InstRow> inst_rows;
    for (const htm::MachineConfig& machine :
         htm::MachineConfig::all()) {
        for (const std::string& bench : inst_benches) {
            InstRow row;
            row.bench = bench;
            row.machine = machine.name;
            row.htm = runRatio(runner, bench, machine,
                               BackendKind::htm, false, 1, seed);
            row.stm = runRatio(runner, bench, machine,
                               BackendKind::hybrid, true, 1, seed);
            row.slowdown = row.stm > 0.0 ? row.htm / row.stm : 0.0;
            std::printf("%-14s %-22s %8.3f %8.3f %9.2fx\n",
                        bench.c_str(), machine.name.c_str(), row.htm,
                        row.stm, row.slowdown);
            std::fflush(stdout);
            inst_rows.push_back(std::move(row));
        }
    }

    std::printf("\n-- concurrency (speed-up vs threads, contended "
                "cells) --\n");
    std::printf("%-14s %-22s %3s %8s %8s %8s\n", "benchmark",
                "machine", "thr", "lock", "htm", "hybrid");
    std::vector<ConcRow> conc_rows;
    for (const htm::MachineConfig& machine :
         htm::MachineConfig::all()) {
        for (const std::string& bench : conc_benches) {
            for (const unsigned threads : thread_counts) {
                ConcRow row;
                row.bench = bench;
                row.machine = machine.name;
                row.threads = threads;
                row.lock = runRatio(runner, bench, machine,
                                    BackendKind::globalLock, false,
                                    threads, seed);
                row.htm = runRatio(runner, bench, machine,
                                   BackendKind::htm, false, threads,
                                   seed);
                row.hybrid = runRatio(runner, bench, machine,
                                      BackendKind::hybrid, false,
                                      threads, seed);
                std::printf("%-14s %-22s %3u %8.3f %8.3f %8.3f\n",
                            bench.c_str(), machine.name.c_str(),
                            threads, row.lock, row.htm, row.hybrid);
                std::fflush(stdout);
                conc_rows.push_back(std::move(row));
            }
        }
    }

    // The acceptance check: every machine needs at least one
    // contended cell at the highest thread count where the hybrid's
    // concurrent fallback strictly beats lock-only serialization.
    unsigned machines_without_win = 0;
    std::printf("\n%-22s %10s %10s\n", "machine", "stm cost",
                "hybrid>lock");
    for (const htm::MachineConfig& machine :
         htm::MachineConfig::all()) {
        std::vector<double> slowdowns;
        for (const InstRow& row : inst_rows) {
            if (row.machine == machine.name && row.slowdown > 0.0)
                slowdowns.push_back(row.slowdown);
        }
        unsigned wins = 0;
        for (const ConcRow& row : conc_rows) {
            if (row.machine == machine.name &&
                row.threads == thread_counts.back() &&
                row.hybrid > row.lock)
                ++wins;
        }
        machines_without_win += wins == 0 ? 1 : 0;
        std::printf("%-22s %9.2fx %6u/%zu%s\n", machine.name.c_str(),
                    bench::geomean(slowdowns), wins, conc_benches.size(),
                    wins == 0 ? "  [no win]" : "");
    }

    if (!bench::writeReport(output_path, argc, argv, [&](auto& json) {
            json.field("seed", seed).key("instrumentation").beginArray();
            for (const InstRow& row : inst_rows) {
                json.beginObject()
                    .field("bench", row.bench)
                    .field("machine", row.machine)
                    .field("htm", row.htm)
                    .field("stm", row.stm)
                    .field("slowdown", row.slowdown)
                    .end();
            }
            json.end().key("concurrency").beginArray();
            for (const ConcRow& row : conc_rows) {
                json.beginObject()
                    .field("bench", row.bench)
                    .field("machine", row.machine)
                    .field("threads", row.threads)
                    .field("lock", row.lock)
                    .field("htm", row.htm)
                    .field("hybrid", row.hybrid)
                    .end();
            }
            json.end()
                .key("checks")
                .beginObject()
                .field("machines_without_hybrid_win", machines_without_win)
                .end();
        }))
        return 1;

    std::printf("\nchecks: machines without a hybrid>lock contended "
                "cell: %u -> %s\n",
                machines_without_win, output_path.c_str());
    return machines_without_win == 0 ? 0 : 1;
}
