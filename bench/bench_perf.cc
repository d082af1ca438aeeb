/**
 * @file
 * Host-time benchmark harness: the perf trajectory of the simulator
 * itself.
 *
 * Runs the paper's STAMP x machine grid (the Figure 2 cells, full
 * retry-count tuning) and measures what the other benches do not:
 * host wall-clock per cell and simulated-commit throughput (committed
 * transactions per host second), the per-access rows, and the host
 * cost of six layers: an empty commit, an abort round trip, a load
 * that hits the last-line memo, a load of a line new to the
 * transaction, a run's set-up per fiber and a fiber switch. Emits
 * machine-readable BENCH_perf.json so successive runs can compare.
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

/** A line padded past every machine's conflict and capacity line. */
struct alignas(256) PaddedLine
{
    std::uint64_t word = 1;
};

/** Loads per transaction in the access layer probes. */
constexpr unsigned accessesPerTx = 256;

/** Timed batches per layer probe; each probe reports their minimum,
 *  since interference from other tenants only ever slows a batch. */
constexpr int layerBatches = 7;
/** Untimed calls before each timed batch. */
constexpr unsigned layerWarmCalls = 64;

/** The min over layerBatches calls of @p batch(), each of which
 *  times one batch and returns its cost per operation. */
template <typename Batch>
double
bestBatch(Batch&& batch)
{
    double best = 0.0;
    for (int i = 0; i < layerBatches; ++i) {
        const double cost = batch();
        if (i == 0 || cost < best)
            best = cost;
    }
    return best;
}

/**
 * Host ns per call of @p op(runtime, ctx), the min over layerBatches
 * batches, each timing @p calls calls in one fiber of a fresh
 * one-thread Intel runtime after layerWarmCalls untimed ones (the
 * definitions of perfbench's htm.* probes). @p ok is cleared unless
 * every batch's statistics pass @p check(stats, calls made).
 */
template <typename Op, typename Check>
double
layerNs(bool batch_epoch, unsigned calls, Op&& op, Check&& check,
        bool& ok)
{
    htm::RuntimeConfig config{htm::MachineConfig::intelCore()};
    config.batchEpoch = batch_epoch;
    return bestBatch([&] {
        sim::Scheduler scheduler(1);
        htm::Runtime runtime(config, 1);
        double ns = 0.0;
        scheduler.spawn([&](sim::ThreadContext& ctx) {
            for (unsigned i = 0; i < layerWarmCalls; ++i)
                op(runtime, ctx);
            const auto start = Clock::now();
            for (unsigned i = 0; i < calls; ++i)
                op(runtime, ctx);
            ns = double(elapsedNs(start, Clock::now())) / double(calls);
        });
        scheduler.run();
        ok = ok && check(runtime.stats(), layerWarmCalls + calls);
        return ns;
    });
}

/** Fibers per scheduler in the run set-up layer: the oracle's shape. */
constexpr unsigned setupFibers = 4;

/** Schedulers per run set-up batch, after layerWarmCalls untimed
 *  ones that leave their slots warm. */
constexpr unsigned setupSchedulers = 2000;

/** Host us to spawn and run one empty fiber, setupFibers fibers per
 *  scheduler. */
double
runSetupUs()
{
    const auto run_one = [] {
        sim::Scheduler scheduler(1);
        for (unsigned f = 0; f < setupFibers; ++f)
            scheduler.spawn([](sim::ThreadContext&) {});
        scheduler.run();
    };
    return bestBatch([&] {
        for (unsigned i = 0; i < layerWarmCalls; ++i)
            run_one();
        const auto start = Clock::now();
        for (unsigned i = 0; i < setupSchedulers; ++i)
            run_one();
        return double(elapsedNs(start, Clock::now())) / 1e3 /
               double(setupSchedulers * setupFibers);
    });
}

/** Host ns per switch of two fibers ping-ponging through yieldNow(). */
double
fiberSwitchNs()
{
    constexpr unsigned yields = 50000;
    return bestBatch([] {
        sim::Scheduler scheduler(1);
        for (int f = 0; f < 2; ++f) {
            scheduler.spawn([](sim::ThreadContext& ctx) {
                for (unsigned i = 0; i < yields; ++i) {
                    ctx.advance(1);
                    ctx.yieldNow();
                }
            });
        }
        const auto start = Clock::now();
        scheduler.run();
        return double(elapsedNs(start, Clock::now())) / (2.0 * yields);
    });
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

    // Layer costs. CI bounds each layer as a ratio to the empty
    // commit: unlike either number, their ratio does not depend on the
    // runner's speed.
    bool layers_ok = true;
    const double empty_commit_ns = layerNs(
        batch, 20000,
        [](htm::Runtime& runtime, sim::ThreadContext& ctx) {
            runtime.atomic(ctx, [](htm::Tx&) {});
        },
        [](const htm::TxStats& stats, unsigned calls) {
            return stats.htmCommits == calls && stats.totalAborts() == 0;
        },
        layers_ok);
    const double abort_round_trip_ns = layerNs(
        batch, 4000,
        [](htm::Runtime& runtime, sim::ThreadContext& ctx) {
            htm::NoRetryPolicy policy;
            runtime.tryAtomic(ctx, policy,
                              [](htm::Tx& tx) { tx.abortTx(); });
        },
        [](const htm::TxStats& stats, unsigned calls) {
            return stats.totalAborts() == calls;
        },
        layers_ok);
    // The access layers take perfbench's probe shapes (256 loads of
    // one line, and of 256 distinct lines, per transaction), on lines
    // and runtimes built in one run of the region, so they time the
    // conflict directory's shadow rather than its fallback table.
    double access_memo_hit_ns = 0.0;
    double access_new_line_ns = 0.0;
    {
        sim::RunScope run;
        sim::Vector<PaddedLine> lines(accessesPerTx);
        std::uint64_t sink = 0;
        const auto all_committed = [](const htm::TxStats& stats,
                                      unsigned calls) {
            return stats.htmCommits == calls && stats.totalAborts() == 0;
        };
        access_memo_hit_ns =
            layerNs(
                batch, 1000,
                [&](htm::Runtime& runtime, sim::ThreadContext& ctx) {
                    runtime.atomic(ctx, [&](htm::Tx& tx) {
                        for (unsigned a = 0; a < accessesPerTx; ++a)
                            sink += tx.load(&lines[0].word);
                    });
                },
                all_committed, layers_ok) /
            accessesPerTx;
        access_new_line_ns =
            layerNs(
                batch, 500,
                [&](htm::Runtime& runtime, sim::ThreadContext& ctx) {
                    runtime.atomic(ctx, [&](htm::Tx& tx) {
                        for (const PaddedLine& line : lines)
                            sink += tx.load(&line.word);
                    });
                },
                all_committed, layers_ok) /
            accessesPerTx;
        layers_ok = layers_ok && sink != 0;
    }
    if (!layers_ok) {
        std::fprintf(stderr, "bench_perf: a layer probe took the wrong "
                             "path (commits/aborts off)\n");
        return 1;
    }
    const double run_setup_us = runSetupUs();
    const double fiber_switch_ns = fiberSwitchNs();
    std::printf("\nlayers: empty commit %.1f ns, abort round trip %.1f "
                "ns (%.2fx),\n        memo-hit access %.2f ns (%.3fx), "
                "new-line access %.2f ns (%.3fx),\n        run set-up "
                "%.3f us per fiber (%.2fx), fiber switch %.1f ns "
                "(%.2fx)\n",
                empty_commit_ns, abort_round_trip_ns,
                abort_round_trip_ns / empty_commit_ns, access_memo_hit_ns,
                access_memo_hit_ns / empty_commit_ns, access_new_line_ns,
                access_new_line_ns / empty_commit_ns, run_setup_us,
                run_setup_us * 1e3 / empty_commit_ns, fiber_switch_ns,
                fiber_switch_ns / empty_commit_ns);

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
            json.end()
                .key("layers")
                .beginObject()
                .field("empty_commit_ns", empty_commit_ns)
                .field("abort_round_trip_ns", abort_round_trip_ns)
                .field("access_memo_hit_ns", access_memo_hit_ns)
                .field("access_new_line_ns", access_new_line_ns)
                .field("run_setup_us", run_setup_us)
                .field("fiber_switch_ns", fiber_switch_ns)
                .end();
        }))
        return 1;

    std::printf("\ntotal %.1f ms (geomean cell %.1f ms) -> %s\n",
                double(total_ns) / 1e6, geomean_ns / 1e6,
                output_path.c_str());
    return 0;
}
