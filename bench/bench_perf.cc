/**
 * @file
 * Host-time benchmark harness: the perf trajectory of the simulator
 * itself.
 *
 * Runs the paper's STAMP x machine grid (the Figure 2 cells, full
 * retry-count tuning) and measures what the other benches do not:
 * host wall-clock per cell and simulated-commit throughput (committed
 * transactions per host second), the per-access rows, and the host
 * cost of nine layers: an empty commit, an abort round trip, a load
 * that hits the last-line memo, a load of a line new to the
 * transaction, a software-path load and commit, a rollback-only
 * commit, a run's set-up per fiber and a fiber switch. Emits
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
#include <functional>
#include <string>
#include <string_view>
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
/** Loads per transaction in the software-path load probe. */
constexpr unsigned stmLoadsPerTx = 64;

/** Timed batches per layer probe; each probe reports their minimum,
 *  since interference from other tenants only ever slows a batch. */
constexpr int layerBatches = 7;
/** Untimed calls before each timed batch. */
constexpr unsigned layerWarmCalls = 64;

/** One layer probe: batch() times one batch and returns its cost per
 *  operation; best is the minimum over the batches run so far. */
struct Layer
{
    const char* name;
    std::function<double()> batch;
    double best = 0.0;
};

/**
 * Run layerBatches batches of every layer round-robin, batch i of each
 * layer before batch i+1 of any, and keep each layer's minimum. The
 * layers are reported as ratios to the empty commit, and a busy
 * stretch of a shared host then slows one batch of every layer
 * instead of all the batches of one.
 */
void
timeLayers(std::vector<Layer>& layers)
{
    for (int i = 0; i < layerBatches; ++i) {
        for (Layer& layer : layers) {
            const double cost = layer.batch();
            if (i == 0 || cost < layer.best)
                layer.best = cost;
        }
    }
}

/**
 * Host ns per call of @p op(runtime, ctx) in one batch: @p calls calls
 * in one fiber of a fresh one-thread runtime of @p config after
 * layerWarmCalls untimed ones (the definitions of perfbench's htm.*
 * probes). @p ok is cleared unless the batch's statistics pass
 * @p check(stats, calls made).
 */
template <typename Op, typename Check>
double
layerBatch(const htm::RuntimeConfig& config, unsigned calls, Op&& op,
           Check&& check, bool& ok)
{
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
}

/** Every call committed once in hardware, none aborted. */
bool
allHtmCommits(const htm::TxStats& stats, unsigned calls)
{
    return stats.htmCommits == calls && stats.totalAborts() == 0;
}

/** Every call committed once in software, none aborted. */
bool
allStmCommits(const htm::TxStats& stats, unsigned calls)
{
    return stats.stmCommits == calls && stats.totalAborts() == 0;
}

/** Fibers per scheduler in the run set-up layer: the oracle's shape. */
constexpr unsigned setupFibers = 4;

/** Schedulers per run set-up batch, after layerWarmCalls untimed
 *  ones that leave their slots warm. */
constexpr unsigned setupSchedulers = 2000;

/** Host us to spawn and run one empty fiber, setupFibers fibers per
 *  scheduler: one batch. */
double
runSetupUs()
{
    const auto run_one = [] {
        sim::Scheduler scheduler(1);
        for (unsigned f = 0; f < setupFibers; ++f)
            scheduler.spawn([](sim::ThreadContext&) {});
        scheduler.run();
    };
    for (unsigned i = 0; i < layerWarmCalls; ++i)
        run_one();
    const auto start = Clock::now();
    for (unsigned i = 0; i < setupSchedulers; ++i)
        run_one();
    return double(elapsedNs(start, Clock::now())) / 1e3 /
           double(setupSchedulers * setupFibers);
}

/** Host ns per switch of two fibers ping-ponging through yieldNow():
 *  one batch. */
double
fiberSwitchNs()
{
    constexpr unsigned yields = 50000;
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
    htm::RuntimeConfig intel{htm::MachineConfig::intelCore()};
    intel.batchEpoch = batch;
    htm::RuntimeConfig stm_only = intel;
    stm_only.backend = htm::BackendKind::hybrid;
    stm_only.hybrid.stmOnly = true;
    htm::RuntimeConfig power8{htm::MachineConfig::power8()};
    power8.batchEpoch = batch;
    bool layers_ok = true;
    std::uint64_t sink = 0;
    // The access, software-path and rollback-only layers take
    // perfbench's probe shapes, on words and runtimes built in one run
    // of the region, so their commits and directory probes reach the
    // conflict directory's shadow rather than its fallback table.
    std::vector<Layer> layers = {
        {"empty_commit_ns",
         [&] {
             return layerBatch(
                 intel, 20000,
                 [](htm::Runtime& runtime, sim::ThreadContext& ctx) {
                     runtime.atomic(ctx, [](htm::Tx&) {});
                 },
                 allHtmCommits, layers_ok);
         }},
        {"abort_round_trip_ns",
         [&] {
             return layerBatch(
                 intel, 4000,
                 [](htm::Runtime& runtime, sim::ThreadContext& ctx) {
                     htm::NoRetryPolicy policy;
                     runtime.tryAtomic(ctx, policy,
                                       [](htm::Tx& tx) { tx.abortTx(); });
                 },
                 [](const htm::TxStats& stats, unsigned calls) {
                     return stats.totalAborts() == calls;
                 },
                 layers_ok);
         }},
        {"access_memo_hit_ns",
         [&] {
             // 256 loads of one line per transaction.
             sim::RunScope run;
             sim::Vector<PaddedLine> lines(1);
             return layerBatch(
                        intel, 1000,
                        [&](htm::Runtime& runtime,
                            sim::ThreadContext& ctx) {
                            runtime.atomic(ctx, [&](htm::Tx& tx) {
                                for (unsigned a = 0; a < accessesPerTx;
                                     ++a)
                                    sink += tx.load(&lines[0].word);
                            });
                        },
                        allHtmCommits, layers_ok) /
                    accessesPerTx;
         }},
        {"access_new_line_ns",
         [&] {
             // Loads of 256 distinct lines per transaction.
             sim::RunScope run;
             sim::Vector<PaddedLine> lines(accessesPerTx);
             return layerBatch(
                        intel, 500,
                        [&](htm::Runtime& runtime,
                            sim::ThreadContext& ctx) {
                            runtime.atomic(ctx, [&](htm::Tx& tx) {
                                for (const PaddedLine& line : lines)
                                    sink += tx.load(&line.word);
                            });
                        },
                        allHtmCommits, layers_ok) /
                    accessesPerTx;
         }},
        {"stm_load_ns",
         [&] {
             // 64 loads of adjacent words per software transaction.
             sim::RunScope run;
             sim::Vector<std::uint64_t> words(stmLoadsPerTx, 1);
             return layerBatch(
                        stm_only, 1000,
                        [&](htm::Runtime& runtime,
                            sim::ThreadContext& ctx) {
                            runtime.atomic(ctx, [&](htm::Tx& tx) {
                                for (const std::uint64_t& word : words)
                                    sink += tx.load(&word);
                            });
                        },
                        allStmCommits, layers_ok) /
                    stmLoadsPerTx;
         }},
        {"stm_commit_ns",
         [&] {
             // One store per software transaction.
             sim::RunScope run;
             sim::Vector<std::uint64_t> words(1, 1);
             return layerBatch(
                 stm_only, 20000,
                 [&](htm::Runtime& runtime, sim::ThreadContext& ctx) {
                     runtime.atomic(ctx, [&](htm::Tx& tx) {
                         tx.store(&words[0], std::uint64_t(7));
                     });
                 },
                 allStmCommits, layers_ok);
         }},
        {"rot_commit_ns",
         [&] {
             // One store per POWER8 rollback-only transaction.
             sim::RunScope run;
             sim::Vector<std::uint64_t> words(1, 1);
             return layerBatch(
                 power8, 20000,
                 [&](htm::Runtime& runtime, sim::ThreadContext& ctx) {
                     runtime.rollbackOnly(ctx, [&](htm::Tx& tx) {
                         tx.store(&words[0], std::uint64_t(7));
                     });
                 },
                 allHtmCommits, layers_ok);
         }},
        {"run_setup_us", runSetupUs},
        {"fiber_switch_ns", fiberSwitchNs},
    };
    timeLayers(layers);
    if (!layers_ok || sink == 0) {
        std::fprintf(stderr, "bench_perf: a layer probe took the wrong "
                             "path (commits/aborts off)\n");
        return 1;
    }
    const double empty_commit_ns = layers[0].best;
    std::printf("\nlayers (ratio to the empty commit):\n");
    for (const Layer& layer : layers) {
        const bool us = std::string_view(layer.name).ends_with("_us");
        std::printf("  %-20s %9.3f %s %7.3fx\n", layer.name, layer.best,
                    us ? "us" : "ns",
                    layer.best * (us ? 1e3 : 1.0) / empty_commit_ns);
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
            json.end()
                .key("layers")
                .beginObject();
            for (const Layer& layer : layers)
                json.field(layer.name, layer.best);
            json.end();
        }))
        return 1;

    std::printf("\ntotal %.1f ms (geomean cell %.1f ms) -> %s\n",
                double(total_ns) / 1e6, geomean_ns / 1e6,
                output_path.c_str());
    return 0;
}
