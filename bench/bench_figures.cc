/**
 * @file
 * Every table and figure of the paper, the backend comparison, the
 * STAMP ablations, the hazard sweep and the hybrid-TM bounds, from one
 * pass whose every run is verified.
 *
 * Figures 2, 3, 4, 5, 7, 10 and 11, the backend table and the
 * ablations read the same tuned runs, so each distinct run happens
 * once and a cell that appears in several tables prints the same
 * number in each. The runs are:
 *  - the modified apps at 1/2/4/8/16 threads on every machine that
 *    has that many hardware threads, retry counts (and the Blue
 *    Gene/Q mode) re-tuned per point (Figure 5; its 4-thread column
 *    is Figure 2, Figure 3, Figure 4's "modified" column, Figure 7's
 *    RTM column, the backend table's htm column, the prefetcher
 *    ablation's "on" rows and the retry ablation's three-counter
 *    rows);
 *  - the original variants of the six apps the paper changed, at 4
 *    threads (Figure 4);
 *  - HLE on Intel Core, 4 threads, untuned (Figure 7);
 *  - one traced single-thread run per (app, machine) with capacity
 *    limits off, mapping accesses to the machine's lines, as the
 *    paper's STM-based trace tool did (Figures 10 and 11);
 *  - the lock, ideal and hybrid backends at 4 threads, tuned like the
 *    htm cells (the backend table);
 *  - the runs only an ablation makes, where its table prints: Intel
 *    Core's prefetcher off on kmeans-high/-low, tuned (Section 5.1);
 *    one shared retry budget of 2, 4, 8 or 16 on Intel vacation-high
 *    and yada (Section 3); the three conflict policies on Intel
 *    intruder; and Blue Gene/Q's two modes on kmeans-high and genome.
 *
 * Then the sections with runs of their own, each printed as it runs:
 *  - Table 1, the machines' configuration;
 *  - the Section 2.3 capacity knees, found by growing a single
 *    thread's footprint until capacity aborts appear;
 *  - Figure 6, the zEC12 queue variants against the lock-free one;
 *  - Figure 9, POWER8 TLS with and without suspend/resume;
 *  - the hazard sweep: vacation-low at 4 threads under each machine's
 *    default and the hardened retry policy, over spurious-abort rates
 *    from 0 to 0.25;
 *  - the hybrid-TM bounds: the software path's single-thread
 *    instrumentation cost, and lock / htm / hybrid speed-ups at 1, 2
 *    and 4 threads on four contended apps, all at the machine's
 *    default retry configuration. The 4-thread lock cells are the
 *    backend table's: the lock backend reads no retry count.
 *
 * bayes is excluded from Figure 2's geomean and from Figures 10/11
 * (non-deterministic behaviour, as in the paper). The backend table
 * and the hybrid charts are written to BENCH_figures.json (`-o
 * PATH`). Exits nonzero if any run fails its check, or if a machine
 * has no contended cell where the hybrid beats the lock (Brown &
 * Ravi's claim for a concurrent slow path).
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "check/cli.hh"
#include "clq/concurrent_queue.hh"
#include "report.hh"
#include "sim/region.hh"
#include "sim/sim.hh"
#include "tls/tls.hh"

using namespace htmsim;
using namespace htmsim::bench;
using htm::BackendKind;

namespace
{

constexpr std::array<unsigned, 5> kThreadCounts = {1, 2, 4, 8, 16};
/** kThreadCounts index of the 4-thread point most figures use. */
constexpr std::size_t kFourThreads = 2;
constexpr unsigned kBgq = 0;
constexpr unsigned kIntel = 2;

/** The apps the paper modified (Figure 4). */
bool
wasChanged(const std::string& bench)
{
    static const std::vector<std::string> changed = {
        "genome",        "intruder",      "kmeans-high",
        "kmeans-low",    "vacation-high", "vacation-low"};
    return std::find(changed.begin(), changed.end(), bench) !=
           changed.end();
}

/** Index of @p bench in suiteNames(). */
std::size_t
appIndex(const std::string& bench)
{
    const std::vector<std::string>& names = suiteNames();
    return std::size_t(std::find(names.begin(), names.end(), bench) -
                       names.begin());
}

/** A cell's tuned 4-thread speed-up under each backend. */
struct BackendRow
{
    double htm = 0.0;
    double lock = 0.0;
    double ideal = 0.0;
    double hybrid = 0.0;
};

/** Every result one app contributes to the tables. */
struct AppCells
{
    /** Modified app, [machine][thread-count index]. */
    Speedup scaling[4][kThreadCounts.size()];
    /** Original variant at 4 threads (changed apps only). */
    Speedup original[4];
    /** HLE on Intel Core at 4 threads. */
    Speedup hle;
    /** 90th-percentile transactional footprints, bytes. */
    double load90[4] = {};
    double store90[4] = {};
    /** The backend table's row per machine. */
    BackendRow backends[4];

    const Speedup& fourThreads(unsigned m) const
    {
        return scaling[m][kFourThreads];
    }
};

double
geomean(double product, unsigned count)
{
    return std::pow(product, 1.0 / count);
}

/** Figures 10/11: one footprint row per (app, machine). */
void
printFootprint(const std::vector<AppCells>& apps, bool load)
{
    for (std::size_t b = 0; b < apps.size(); ++b) {
        const std::string& bench = suiteNames()[b];
        if (bench == "bayes")
            continue;
        for (unsigned m = 0; m < 4; ++m) {
            const MachineConfig& machine = MachineConfig::all()[m];
            const double bytes =
                load ? apps[b].load90[m] : apps[b].store90[m];
            const std::size_t capacity = load
                                             ? machine.loadCapacityBytes
                                             : machine.storeCapacityBytes;
            // Figure 11's columns are one character wider.
            const int wide = load ? 0 : 1;
            std::printf("%-14s %-4s %*.2f %10.1f %*zu KB%s\n",
                        bench.c_str(), machineLabel(m), 12 + wide,
                        bytes / 1024.0,
                        apps[b].fourThreads(m).tm.stats.abortRatio() *
                            100.0,
                        11 + wide, capacity >> 10,
                        bytes > double(capacity) ? "  << OVER" : "");
        }
    }
}

/** Counts every run of the pass and the runs that fail their check. */
struct Verification
{
    unsigned runs = 0;
    unsigned failed = 0;

    /** Count one run, naming it on stderr when @p ok is false. */
    void
    record(bool ok, const std::string& what)
    {
        ++runs;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "%s failed verification!\n",
                         what.c_str());
        }
    }

    /** Count a STAMP cell: both its runs must pass the app's verify. */
    Speedup
    check(Speedup result, const std::string& bench,
          const MachineConfig& machine, const char* what)
    {
        record(result.tm.valid && result.seq.valid,
               bench + " on " + machine.name + " (" + what + ")");
        return result;
    }
};

/**
 * @p bytes as a table cell. A configured budget (Table 1) prints in
 * the largest of MB and KB that divides it; a @p measured size (a
 * capacity knee) prints in KB to one decimal. Anything else prints in
 * bytes.
 */
std::string
formatBytes(std::size_t bytes, bool measured)
{
    constexpr std::size_t kb = 1024;
    char out[32];
    if (measured && bytes >= kb)
        std::snprintf(out, sizeof out, "%.1f KB", double(bytes) / kb);
    else if (!measured && bytes >= kb * kb && bytes % (kb * kb) == 0)
        std::snprintf(out, sizeof out, "%zu MB", bytes / (kb * kb));
    else if (!measured && bytes >= kb && bytes % kb == 0)
        std::snprintf(out, sizeof out, "%zu KB", bytes / kb);
    else
        std::snprintf(out, sizeof out, "%zu B", bytes);
    return out;
}

/** Table 1: the HTM implementation characteristics of the machines. */
void
printTable1()
{
    const auto& machines = MachineConfig::all();
    const MachineConfig& bg = machines[0];
    const MachineConfig& z12 = machines[1];
    const MachineConfig& ic = machines[2];
    const MachineConfig& p8 = machines[3];
    const auto bytes_row = [&](const char* label,
                               std::size_t MachineConfig::*budget) {
        std::printf("%-28s %-22s %-14s %-14s %-10s\n", label,
                    formatBytes(bg.*budget, false).c_str(),
                    formatBytes(z12.*budget, false).c_str(),
                    formatBytes(ic.*budget, false).c_str(),
                    formatBytes(p8.*budget, false).c_str());
    };

    std::printf("\nTable 1: HTM implementations\n");
    std::printf("%-28s %-22s %-14s %-14s %-10s\n", "Processor type",
                bg.name.c_str(), z12.name.c_str(), "Core i7-4770",
                p8.name.c_str());
    std::printf("%-28s %-22s %-14s %-14s %-10s\n",
                "Conflict granularity", "8 - 128 bytes", "256 bytes",
                "64 bytes", "128 bytes");
    bytes_row("Tx-load capacity", &MachineConfig::loadCapacityBytes);
    bytes_row("Tx-store capacity", &MachineConfig::storeCapacityBytes);
    std::printf("%-28s %-22s %-14s %-14s %-10s\n", "L1 data cache",
                bg.l1Description.c_str(), z12.l1Description.c_str(),
                ic.l1Description.c_str(), p8.l1Description.c_str());
    std::printf("%-28s %-22s %-14s %-14s %-10s\n", "L2 data cache",
                bg.l2Description.c_str(), z12.l2Description.c_str(),
                ic.l2Description.c_str(), p8.l2Description.c_str());
    std::printf("%-28s %-22u %-14s %-14u %-10u\n", "SMT level",
                bg.smtWays, "None", ic.smtWays, p8.smtWays);
    std::printf("%-28s %-22s %-14u %-14u %-10u\n",
                "Kinds of abort reasons", "-", z12.abortReasonKinds,
                ic.abortReasonKinds, p8.abortReasonKinds);
    std::printf("%-28s %-22u %-14u %-14u %-10u\n", "Physical cores",
                bg.numCores, z12.numCores, ic.numCores, p8.numCores);
    std::printf("%-28s %-22.1f %-14.1f %-14.1f %-10.1f\n",
                "Clock (GHz, informational)", bg.clockGhz, z12.clockGhz,
                ic.clockGhz, p8.clockGhz);
}

/**
 * Section 2.3: the smallest footprint (bytes) at which a
 * single-threaded transaction of loads (or of @p stores) takes a
 * capacity abort, or 0 if none in the tested range does.
 */
std::size_t
findKnee(const MachineConfig& machine, bool stores)
{
    // One word per capacity line, far more lines than any budget;
    // the whole search is one run of the simulated heap.
    const std::size_t max_lines =
        machine.loadCapacityLines() * 2 + 64;
    sim::RunScope run;
    sim::Vector<std::uint64_t> data(
        max_lines * machine.capacityLineBytes / 8, 0);
    const std::size_t words_per_line = machine.capacityLineBytes / 8;

    std::size_t low = 1;
    std::size_t high = max_lines;
    // Binary search over footprints for the first aborting size.
    // The paper looked specifically for *capacity-overflow* aborts;
    // transient aborts (zEC12's cache-fetch events) are retried.
    auto aborts_at = [&](std::size_t lines) {
        RuntimeConfig config{machine};
        // The paper measured "frequency changes in the capacity-
        // overflow aborts", statistically separating them from
        // transient aborts; here the transient source is simply off.
        config.machine.cacheFetchAbortProb = 0.0;
        sim::Scheduler scheduler;
        htm::Runtime runtime(config, 1);
        bool capacity_abort = false;
        scheduler.spawn([&](sim::ThreadContext& ctx) {
            for (int attempt = 0; attempt < 16; ++attempt) {
                const htm::AbortCause cause =
                    runtime.tryOnce(ctx, [&](htm::Tx& tx) {
                        for (std::size_t line = 0; line < lines;
                             ++line) {
                            if (stores) {
                                tx.store(
                                    &data[line * words_per_line],
                                    std::uint64_t(line));
                            } else {
                                (void)tx.load(
                                    &data[line * words_per_line]);
                            }
                        }
                    });
                if (cause == htm::AbortCause::none)
                    return;
                if (cause == htm::AbortCause::capacityOverflow ||
                    cause == htm::AbortCause::wayConflict) {
                    capacity_abort = true;
                    return;
                }
                // Transient abort: retry, as the paper did.
            }
        });
        scheduler.run();
        return capacity_abort;
    };

    if (!aborts_at(high))
        return 0;
    while (low < high) {
        const std::size_t mid = (low + high) / 2;
        if (aborts_at(mid))
            high = mid;
        else
            low = mid + 1;
    }
    return low * machine.capacityLineBytes;
}

/** Section 2.3's knees; a search that finds none fails. */
void
printCapacityKnees(Verification& verify)
{
    std::printf("\nSection 2.3 microbenchmark: measured capacity knees "
                "(single thread)\n");
    std::printf("%-20s %18s %18s\n", "machine", "load knee",
                "store knee");
    for (const MachineConfig& machine : MachineConfig::all()) {
        const auto knee = [&](bool stores) {
            const std::size_t bytes = findKnee(machine, stores);
            verify.record(bytes != 0, machine.name +
                                          (stores ? " store" : " load") +
                                          " knee search");
            return bytes == 0 ? std::string("> tested range")
                              : formatBytes(bytes, true);
        };
        const std::string load = knee(false);
        const std::string store = knee(true);
        std::printf("%-20s %18s %18s\n", machine.name.c_str(),
                    load.c_str(), store.c_str());
    }
    std::printf(
        "\nExpected: the knee sits one line beyond each configured "
        "budget (the\nglobal-lock subscription word occupies one "
        "line), reproducing the\npaper's 4 MB / 22 KB Intel "
        "measurement methodology. Intel's store knee\ncan appear "
        "earlier when the walked lines collide in one L1 set\n"
        "(way-conflict evictions).\n");
}

/**
 * Figure 6's run: 1600 enqueue/dequeue pairs split over @p threads on
 * zEC12, seed 1, each thread alternately enqueuing and dequeuing.
 * Returns the cycles between the start and end barriers. The run
 * fails unless every dequeue finds an element and the queue ends
 * empty.
 */
double
runQueue(clq::QueueMode mode, unsigned threads, int retries,
         Verification& verify)
{
    RuntimeConfig config{MachineConfig::zEC12()};
    sim::RunScope run;
    sim::Scheduler scheduler(1);
    htm::Runtime runtime(config, threads);
    const auto queue = sim::make<clq::ConcurrentQueue>();
    sim::Barrier barrier(threads);
    sim::Cycles start = 0;
    sim::Cycles finish = 0;
    bool dequeued_all = true;
    constexpr unsigned total_pairs = 1600;

    for (unsigned t = 0; t < threads; ++t) {
        scheduler.spawn([&, threads](sim::ThreadContext& ctx) {
            const unsigned share = total_pairs / threads;
            barrier.arrive(ctx);
            if (ctx.id() == 0)
                start = ctx.now();
            for (unsigned i = 0; i < share; ++i) {
                queue->enqueue(runtime, ctx, ctx.id() * 1000 + i, mode,
                               retries);
                std::uint64_t out = 0;
                if (!queue->dequeue(runtime, ctx, &out, mode, retries))
                    dequeued_all = false;
            }
            barrier.arrive(ctx);
            if (ctx.id() == 0)
                finish = ctx.now();
        });
    }
    scheduler.run();
    verify.record(dequeued_all && queue->sizeHost() == 0,
                  "Figure 6 queue at " + std::to_string(threads) +
                      " threads");
    return double(finish - start);
}

/**
 * Figure 6: the TM variants of the concurrent linked queue against
 * the lock-free baseline on zEC12, 1-16 threads. NoRetryTM makes one
 * attempt before the lock-free fallback, OptRetryTM the best of four
 * retry counts, and ConstrainedTM uses zEC12's constrained
 * transactions (guaranteed commit, no handler).
 */
void
printFigure6(Verification& verify)
{
    std::printf("\nFigure 6: ConcurrentLinkedQueue on zEC12 — execution "
                "time relative to the\nlock-free baseline (lower is "
                "better)\n");
    std::printf("%-8s %12s %12s %14s\n", "threads", "NoRetryTM",
                "OptRetryTM", "ConstrainedTM");
    for (const unsigned threads : {1u, 2u, 4u, 8u, 16u}) {
        const auto cycles = [&](clq::QueueMode mode, int retries) {
            return runQueue(mode, threads, retries, verify);
        };
        const double base = cycles(clq::QueueMode::lockFree, 0);
        const double no_retry = cycles(clq::QueueMode::noRetryTm, 1);
        // OptRetryTM: pick the best retry count (the paper tunes it).
        double opt_retry = cycles(clq::QueueMode::optRetryTm, 2);
        for (const int retries : {4, 8, 16}) {
            opt_retry = std::min(
                opt_retry, cycles(clq::QueueMode::optRetryTm, retries));
        }
        const double constrained =
            cycles(clq::QueueMode::constrainedTm, 0);
        std::printf("%-8u %12.2f %12.2f %14.2f\n", threads,
                    no_retry / base, opt_retry / base,
                    constrained / base);
    }
    std::printf(
        "\nPaper shape: TM variants beat the lock-free baseline below "
        "~4 threads\n(shorter path); NoRetryTM degrades beyond 2 "
        "threads; ConstrainedTM tracks\nOptRetryTM without any "
        "fallback code or tuning.\n");
}

/** Figure 9's rows for one kernel; a run whose result is wrong fails. */
void
printTlsKernel(const char* name, const tls::TlsParams& params,
               Verification& verify)
{
    std::printf("%s\n", name);
    std::printf("  %-8s %18s %18s\n", "threads", "without susp/res",
                "with susp/res");
    const RuntimeConfig config{MachineConfig::power8()};
    const double seq =
        double(tls::TlsKernel(params).runSequential(config.machine, 1));
    for (const unsigned threads : {1u, 2u, 3u, 4u, 5u, 6u}) {
        const auto run = [&](bool suspend_resume) {
            const tls::TlsResult result =
                tls::TlsKernel(params).runTls(config, threads,
                                              suspend_resume, 1);
            verify.record(result.valid,
                          std::string(name) + " at " +
                              std::to_string(threads) + " threads");
            return result;
        };
        const tls::TlsResult without = run(false);
        const tls::TlsResult with = run(true);
        std::printf("  %-8u %10.2f (%4.1f%%) %10.2f (%4.1f%%)\n",
                    threads, seq / double(without.cycles),
                    without.abortRatio * 100.0,
                    seq / double(with.cycles), with.abortRatio * 100.0);
    }
    std::printf("  (abort ratios in parentheses)\n\n");
}

/**
 * Figure 9: TLS speed-up over sequential on POWER8, 1-6 threads, with
 * and without the suspend/resume instructions.
 */
void
printFigure9(Verification& verify)
{
    std::printf(
        "\nFigure 9: TLS on POWER8 — speed-up over sequential\n\n");
    printTlsKernel("433.milc-like kernel", tls::TlsParams::milcLike(),
                   verify);
    printTlsKernel("482.sphinx3-like kernel",
                   tls::TlsParams::sphinxLike(), verify);
    std::printf(
        "Paper shape: suspend/resume cuts the sphinx3 abort ratio "
        "from ~69%% to\n~0.1%% and adds ~12%% speed-up; milc keeps "
        "~10%% residual false conflicts\nand gains only ~2%%.\n");
}

/**
 * Throughput under deterministic hazard injection (src/htm/hazard.hh):
 * vacation-low (mid-size transactions, real contention) at 4 threads,
 * seed 1, on every machine under its paper-default and the hardened
 * retry policy, sweeping the spurious transient-abort probability over
 * the paper-relevant 0..1e-2 plus two collapse points far past it.
 * The default policies degrade gracefully in range; the hardened
 * policy's watchdog bounds what a hazard storm can burn before the
 * fallback lock restores progress.
 */
void
printHazardSweep(const SuiteRunner& runner, Verification& verify)
{
    const char* bench = "vacation-low";
    const double rates[] = {0.0, 1e-5, 1e-4, 1e-3, 1e-2, 0.05, 0.25};

    std::printf("\nThroughput vs spurious-abort rate "
                "(%s, 4 threads, seed 1)\n",
                bench);
    for (const MachineConfig& machine : MachineConfig::all()) {
        for (const auto& [kind, policy_name] :
             {std::pair{htm::RetryPolicyKind::machineDefault,
                        "default"},
              std::pair{htm::RetryPolicyKind::hardened, "hardened"}}) {
            std::printf("\n%s, %s policy\n", machine.name.c_str(),
                        policy_name);
            std::printf("| %8s | %8s | %7s | %7s | %7s | %9s |\n",
                        "rate", "speed-up", "abort%", "serial%",
                        "waste%", "hzd-abrts");
            std::printf("|---------:|---------:|--------:|--------:|"
                        "--------:|----------:|\n");
            for (const double rate : rates) {
                RuntimeConfig config{machine};
                config.policyKind = kind;
                config.hazard.enabled = rate != 0.0;
                config.hazard.spuriousAbortProb = rate;
                const Speedup result = verify.check(
                    runner.run(bench, config, machine, 4, true, 1),
                    bench, machine, "hazard sweep");
                const htm::TxStats& stats = result.tm.stats;
                // Two significant digits name each rate exactly.
                std::printf("| %8.2g | %8.2f | %6.1f%% | %6.1f%% | "
                            "%6.1f%% | %9llu |\n",
                            rate, result.ratio,
                            stats.abortRatio() * 100.0,
                            stats.serializationRatio() * 100.0,
                            stats.wastedWorkRatio() * 100.0,
                            (unsigned long long) stats.hazardAborts());
            }
        }
    }
}

/** A cell of the hybrid instrumentation chart (1 thread). */
struct InstrumentationRow
{
    std::string bench;
    unsigned machine = 0;
    double htm = 0.0;
    double stm = 0.0;
    double slowdown = 0.0;
};

/** A cell of the hybrid concurrency chart. */
struct ConcurrencyRow
{
    std::string bench;
    unsigned machine = 0;
    unsigned threads = 0;
    double lock = 0.0;
    double htm = 0.0;
    double hybrid = 0.0;
};

/** The hybrid-TM bounds' two charts and their gate. */
struct HybridCharts
{
    std::vector<InstrumentationRow> instrumentation;
    std::vector<ConcurrencyRow> concurrency;
    /** Machines with no contended 4-thread cell where hybrid > lock. */
    unsigned machinesWithoutWin = 0;
};

/**
 * The two charts the hybrid-TM literature frames the design space
 * with (EXPERIMENTS.md "Hybrid TM bounds"):
 *  1. Instrumentation cost: single-thread slowdown of the pure
 *     software path (hybrid, stmOnly) against pure hardware, the
 *     per-access orec and write-buffer bookkeeping Alistarh et al.
 *     ("Inherent Limitations of Hybrid TM") say no hybrid can hide.
 *  2. Concurrency: speed-up against thread count on contended apps
 *     for the global lock, best-effort HTM and the hybrid. Brown &
 *     Ravi ("On the Cost of Concurrency in Hybrid TM") claim the
 *     hybrid's fallbacks still run concurrently, so each machine must
 *     have a contended cell where it beats the lock.
 * Every run uses the machine's default retry configuration: both
 * charts are about backend structure, not retry-budget luck. The
 * 4-thread lock cells come from @p apps' backend table.
 */
HybridCharts
printHybridCharts(const SuiteRunner& runner,
                  const std::vector<AppCells>& apps,
                  const std::string& output_path, Verification& verify)
{
    // A read-leaning / write-leaning / allocation-heavy spread keeps
    // the instrumentation geomean honest without running all ten.
    const std::vector<std::string> inst_benches = {
        "genome", "kmeans-low", "ssca2", "vacation-low"};
    // The contended cells: high conflict (intruder, yada) and high
    // capacity pressure (labyrinth, vacation-high) — where fallbacks
    // actually happen and the fallback's concurrency matters.
    const std::vector<std::string> conc_benches = {
        "intruder", "labyrinth", "vacation-high", "yada"};
    const auto ratio = [&](const std::string& bench,
                           const MachineConfig& machine,
                           BackendKind backend, bool stm_only,
                           unsigned threads) {
        RuntimeConfig config{machine};
        config.backend = backend;
        config.hybrid.stmOnly = stm_only;
        return verify
            .check(runner.run(bench, config, machine, threads, true, 1),
                   bench, machine, htm::backendKindName(backend))
            .ratio;
    };
    HybridCharts charts;

    std::printf("\n-- instrumentation cost (1 thread, stm-only vs "
                "htm) --\n");
    std::printf("%-14s %-22s %8s %8s %10s\n", "benchmark", "machine",
                "htm", "stm", "slowdown");
    for (unsigned m = 0; m < 4; ++m) {
        const MachineConfig& machine = MachineConfig::all()[m];
        for (const std::string& bench : inst_benches) {
            InstrumentationRow row{bench, m};
            row.htm = ratio(bench, machine, BackendKind::htm, false, 1);
            row.stm =
                ratio(bench, machine, BackendKind::hybrid, true, 1);
            row.slowdown = row.stm > 0.0 ? row.htm / row.stm : 0.0;
            std::printf("%-14s %-22s %8.3f %8.3f %9.2fx\n",
                        bench.c_str(), machine.name.c_str(), row.htm,
                        row.stm, row.slowdown);
            charts.instrumentation.push_back(row);
        }
    }

    std::printf("\n-- concurrency (speed-up vs threads, contended "
                "cells) --\n");
    std::printf("%-14s %-22s %3s %8s %8s %8s\n", "benchmark",
                "machine", "thr", "lock", "htm", "hybrid");
    for (unsigned m = 0; m < 4; ++m) {
        const MachineConfig& machine = MachineConfig::all()[m];
        for (const std::string& bench : conc_benches) {
            for (const unsigned threads : {1u, 2u, 4u}) {
                ConcurrencyRow row{bench, m, threads};
                row.lock = threads == 4
                               ? apps[appIndex(bench)].backends[m].lock
                               : ratio(bench, machine,
                                       BackendKind::globalLock, false,
                                       threads);
                row.htm = ratio(bench, machine, BackendKind::htm, false,
                                threads);
                row.hybrid = ratio(bench, machine, BackendKind::hybrid,
                                   false, threads);
                std::printf("%-14s %-22s %3u %8.3f %8.3f %8.3f\n",
                            bench.c_str(), machine.name.c_str(),
                            threads, row.lock, row.htm, row.hybrid);
                charts.concurrency.push_back(row);
            }
        }
    }

    // The gate: every machine needs at least one contended cell at 4
    // threads where the hybrid's concurrent fallback strictly beats
    // lock-only serialization.
    std::printf("\n%-22s %10s %10s\n", "machine", "stm cost",
                "hybrid>lock");
    for (unsigned m = 0; m < 4; ++m) {
        std::vector<double> slowdowns;
        for (const InstrumentationRow& row : charts.instrumentation) {
            if (row.machine == m && row.slowdown > 0.0)
                slowdowns.push_back(row.slowdown);
        }
        unsigned wins = 0;
        for (const ConcurrencyRow& row : charts.concurrency) {
            if (row.machine == m && row.threads == 4 &&
                row.hybrid > row.lock)
                ++wins;
        }
        charts.machinesWithoutWin += wins == 0 ? 1 : 0;
        std::printf("%-22s %9.2fx %6u/%zu%s\n",
                    MachineConfig::all()[m].name.c_str(),
                    bench::geomean(slowdowns), wins, conc_benches.size(),
                    wins == 0 ? "  [no win]" : "");
    }
    std::printf("\nchecks: machines without a hybrid>lock contended "
                "cell: %u -> %s\n",
                charts.machinesWithoutWin, output_path.c_str());
    return charts;
}

/** The hybrid charts' report members, into an open object. */
void
writeHybrid(prof::JsonWriter& json, const HybridCharts& charts)
{
    json.field("seed", std::uint64_t(1)).key("instrumentation").beginArray();
    for (const InstrumentationRow& row : charts.instrumentation) {
        json.beginObject()
            .field("bench", row.bench)
            .field("machine", MachineConfig::all()[row.machine].name)
            .field("htm", row.htm)
            .field("stm", row.stm)
            .field("slowdown", row.slowdown)
            .end();
    }
    json.end().key("concurrency").beginArray();
    for (const ConcurrencyRow& row : charts.concurrency) {
        json.beginObject()
            .field("bench", row.bench)
            .field("machine", MachineConfig::all()[row.machine].name)
            .field("threads", row.threads)
            .field("lock", row.lock)
            .field("htm", row.htm)
            .field("hybrid", row.hybrid)
            .end();
    }
    json.end()
        .key("checks")
        .beginObject()
        .field("machines_without_hybrid_win", charts.machinesWithoutWin)
        .end();
}

} // namespace

int
main(int argc, char** argv)
{
    std::string output_path = "BENCH_figures.json";
    cli::Args args(argc, argv);
    while (args.next()) {
        if (args.is("-o"))
            output_path = args.value();
        else
            args.unknown();
    }
    const SuiteRunner runner;
    const MachineConfig& bgq = MachineConfig::all()[kBgq];
    const MachineConfig& intel = MachineConfig::all()[kIntel];
    Verification verify;

    std::vector<AppCells> apps(suiteNames().size());
    for (std::size_t b = 0; b < apps.size(); ++b) {
        const std::string& bench = suiteNames()[b];
        AppCells& cells = apps[b];
        for (unsigned m = 0; m < 4; ++m) {
            const MachineConfig& machine = MachineConfig::all()[m];
            for (std::size_t t = 0; t < kThreadCounts.size(); ++t) {
                if (kThreadCounts[t] <= machine.maxThreads()) {
                    cells.scaling[m][t] = verify.check(
                        runner.measure(bench, machine, kThreadCounts[t]),
                        bench, machine, "modified");
                }
            }
            if (wasChanged(bench)) {
                cells.original[m] = verify.check(
                    runner.measure(bench, machine, 4, false), bench,
                    machine, "original");
            }
            if (bench != "bayes") {
                RuntimeConfig traced{machine};
                traced.collectTrace = true;
                traced.ignoreCapacity = true;
                const Speedup trace_run = verify.check(
                    runner.run(bench, traced, machine, 1, true, 1), bench,
                    machine, "traced");
                const htm::TraceCollector& trace = trace_run.tm.trace;
                cells.load90[m] = trace.loadPercentileBytes(
                    0.90, machine.capacityLineBytes);
                cells.store90[m] = trace.storePercentileBytes(
                    0.90, machine.capacityLineBytes);
            }
            // The backend table's row; its htm column is Figure 2's.
            const auto tuned = [&](htm::BackendKind backend) {
                const Speedup result =
                    runner
                        .tune(bench, machine, 4,
                              [&](RuntimeConfig& config) {
                                  config.backend = backend;
                              })
                        .result;
                return verify
                    .check(result, bench, machine,
                           htm::backendKindName(backend))
                    .ratio;
            };
            cells.backends[m] = {cells.fourThreads(m).ratio,
                                 tuned(htm::BackendKind::globalLock),
                                 tuned(htm::BackendKind::idealHtm),
                                 tuned(htm::BackendKind::hybrid)};
        }
        cells.hle = verify.check(runner.measureHle(bench, intel, 4),
                                 bench, intel, "HLE");
    }

    // ---- Figure 2 ---------------------------------------------------
    std::printf("Figure 2: 4-thread speed-up over sequential "
                "(modified STAMP, tuned retry counts)\n");
    std::printf("%-14s %8s %8s %8s %8s\n", "benchmark", "BG", "z12",
                "IC", "P8");
    double fig2_product[4] = {1.0, 1.0, 1.0, 1.0};
    unsigned fig2_counted = 0;
    for (std::size_t b = 0; b < apps.size(); ++b) {
        const std::string& bench = suiteNames()[b];
        double ratios[4];
        for (unsigned m = 0; m < 4; ++m)
            ratios[m] = apps[b].fourThreads(m).ratio;
        std::printf("%-14s %8.2f %8.2f %8.2f %8.2f\n", bench.c_str(),
                    ratios[0], ratios[1], ratios[2], ratios[3]);
        if (bench != "bayes") {
            for (unsigned m = 0; m < 4; ++m)
                fig2_product[m] *= ratios[m];
            ++fig2_counted;
        }
    }
    std::printf("%-14s %8.2f %8.2f %8.2f %8.2f   (excl. bayes)\n",
                "geomean", geomean(fig2_product[0], fig2_counted),
                geomean(fig2_product[1], fig2_counted),
                geomean(fig2_product[2], fig2_counted),
                geomean(fig2_product[3], fig2_counted));
    std::printf("\nPaper shape: no machine wins everywhere; zEC12 has "
                "the best geomean;\nBlue Gene/Q trails from "
                "single-thread overhead but leads yada; POWER8\nis "
                "capacity-bound in intruder/vacation/yada; labyrinth "
                "~1 for all.\n");

    // ---- Figure 3 ---------------------------------------------------
    std::printf("\nFigure 3: 4-thread transaction-abort ratios (%%), "
                "modified STAMP\n");
    std::printf("%-14s %-4s %7s | %6s %6s %6s %6s %6s | %6s\n",
                "benchmark", "mach", "abort%", "cap", "data", "other",
                "lock", "uncl", "serl%");
    for (std::size_t b = 0; b < apps.size(); ++b) {
        for (unsigned m = 0; m < 4; ++m) {
            const htm::TxStats& stats = apps[b].fourThreads(m).tm.stats;
            const double abort_pct = stats.abortRatio() * 100.0;
            auto share = [&](htm::AbortCategory category) {
                return stats.reportedFraction(category) * abort_pct;
            };
            std::printf(
                "%-14s %-4s %7.1f | %6.1f %6.1f %6.1f %6.1f %6.1f "
                "| %6.1f\n",
                suiteNames()[b].c_str(), machineLabel(m), abort_pct,
                share(htm::AbortCategory::capacityOverflow),
                share(htm::AbortCategory::dataConflict),
                share(htm::AbortCategory::other),
                share(htm::AbortCategory::lockConflict),
                share(htm::AbortCategory::unclassified),
                stats.serializationRatio() * 100.0);
        }
    }
    std::printf(
        "\nPaper shape: zEC12 dominated by transient cache-fetch "
        "(other) aborts;\nPOWER8 heavy on capacity in "
        "intruder/vacation/yada; Blue Gene/Q entirely\nunclassified; "
        "yada serialization ~10%% (BG) vs ~20%% (others).\n");

    // ---- Figure 4 ---------------------------------------------------
    std::printf("\nFigure 4: original vs modified STAMP speed-ups "
                "(4 threads)\n");
    std::printf("%-14s %-4s %10s %10s %8s\n", "benchmark", "mach",
                "original", "modified", "gain");
    double orig_product[4] = {1.0, 1.0, 1.0, 1.0};
    double mod_product[4] = {1.0, 1.0, 1.0, 1.0};
    for (std::size_t b = 0; b < apps.size(); ++b) {
        const std::string& bench = suiteNames()[b];
        for (unsigned m = 0; m < 4; ++m) {
            const double modified = apps[b].fourThreads(m).ratio;
            const double original = wasChanged(bench)
                                        ? apps[b].original[m].ratio
                                        : modified;
            if (wasChanged(bench)) {
                std::printf("%-14s %-4s %10.2f %10.2f %7.2fx\n",
                            bench.c_str(), machineLabel(m), original,
                            modified,
                            original > 0 ? modified / original : 0.0);
            }
            orig_product[m] *= original;
            mod_product[m] *= modified;
        }
    }
    const unsigned all_apps = unsigned(apps.size());
    std::printf("\n%-14s %-4s %10s %10s\n", "geomean(all)", "mach",
                "original", "modified");
    for (unsigned m = 0; m < 4; ++m) {
        std::printf("%-14s %-4s %10.2f %10.2f\n", "", machineLabel(m),
                    geomean(orig_product[m], all_apps),
                    geomean(mod_product[m], all_apps));
    }
    std::printf(
        "\nPaper shape: POWER8 gains most (3.7x in genome, >1.4x in "
        "intruder and\nvacation) because the modifications remove "
        "capacity overflows; kmeans\nalignment helps zEC12 and Intel "
        "~20-30%%.\n");

    // ---- Figure 5 ---------------------------------------------------
    std::printf("\nFigure 5: speed-up over sequential vs thread count "
                "(modified STAMP)\n");
    std::printf("(-- marks thread counts beyond the machine's SMT "
                "capacity;\n * marks points where threads "
                "oversubscribe physical cores)\n\n");
    for (std::size_t b = 0; b < apps.size(); ++b) {
        std::printf("%s\n", suiteNames()[b].c_str());
        std::printf("  %-4s %7s %7s %7s %7s %7s\n", "mach", "1t", "2t",
                    "4t", "8t", "16t");
        for (unsigned m = 0; m < 4; ++m) {
            const MachineConfig& machine = MachineConfig::all()[m];
            std::printf("  %-4s", machineLabel(m));
            for (std::size_t t = 0; t < kThreadCounts.size(); ++t) {
                if (kThreadCounts[t] > machine.maxThreads()) {
                    std::printf(" %7s", "--");
                    continue;
                }
                std::printf(" %6.2f%c", apps[b].scaling[m][t].ratio,
                            kThreadCounts[t] > machine.numCores ? '*'
                                                                : ' ');
            }
            std::printf("\n");
        }
    }
    std::printf(
        "\nPaper shape: zEC12 keeps scaling to 16 threads (16 real "
        "cores); Intel\nand POWER8 flatten beyond their core counts "
        "(SMT shares HTM resources);\nBlue Gene/Q leads yada; "
        "intruder/vacation favour zEC12 at high thread\ncounts.\n");

    // ---- Figure 7 ---------------------------------------------------
    std::printf("\nFigure 7: RTM vs HLE speed-up over sequential "
                "(Intel Core, 4 threads)\n");
    std::printf("%-14s %8s %8s %8s\n", "benchmark", "RTM", "HLE",
                "HLE/RTM");
    double rtm_product = 1.0;
    double hle_product = 1.0;
    for (std::size_t b = 0; b < apps.size(); ++b) {
        const double rtm = apps[b].fourThreads(kIntel).ratio;
        const double hle = apps[b].hle.ratio;
        std::printf("%-14s %8.2f %8.2f %7.0f%%\n",
                    suiteNames()[b].c_str(), rtm, hle,
                    rtm > 0 ? 100.0 * hle / rtm : 0.0);
        rtm_product *= rtm;
        hle_product *= hle;
    }
    std::printf("%-14s %8.2f %8.2f %7.0f%%\n", "geomean",
                geomean(rtm_product, all_apps),
                geomean(hle_product, all_apps),
                100.0 * geomean(hle_product / rtm_product, all_apps));
    std::printf("\nPaper shape: HLE reaches ~80%% of tuned RTM on "
                "average — modest speed-ups\nwith zero tuning "
                "effort.\n");

    // ---- Figures 10 and 11 ------------------------------------------
    std::printf("\nFigure 10: 90-pct transactional-load size (KB) vs "
                "abort ratio (%%), 4 threads\n");
    std::printf("%-14s %-4s %12s %10s %14s\n", "benchmark", "mach",
                "load90 (KB)", "abort %", "load capacity");
    printFootprint(apps, true);
    std::printf("\nPaper shape: labyrinth/yada footprints reach tens "
                "of KB; POWER8's 8 KB\nbudget is exceeded by "
                "labyrinth, yada and the larger vacation/intruder\n"
                "transactions, which correlates with its abort "
                "ratios.\n");

    std::printf("\nFigure 11: 90-pct transactional-store size (KB) vs "
                "abort ratio (%%), 4 threads\n");
    std::printf("%-14s %-4s %13s %10s %15s\n", "benchmark", "mach",
                "store90 (KB)", "abort %", "store capacity");
    printFootprint(apps, false);
    std::printf("\nPaper shape: store footprints exceed the 8 KB "
                "budgets (zEC12, POWER8)\nfor labyrinth and yada — "
                "the motivation for the paper's 'larger\n"
                "transactional-store capacity' recommendation "
                "(Section 7).\n");

    // ---- Backend comparison -----------------------------------------
    // The lock-only column bounds what serialization alone achieves
    // (it cannot meaningfully exceed 1x at four threads); the ideal
    // column bounds what any best-effort HTM could achieve on the same
    // conflict structure; the hybrid column replaces most global-lock
    // fallbacks with a concurrent software slow path (stm.hh).
    std::printf("\nBackend comparison: tuned 4-thread speed-up over "
                "sequential per backend\n");
    std::printf("%-14s %-22s %8s %8s %8s %8s\n", "benchmark",
                "machine", "htm", "lock", "ideal", "hybrid");
    unsigned lock_violations = 0;
    unsigned ideal_violations = 0;
    for (unsigned m = 0; m < 4; ++m) {
        for (std::size_t b = 0; b < apps.size(); ++b) {
            const BackendRow& row = apps[b].backends[m];
            const bool lock_bad = row.lock > 1.05;
            const bool ideal_bad = row.ideal < row.htm;
            lock_violations += lock_bad ? 1 : 0;
            ideal_violations += ideal_bad ? 1 : 0;
            std::printf("%-14s %-22s %8.2f %8.2f %8.2f %8.2f%s%s\n",
                        suiteNames()[b].c_str(),
                        MachineConfig::all()[m].name.c_str(), row.htm,
                        row.lock, row.ideal, row.hybrid,
                        lock_bad ? "  [lock > 1.05]" : "",
                        ideal_bad ? "  [ideal < htm]" : "");
        }
    }

    // Per-machine geomeans over all ten apps.
    BackendRow geomeans[4];
    std::printf("\n%-22s %8s %8s %8s %8s\n", "geomean", "htm",
                "lock", "ideal", "hybrid");
    for (unsigned m = 0; m < 4; ++m) {
        const auto mean = [&](double BackendRow::*column) {
            std::vector<double> values;
            for (const AppCells& cells : apps)
                values.push_back(cells.backends[m].*column);
            return bench::geomean(values);
        };
        BackendRow& g = geomeans[m];
        g = {mean(&BackendRow::htm), mean(&BackendRow::lock),
             mean(&BackendRow::ideal), mean(&BackendRow::hybrid)};
        std::printf("%-22s %8.2f %8.2f %8.2f %8.2f\n",
                    MachineConfig::all()[m].name.c_str(), g.htm, g.lock,
                    g.ideal, g.hybrid);
    }

    std::printf("\nchecks: lock>1.05 violations %u, ideal<htm "
                "violations %u -> %s\n",
                lock_violations, ideal_violations, output_path.c_str());

    // ---- Section 5.1 prefetcher ablation ----------------------------
    std::printf("\nSection 5.1 ablation: Intel adjacent-line prefetcher "
                "on/off (4 threads)\n");
    std::printf("%-14s %-9s %10s %10s\n", "benchmark", "prefetch",
                "speed-up", "abort %");
    for (const char* bench : {"kmeans-high", "kmeans-low"}) {
        const auto row = [&](const char* prefetch, const Speedup& best) {
            std::printf("%-14s %-9s %10.2f %10.1f\n", bench, prefetch,
                        best.ratio, best.tm.stats.abortRatio() * 100.0);
        };
        // On is the Figure 2 cell; off is re-tuned, like the paper.
        row("on", apps[appIndex(bench)].fourThreads(kIntel));
        row("off",
            verify.check(runner
                             .tune(bench, intel, 4,
                                   [](RuntimeConfig& config) {
                                       config.intel.prefetchEnabled =
                                           false;
                                   })
                             .result,
                         bench, intel, "prefetch off"));
    }
    std::printf("\nPaper shape: disabling the prefetcher lowers the "
                "kmeans abort ratios and\nraises the speed-ups — the "
                "prefetched neighbour lines were raising\n"
                "unnecessary data conflicts (validated by Intel "
                "developers).\n");

    // ---- Design ablations beyond the paper's figures ----------------
    std::printf("\nAblation 1: conflict-resolution policy "
                "(Intel Core, 4 threads, intruder)\n");
    std::printf("%-16s %10s %10s\n", "policy", "speed-up", "abort %");
    for (const auto& [policy, name] :
         {std::pair{htm::ConflictPolicy::attackerWins, "attacker-wins"},
          std::pair{htm::ConflictPolicy::attackerLoses, "attacker-loses"},
          std::pair{htm::ConflictPolicy::olderWins, "older-wins"}}) {
        RuntimeConfig config{intel};
        config.policy = policy;
        const Speedup result = verify.check(
            runner.run("intruder", config, intel, 4, true, 1), "intruder",
            intel, name);
        std::printf("%-16s %10.2f %10.1f\n", name, result.ratio,
                    result.tm.stats.abortRatio() * 100.0);
    }

    // Section 3 argues lock conflicts deserve their own counter.
    std::printf("\nAblation 2: three retry counters vs one "
                "(Intel Core, 4 threads)\n");
    std::printf("%-14s %-22s %10s %8s\n", "benchmark", "counters",
                "speed-up", "serial%");
    for (const char* bench : {"vacation-high", "yada"}) {
        const auto row = [&](const char* counters, const Speedup& best) {
            std::printf("%-14s %-22s %10.2f %8.1f\n", bench, counters,
                        best.ratio,
                        best.tm.stats.serializationRatio() * 100.0);
        };
        // The paper's mechanism (separate lock/persistent/transient
        // budgets) is the Figure 2 cell.
        row("three (tuned)", apps[appIndex(bench)].fourThreads(kIntel));
        // Single counter: all abort kinds share one budget, emulated
        // by setting all three counters equal.
        Speedup best;
        for (const int budget : {2, 4, 8, 16}) {
            RuntimeConfig config{intel};
            config.retry = {budget, budget, budget};
            const Speedup current = verify.check(
                runner.run(bench, config, intel, 4, true, 1), bench, intel,
                "single counter");
            if (current.ratio > best.ratio)
                best = current;
        }
        row("single (tuned)", best);
    }

    // Blue Gene/Q's long-running mode checks the lock only at commit.
    std::printf("\nAblation 3: eager vs lazy lock subscription "
                "(Blue Gene/Q modes, 4 threads)\n");
    std::printf("%-14s %-14s %10s %8s\n", "benchmark", "mode",
                "speed-up", "abort %");
    for (const char* bench : {"kmeans-high", "genome"}) {
        for (const auto& [mode, name] :
             {std::pair{htm::BgqMode::shortRunning, "short/eager"},
              std::pair{htm::BgqMode::longRunning, "long/lazy"}}) {
            RuntimeConfig config{bgq};
            config.bgq.mode = mode;
            const Speedup result = verify.check(
                runner.run(bench, config, bgq, 4, true, 1), bench, bgq,
                name);
            std::printf("%-14s %-14s %10.2f %8.1f\n", bench, name,
                        result.ratio,
                        result.tm.stats.abortRatio() * 100.0);
        }
    }

    printTable1();
    printCapacityKnees(verify);
    printFigure6(verify);
    printFigure9(verify);
    printHazardSweep(runner, verify);
    const HybridCharts hybrid =
        printHybridCharts(runner, apps, output_path, verify);

    if (!bench::writeReport(output_path, argc, argv, [&](auto& json) {
            // Machine m's name and a row's speed-ups; closes the object.
            const auto columns = [&json](unsigned m,
                                         const BackendRow& row) {
                json.field("machine", MachineConfig::all()[m].name)
                    .field("htm", row.htm)
                    .field("lock", row.lock)
                    .field("ideal", row.ideal)
                    .field("hybrid", row.hybrid)
                    .end();
            };
            json.key("backends")
                .beginObject()
                .field("threads", 4u)
                .field("seed", std::uint64_t(1))
                .key("cells")
                .beginArray();
            for (unsigned m = 0; m < 4; ++m) {
                for (std::size_t b = 0; b < apps.size(); ++b) {
                    json.beginObject().field("bench", suiteNames()[b]);
                    columns(m, apps[b].backends[m]);
                }
            }
            json.end().key("geomeans").beginArray();
            for (unsigned m = 0; m < 4; ++m) {
                json.beginObject();
                columns(m, geomeans[m]);
            }
            json.end()
                .key("checks")
                .beginObject()
                .field("lock_speedup_above_1_05", lock_violations)
                .field("ideal_below_htm", ideal_violations)
                .end()
                .end()
                .key("hybrid")
                .beginObject();
            writeHybrid(json, hybrid);
            json.end();
        }))
        return 1;
    std::printf("\n%u runs, %u failed verification\n", verify.runs,
                verify.failed);
    return verify.failed == 0 && hybrid.machinesWithoutWin == 0 ? 0 : 1;
}
