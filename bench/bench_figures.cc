/**
 * @file
 * The paper's STAMP figures, the backend comparison and the STAMP
 * ablations from one pass over their cells.
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
 * bayes is excluded from Figure 2's geomean and from Figures 10/11
 * (non-deterministic behaviour, as in the paper). The backend table
 * is also written to BENCH_backends.json (`-o PATH`). Exits nonzero if
 * any run fails its app's verification.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "check/cli.hh"
#include "report.hh"

using namespace htmsim;
using namespace htmsim::bench;

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

} // namespace

int
main(int argc, char** argv)
{
    std::string output_path = "BENCH_backends.json";
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
    unsigned runs = 0;
    unsigned failed = 0;
    auto check = [&](Speedup result, const std::string& bench,
                     const MachineConfig& machine, const char* what) {
        ++runs;
        if (!result.tm.valid || !result.seq.valid) {
            ++failed;
            std::fprintf(stderr, "%s on %s (%s) failed validation!\n",
                         bench.c_str(), machine.name.c_str(), what);
        }
        return result;
    };

    std::vector<AppCells> apps(suiteNames().size());
    for (std::size_t b = 0; b < apps.size(); ++b) {
        const std::string& bench = suiteNames()[b];
        AppCells& cells = apps[b];
        for (unsigned m = 0; m < 4; ++m) {
            const MachineConfig& machine = MachineConfig::all()[m];
            for (std::size_t t = 0; t < kThreadCounts.size(); ++t) {
                if (kThreadCounts[t] <= machine.maxThreads()) {
                    cells.scaling[m][t] = check(
                        runner.measure(bench, machine, kThreadCounts[t]),
                        bench, machine, "modified");
                }
            }
            if (wasChanged(bench)) {
                cells.original[m] =
                    check(runner.measure(bench, machine, 4, false),
                          bench, machine, "original");
            }
            if (bench != "bayes") {
                RuntimeConfig traced{machine};
                traced.collectTrace = true;
                traced.ignoreCapacity = true;
                const Speedup trace_run =
                    check(runner.run(bench, traced, machine, 1, true, 1),
                          bench, machine, "traced");
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
                return check(result, bench, machine,
                             htm::backendKindName(backend))
                    .ratio;
            };
            cells.backends[m] = {cells.fourThreads(m).ratio,
                                 tuned(htm::BackendKind::globalLock),
                                 tuned(htm::BackendKind::idealHtm),
                                 tuned(htm::BackendKind::hybrid)};
        }
        cells.hle = check(runner.measureHle(bench, intel, 4), bench,
                          intel, "HLE");
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
            json.field("threads", 4u)
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
                .end();
        }))
        return 1;
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
        row("off", check(runner
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
        const Speedup result =
            check(runner.run("intruder", config, intel, 4, true, 1),
                  "intruder", intel, name);
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
            const Speedup current =
                check(runner.run(bench, config, intel, 4, true, 1),
                      bench, intel, "single counter");
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
            const Speedup result =
                check(runner.run(bench, config, bgq, 4, true, 1), bench,
                      bgq, name);
            std::printf("%-14s %-14s %10.2f %8.1f\n", bench, name,
                        result.ratio,
                        result.tm.stats.abortRatio() * 100.0);
        }
    }

    std::printf("\n%u runs, %u failed verification\n", runs, failed);
    return failed == 0 ? 0 : 1;
}
