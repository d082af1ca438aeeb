/**
 * @file
 * txprof: profile a STAMP benchmark run per transaction site.
 *
 *   txprof --bench yada --machine z12 --threads 8 --prof out.json
 *   txprof --bench vacation-high --machine p8 --perfetto trace.json
 *   txprof --selftest
 *
 * The run is tuned exactly like the experiment benches (best retry
 * counts over the standard grid), then the winning configuration is
 * re-run with a TxProfiler attached. Profiling is zero-perturbation,
 * so the profiled run is a faithful replay of the tuned winner.
 *
 * Outputs: a human-readable per-site table and top conflicting site
 * pairs on stdout, optionally a JSON profile (--prof) and a Perfetto /
 * Chrome trace_event file (--perfetto) loadable in ui.perfetto.dev.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "bench/suite.hh"
#include "htm/backend.hh"
#include "prof/profiler.hh"
#include "prof/report.hh"

using namespace htmsim;
using namespace htmsim::bench;

namespace
{

void
usage(std::FILE* out)
{
    std::fprintf(
        out,
        "usage: txprof [options]\n"
        "  --bench NAME      STAMP benchmark (default genome; see "
        "--list)\n"
        "  --machine M       bg | z12 | ic | p8 (default ic)\n"
        "  --threads N       simulated threads (default 4)\n"
        "  --backend B       htm | lock | ideal (default htm)\n"
        "  --seed S          simulation seed (default 1)\n"
        "  --prof FILE       write the JSON profile to FILE\n"
        "  --perfetto FILE   write a Perfetto trace_event file\n"
        "  --top N           conflict pairs to print (default 10)\n"
        "  --no-tune         skip retry-count tuning (first preset)\n"
        "  --quiet           suppress the stdout report\n"
        "  --list            list benchmarks and exit\n"
        "  --selftest        run the built-in attribution check\n");
}

/**
 * Built-in end-to-end check of the profiling pipeline: a scripted
 * two-site workload whose conflict structure is known by construction.
 *
 * Site selftest.writerAB increments word A, dawdles, then increments
 * word B; site selftest.writerB increments only B. A and B live on
 * different conflict lines (alignas(256) exceeds every machine's
 * granularity), so every transactional conflict must be attributed to
 * the pair (writerAB, writerB) on B's line — never A's.
 */
int
selftest()
{
    const htm::MachineConfig& machine = htm::MachineConfig::all()[2];
    htm::RuntimeConfig config{machine};
    prof::TxProfiler profiler(std::size_t(1) << 16,
                              std::size_t(1) << 12);
    config.observer = &profiler;

    const htm::TxSiteId site_ab = htm::txSite("selftest.writerAB");
    const htm::TxSiteId site_b = htm::txSite("selftest.writerB");

    struct alignas(256) SharedWord
    {
        std::uint64_t value = 0;
    };
    SharedWord a;
    SharedWord b;
    constexpr unsigned iterations = 400;

    sim::Scheduler scheduler(1);
    htm::Runtime runtime(config, 2);
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        for (unsigned i = 0; i < iterations; ++i) {
            runtime.atomic(ctx, site_ab, [&](htm::Tx& tx) {
                tx.store(&a.value, tx.load(&a.value) + 1);
                tx.work(200);
                tx.store(&b.value, tx.load(&b.value) + 1);
            });
            ctx.advance(50);
        }
    });
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        for (unsigned i = 0; i < iterations; ++i) {
            runtime.atomic(ctx, site_b, [&](htm::Tx& tx) {
                tx.store(&b.value, tx.load(&b.value) + 1);
            });
            ctx.advance(30);
        }
    });
    scheduler.run();

    auto fail = [](const char* what) {
        std::fprintf(stderr, "txprof selftest FAILED: %s\n", what);
        return 1;
    };

    if (a.value != iterations || b.value != 2 * iterations)
        return fail("workload result is wrong");
    const htm::TxStats stats = runtime.stats();
    if (stats.totalCommits() != 2 * iterations)
        return fail("commit count does not match the workload");
    if (stats.totalAborts() == 0)
        return fail("the scripted contention produced no aborts");

    // Conflict attribution: every tx/tx conflict must involve the two
    // scripted sites and must be on B's line, never on A's.
    std::size_t shift = 0;
    while ((std::size_t(1) << shift) < runtime.effectiveGranularity())
        ++shift;
    const std::uintptr_t line_a = std::uintptr_t(&a.value) >> shift;
    const std::uintptr_t line_b = std::uintptr_t(&b.value) >> shift;
    std::uint64_t tx_conflicts = 0;
    for (const htm::TxConflictEvent& event : profiler.conflicts()) {
        if (event.attackerNonTx)
            continue;
        ++tx_conflicts;
        if (event.line == line_a)
            return fail("conflict attributed to the uncontended line");
        if (event.line != line_b)
            return fail("conflict on an unexpected line");
        const bool known_sites =
            (event.attackerSite == site_ab ||
             event.attackerSite == site_b) &&
            (event.victimSite == site_ab ||
             event.victimSite == site_b);
        if (!known_sites)
            return fail("conflict between unregistered sites");
    }
    if (tx_conflicts == 0)
        return fail("no transactional conflicts were recorded");

    // Aggregation: both sites visible with full commit counts and a
    // consistent cycle attribution.
    const prof::ProfileReport report = profiler.report();
    const prof::SiteProfile* prof_ab = nullptr;
    const prof::SiteProfile* prof_b = nullptr;
    for (const prof::SiteProfile& site : report.sites) {
        if (site.site == site_ab)
            prof_ab = &site;
        if (site.site == site_b)
            prof_b = &site;
    }
    if (prof_ab == nullptr || prof_b == nullptr)
        return fail("a scripted site is missing from the report");
    if (prof_ab->commits + prof_ab->fallbackCommits != iterations ||
        prof_b->commits + prof_b->fallbackCommits != iterations)
        return fail("per-site commit counts are wrong");
    if (report.wastedCycles == 0)
        return fail("aborts recorded but no wasted cycles attributed");
    if (report.committedCycles + report.fallbackCycles == 0)
        return fail("no useful cycles attributed");
    if (profiler.truncated())
        return fail("capture buffers overflowed");

    // Exporters: both documents must be produced and name the sites.
    prof::RunInfo info;
    info.bench = "selftest";
    info.machine = machine.name;
    info.backend = "htm";
    info.threads = 2;
    info.seed = 1;
    info.tmCycles = 1;
    info.stats = stats;
    std::ostringstream json;
    prof::writeProfileJson(json, info, report);
    if (json.str().find("selftest.writerAB") == std::string::npos ||
        json.str().find("conflictPairs") == std::string::npos)
        return fail("JSON profile is missing expected content");
    std::ostringstream trace;
    prof::writePerfettoTrace(trace, info, profiler);
    if (trace.str().find("traceEvents") == std::string::npos ||
        trace.str().find("selftest.writerB") == std::string::npos)
        return fail("Perfetto trace is missing expected content");

    std::printf("txprof selftest OK: %llu commits, %llu aborts, "
                "%llu tx conflicts on the shared line\n",
                (unsigned long long)stats.totalCommits(),
                (unsigned long long)stats.totalAborts(),
                (unsigned long long)tx_conflicts);
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string bench = "genome";
    std::string machine_name = "ic";
    std::string backend_name = "htm";
    unsigned threads = 4;
    std::uint64_t seed = 1;
    std::string prof_path;
    std::string perfetto_path;
    std::size_t top_pairs = 10;
    bool tune = true;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n",
                             arg.c_str());
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--bench") {
            bench = value();
        } else if (arg == "--machine") {
            machine_name = value();
        } else if (arg == "--threads") {
            threads = unsigned(std::atoi(value()));
        } else if (arg == "--backend") {
            backend_name = value();
        } else if (arg == "--seed") {
            seed = std::uint64_t(std::atoll(value()));
        } else if (arg == "--prof") {
            prof_path = value();
        } else if (arg == "--perfetto") {
            perfetto_path = value();
        } else if (arg == "--top") {
            top_pairs = std::size_t(std::atoi(value()));
        } else if (arg == "--no-tune") {
            tune = false;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--list") {
            for (const std::string& name : suiteNames())
                std::printf("%s\n", name.c_str());
            return 0;
        } else if (arg == "--selftest") {
            return selftest();
        } else if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(stderr);
            return 1;
        }
    }

    const auto parsed_backend = htm::parseBackendKind(backend_name);
    if (!parsed_backend) {
        std::fprintf(stderr,
                     "unknown backend '%s' (use "
                     "htm|lock|ideal|hybrid)\n",
                     backend_name.c_str());
        return 1;
    }
    const htm::BackendKind backend = *parsed_backend;

    int machine_index = -1;
    const char* labels[] = {"bg", "z12", "ic", "p8"};
    for (int i = 0; i < 4; ++i) {
        if (machine_name == labels[i])
            machine_index = i;
    }
    if (machine_index < 0) {
        std::fprintf(stderr,
                     "unknown machine '%s' (use bg|z12|ic|p8)\n",
                     machine_name.c_str());
        return 1;
    }
    bool known = false;
    for (const std::string& name : suiteNames())
        known = known || name == bench;
    if (!known) {
        std::fprintf(stderr, "unknown benchmark '%s' (see --list)\n",
                     bench.c_str());
        return 1;
    }

    const MachineConfig& machine =
        MachineConfig::all()[unsigned(machine_index)];
    if (threads == 0 || threads > machine.maxThreads()) {
        std::fprintf(stderr, "%s supports 1..%u threads\n",
                     machine.name.c_str(), machine.maxThreads());
        return 1;
    }

    // Phase 1: find the best runtime configuration, unprofiled, using
    // the same tuning grid as the experiment benches.
    SuiteRunner runner;
    RuntimeConfig best_config{machine};
    best_config.backend = backend;
    if (tune && backend != htm::BackendKind::globalLock) {
        double best_ratio = 0.0;
        bool first = true;
        for (RuntimeConfig config :
             SuiteRunner::tuningCandidates(machine)) {
            config.backend = backend;
            const Speedup current = runner.run(
                bench, config, machine, threads, true, seed);
            if (first || current.ratio > best_ratio) {
                best_config = config;
                best_ratio = current.ratio;
                first = false;
            }
        }
    } else {
        RuntimeConfig config =
            SuiteRunner::tuningCandidates(machine).front();
        config.backend = backend;
        best_config = config;
    }

    // Phase 2: replay the winner with the profiler attached.
    prof::TxProfiler profiler;
    best_config.observer = &profiler;
    const Speedup profiled = runner.run(bench, best_config, machine,
                                        threads, true, seed);

    prof::RunInfo info;
    info.bench = bench;
    info.machine = machine.name;
    info.backend = htm::backendKindName(backend);
    info.threads = threads;
    info.seed = seed;
    info.tmCycles = profiled.tm.cycles;
    info.seqCycles = profiled.seq.cycles;
    info.speedup = profiled.ratio;
    info.stats = profiled.tm.stats;

    const prof::ProfileReport report = profiler.report();
    if (!quiet)
        prof::printReport(stdout, info, report, top_pairs);

    if (!prof_path.empty()) {
        std::ofstream out(prof_path);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n",
                         prof_path.c_str());
            return 1;
        }
        prof::writeProfileJson(out, info, report);
        if (!quiet)
            std::printf("\nprofile written to %s\n",
                        prof_path.c_str());
    }
    if (!perfetto_path.empty()) {
        std::ofstream out(perfetto_path);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n",
                         perfetto_path.c_str());
            return 1;
        }
        prof::writePerfettoTrace(out, info, profiler);
        if (!quiet)
            std::printf("trace written to %s (load in "
                        "ui.perfetto.dev)\n",
                        perfetto_path.c_str());
    }

    if (!profiled.tm.valid) {
        std::fprintf(stderr, "verification FAILED\n");
        return 1;
    }
    return 0;
}
