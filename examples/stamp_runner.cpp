/**
 * @file
 * Command-line STAMP runner: run any benchmark of the suite on any of
 * the four machines with a chosen thread count, and print speed-up
 * and abort statistics.
 *
 *   stamp_runner [benchmark] [machine] [threads] [backend] [policy]
 *                [options]
 *   stamp_runner vacation-high z12 8
 *   stamp_runner genome ic 4 lock
 *   stamp_runner genome ic 4 hle
 *   stamp_runner intruder p8 8 htm hardened
 *   stamp_runner yada z12 8 htm --prof yada.json --perfetto trace.json
 *
 * Machines: bg | z12 | ic | p8. Backends: htm (best-effort HTM with
 * lock fallback, the default) | lock (every section under the global
 * lock) | ideal (no capacity limits, free begin/end) | hybrid (a
 * software-TM tier between the retries and the lock) | hle (one
 * elided attempt, then the lock, untuned: Figure 7). Policies:
 * default (the machine's paper policy) | hardened (watchdog-bounded
 * retries with deterministic backoff, retry_policy.hh).
 * Defaults: genome ic 4 htm default.
 *
 * Any unknown benchmark/machine/backend/policy name exits nonzero with
 * a usage line listing the valid values.
 *
 * Options:
 *   --prof FILE      profile the run per transaction site, print the
 *                    per-site table and the top 10 conflicting site
 *                    pairs, and write the JSON profile to FILE
 *   --perfetto FILE  write a Perfetto / Chrome trace_event file
 *                    (load it in ui.perfetto.dev)
 *   --no-batch       disable the epoch-batched sync() fast path
 *                    (DESIGN.md Section 5); results are bit-identical,
 *                    only host time differs
 *   --quiet          only print the verification verdict
 *
 * Profiling replays the tuned winner with a TxProfiler attached;
 * recording is zero-perturbation, so the profiled numbers are the
 * run's real numbers. --quiet keeps the profile files but drops the
 * printed report.
 */

#include <cstdio>

#include "../bench/report.hh"
#include "../bench/suite.hh"
#include "check/cli.hh"
#include "htm/backend.hh"
#include "prof/profiler.hh"
#include "prof/report.hh"

using namespace htmsim;
using namespace htmsim::bench;

namespace
{

/** One-line value summary printed under every argument error. */
void
usage()
{
    std::string benches;
    for (const std::string& name : suiteNames())
        benches += (benches.empty() ? "" : "|") + name;
    std::fprintf(stderr,
                 "usage: stamp_runner [benchmark] [machine] [threads] "
                 "[backend] [policy] [options]\n"
                 "  benchmark: %s\n"
                 "  machine:   bg|z12|ic|p8\n"
                 "  backend:   htm|lock|ideal|hybrid|hle\n"
                 "  policy:    default|hardened\n"
                 "  options:   --prof FILE --perfetto FILE --no-batch "
                 "--quiet\n"
                 "             --threads N  (override; may exceed the "
                 "machine's SMT\n"
                 "              capacity up to %u — extra threads "
                 "timeshare cores)\n",
                 benches.c_str(), htm::kMaxTxThreads);
}

} // namespace

int
main(int argc, char** argv)
{
    std::string positional[5] = {"genome", "ic", "4", "htm", "default"};
    std::size_t num_positional = 0;
    std::string prof_path;
    std::string perfetto_path;
    bool quiet = false;
    bool batch = true;
    std::string threads_override;
    cli::Args args(argc, argv);
    while (args.next()) {
        if (args.is("--prof")) {
            prof_path = args.value();
        } else if (args.is("--perfetto")) {
            perfetto_path = args.value();
        } else if (args.is("--quiet")) {
            quiet = true;
        } else if (args.is("--no-batch")) {
            batch = false;
        } else if (args.is("--threads")) {
            threads_override = args.value();
        } else if (args.is("--help") || args.is("-h")) {
            usage();
            return 0;
        } else if (args.flag().starts_with("--")) {
            usage();
            args.unknown();
        } else if (num_positional < 5) {
            positional[num_positional++] = args.flag();
        } else {
            std::fprintf(stderr, "too many arguments at '%s'\n",
                         std::string(args.flag()).c_str());
            usage();
            return 2;
        }
    }
    const std::string& bench = positional[0];
    const std::string& machine_name = positional[1];
    const bool oversubscribe = !threads_override.empty();
    const std::string& threads_text =
        oversubscribe ? threads_override : positional[2];
    const std::string& backend_name = positional[3];
    const std::string& policy_name = positional[4];

    const auto parsed_backend = htm::parseBackendKind(backend_name);
    if (!parsed_backend) {
        std::fprintf(stderr, "unknown backend '%s'\n",
                     backend_name.c_str());
        usage();
        return 2;
    }
    const htm::BackendKind backend = *parsed_backend;

    const auto parsed_policy = htm::parseRetryPolicyKind(policy_name);
    if (!parsed_policy) {
        std::fprintf(stderr, "unknown policy '%s'\n",
                     policy_name.c_str());
        usage();
        return 2;
    }
    const htm::RetryPolicyKind policy_kind = *parsed_policy;

    int machine_index = -1;
    const char* labels[] = {"bg", "z12", "ic", "p8"};
    for (int i = 0; i < 4; ++i) {
        if (machine_name == labels[i])
            machine_index = i;
    }
    if (machine_index < 0) {
        std::fprintf(stderr, "unknown machine '%s'\n",
                     machine_name.c_str());
        usage();
        return 2;
    }
    bool known = false;
    for (const std::string& name : suiteNames())
        known = known || name == bench;
    if (!known) {
        std::fprintf(stderr, "unknown benchmark '%s'\n", bench.c_str());
        usage();
        return 2;
    }

    const MachineConfig& machine =
        MachineConfig::all()[unsigned(machine_index)];
    // The positional count stays bounded by the preset's SMT capacity
    // (the paper's configurations); --threads deliberately allows
    // oversubscription — extra threads timeshare cores via
    // smtTimeScale — up to the runtime's hard thread ceiling.
    const unsigned thread_limit =
        oversubscribe ? htm::kMaxTxThreads : machine.maxThreads();
    const std::optional<unsigned> parsed_threads =
        cli::parseNumber(threads_text.c_str(), 1u, thread_limit);
    if (!parsed_threads) {
        std::fprintf(stderr,
                     "threads '%s': %s supports 1..%u threads (%u with "
                     "--threads oversubscription)\n",
                     threads_text.c_str(), machine.name.c_str(),
                     machine.maxThreads(), htm::kMaxTxThreads);
        usage();
        return 2;
    }
    const unsigned threads = *parsed_threads;

    // Tune the retry grid, keeping the winning configuration so it
    // can be replayed under the profiler.
    SuiteRunner runner;
    SuiteRunner::Tuned best =
        runner.tune(bench, machine, threads, [&](RuntimeConfig& config) {
            config.backend = backend;
            config.batchEpoch = batch;
            config.policyKind = policy_kind;
        });
    Speedup& result = best.result;

    const bool profile = !prof_path.empty() || !perfetto_path.empty();
    prof::TxProfiler profiler;
    if (profile) {
        best.config.observer = &profiler;
        result = runner.run(bench, best.config, machine, threads, true,
                            1);
    }

    if (!quiet) {
        std::printf("%s on %s with %u thread(s), backend %s, "
                    "policy %s\n",
                    bench.c_str(), machine.name.c_str(), threads,
                    htm::backendKindName(backend), policy_name.c_str());
        std::printf("  sequential: %12llu cycles\n",
                    (unsigned long long)result.seq.cycles);
        std::printf("  HTM:        %12llu cycles  -> speed-up %.2fx\n",
                    (unsigned long long)result.tm.cycles,
                    result.ratio);
        const htm::TxStats& stats = result.tm.stats;
        std::printf("  commits: %llu (irrevocable %llu), aborts: %llu "
                    "(%.1f%%)\n",
                    (unsigned long long)stats.totalCommits(),
                    (unsigned long long)stats.irrevocableCommits,
                    (unsigned long long)stats.totalAborts(),
                    stats.abortRatio() * 100.0);
        for (unsigned i = 0; i < htm::numAbortCategories; ++i) {
            if (stats.reportedAborts[i] == 0)
                continue;
            std::printf("    %-18s %llu\n",
                        htm::abortCategoryName(htm::AbortCategory(i)),
                        (unsigned long long)stats.reportedAborts[i]);
        }
    }

    if (profile) {
        prof::RunInfo info;
        info.bench = bench;
        info.machine = machine.name;
        info.backend = htm::backendKindName(backend);
        info.threads = threads;
        info.seed = 1;
        info.result = result;
        const prof::ProfileReport profile_report = profiler.report();
        if (!quiet) {
            std::printf("\n");
            prof::printReport(stdout, info, profile_report, 10);
            std::printf("\n");
        }
        if (!prof_path.empty()) {
            if (!writeReport(prof_path, argc, argv, [&](auto& json) {
                    prof::writeProfile(json, info, profile_report);
                }))
                return 1;
            if (!quiet)
                std::printf("  profile written to %s\n",
                            prof_path.c_str());
        }
        if (!perfetto_path.empty()) {
            if (!writeJsonFile(perfetto_path, [&](auto& json) {
                    prof::writePerfettoTrace(json, info, profiler);
                }))
                return 1;
            if (!quiet)
                std::printf("  trace written to %s (load in "
                            "ui.perfetto.dev)\n",
                            perfetto_path.c_str());
        }
    }

    if (!quiet || !result.tm.valid)
        std::printf("  verification: %s\n",
                    result.tm.valid ? "PASSED" : "FAILED");
    return result.tm.valid ? 0 : 1;
}
