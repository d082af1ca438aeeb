/**
 * @file
 * simcheck sweep driver.
 *
 * Sweeps seeds x machine presets x workloads through the differential
 * oracle — or, with --liveness, through the liveness oracle, usually
 * combined with the deterministic hazard flags to chaos-test a retry
 * policy. On a violation it shrinks the fuzzed schedule to a locally
 * minimal set of preemption points and prints a replay command line:
 * the run's own flags, minus those that choose or drive the sweep,
 * then --workload/--machine/--seed/--schedule. Running it reproduces
 * the exact failing interleaving.
 *
 * Exit codes: 0 sweep clean (or, under --expect-failure, a failure
 * was found and shrunk within bounds), 1 violation found (or
 * --expect-failure found none), 2 usage error.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "check/cli.hh"
#include "check/liveness.hh"
#include "check/oracle.hh"
#include "check/shrink.hh"
#include "htm/backend.hh"
#include "htm/machine.hh"
#include "htm/runtime.hh"

namespace
{

using namespace htmsim;
using namespace htmsim::check;

struct MachineChoice
{
    const char* token;
    htm::MachineConfig config;
};

std::vector<MachineChoice>
machineChoices()
{
    return {
        {"bgq", htm::MachineConfig::blueGeneQ()},
        {"zec12", htm::MachineConfig::zEC12()},
        {"intel", htm::MachineConfig::intelCore()},
        {"p8", htm::MachineConfig::power8()},
    };
}

std::vector<std::string>
splitList(const std::string& text)
{
    std::vector<std::string> items;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t comma = text.find(',', start);
        if (comma == std::string::npos) {
            items.push_back(text.substr(start));
            break;
        }
        items.push_back(text.substr(start, comma - start));
        start = comma + 1;
    }
    return items;
}

void
usage(std::FILE* out)
{
    std::fprintf(out,
        "usage: check_runner [options]\n"
        "sweep:\n"
        "  --seeds N          seeds to sweep (default 25)\n"
        "  --first-seed S     first seed (default 1)\n"
        "  --machines LIST    comma list of bgq,zec12,intel,p8 "
        "(default all)\n"
        "  --workloads LIST   comma list (default all; see --list)\n"
        "  --threads T        simulated threads (default 4)\n"
        "  --ops N            transactions per thread (default 24)\n"
        "  --preempt-prob P   preemption probability per point\n"
        "  --max-delay C      max injected delay in cycles\n"
        "  --ring-capacity N  event-ring capacity (default 32768)\n"
        "  --no-shrink        print the raw failing schedule\n"
        "  --quiet            suppress progress output\n"
        "hazards (any --hazard-* flag enables injection; hazard.hh):\n"
        "  --hazard-rate P    spurious transient-abort probability\n"
        "  --hazard-interrupt R  interrupt rate per cycle (e.g. 1e-6)\n"
        "  --hazard-capacity P   capacity-misestimate probability\n"
        "  --hazard-lock-preempt P  lock-holder preemption "
        "probability\n"
        "  --hazard-seed S    hazard RNG seed (default 1)\n"
        "  --hazard-pin T     pin thread T as a spurious-abort victim\n"
        "  --policy P         default | hardened retry policy\n"
        "backend:\n"
        "  --backend B        htm | hybrid | hle concurrent phase "
        "(default htm)\n"
        "  --subscription S   eager | lazy hybrid clock subscription\n"
        "  --stm-only         hybrid: skip hardware attempts\n"
        "  --stm-attempts N   hybrid: software attempts before the\n"
        "                     global-lock fallback (default 3)\n"
        "  --orec-log2 N      hybrid: log2 of the orec-table size\n"
        "liveness:\n"
        "  --liveness         run the liveness oracle (progress\n"
        "                     bounds) instead of the differential one\n"
        "  --max-section-cycles C  completion bound (default 4000000)\n"
        "  --starvation-bound N    peer-commit bound (default 512)\n"
        "self-test:\n"
        "  --inject-fault F   none | miss-reader-conflict | "
        "stuck-retry | stm-subscription\n"
        "  --expect-failure   exit 0 iff a failure is found and\n"
        "                     shrinks to at most --max-shrunk points\n"
        "  --max-shrunk N     shrink bound for --expect-failure "
        "(default 10)\n"
        "replay:\n"
        "  --seed S --workload W --machine M --schedule \"t:i:d,...\"\n"
        "misc:\n"
        "  --list             list workloads and machines\n");
    std::fprintf(out, "accepted --workloads values: all");
    for (const WorkloadFactory& factory : allWorkloads())
        std::fprintf(out, ",%s", factory.name);
    std::fprintf(out, "\naccepted --policy values: default,hardened\n");
}

struct Args
{
    std::uint64_t seeds = 25;
    std::uint64_t firstSeed = 1;
    std::string machines = "all";
    std::string workloads = "all";
    CheckOptions options;
    LivenessOptions livenessOptions;
    bool liveness = false;
    bool noShrink = false;
    bool quiet = false;
    bool expectFailure = false;
    std::size_t maxShrunk = 10;
    bool replayMode = false;
    std::uint64_t replaySeed = 0;
    std::string replaySchedule;
    /** argv[0] and the run's own flags, in order: the replay
     *  artifact's prefix. */
    std::string replayCommand;
};

/** Whether @p flag chooses or drives the sweep; the replay artifact
 *  leaves such flags out and names its one run instead. */
bool
drivesSweep(std::string_view flag)
{
    for (const std::string_view name :
         {"--seeds", "--first-seed", "--machines", "--machine",
          "--workloads", "--workload", "--seed", "--schedule", "--quiet",
          "--no-shrink", "--expect-failure", "--max-shrunk"}) {
        if (flag == name)
            return true;
    }
    return false;
}

void
reportFailure(const Args& args, const char* workload,
              const char* machine_token, std::uint64_t seed,
              const RunOutcome& outcome, const Schedule& schedule)
{
    std::printf("FAILURE: workload=%s machine=%s seed=%llu\n",
                workload, machine_token, (unsigned long long) seed);
    std::printf("  reason: %s\n", outcome.reason.c_str());
    std::printf("  replay: %s --workload %s --machine %s --seed %llu "
                "--schedule \"%s\"\n",
                args.replayCommand.c_str(), workload, machine_token,
                (unsigned long long) seed,
                formatSchedule(schedule).c_str());
    if (!outcome.traceTail.empty())
        std::printf("  trace tail:\n%s", outcome.traceTail.c_str());
}

} // namespace

int
main(int argc, char** argv)
{
    Args args;
    std::string workload_name;
    std::string machine_name;

    args.replayCommand = argv[0];
    cli::Args cli(argc, argv);
    while (cli.next()) {
        const int first = cli.index();
        const std::string_view flag = cli.flag();
        const auto integer = [&cli](long long lo, long long hi) {
            return cli.number(lo, hi);
        };
        constexpr long long any = std::numeric_limits<long long>::max();
        if (flag == "--seeds") {
            args.seeds = std::uint64_t(integer(1, any));
        } else if (flag == "--first-seed") {
            args.firstSeed = std::uint64_t(integer(0, any));
        } else if (flag == "--machines" || flag == "--machine") {
            args.machines = cli.value();
            machine_name = args.machines;
        } else if (flag == "--workloads" || flag == "--workload") {
            args.workloads = cli.value();
            workload_name = args.workloads;
        } else if (flag == "--threads") {
            args.options.threads =
                unsigned(integer(1, htm::kMaxTxThreads));
        } else if (flag == "--ops") {
            args.options.opsPerThread = unsigned(integer(1, 1 << 20));
        } else if (flag == "--preempt-prob") {
            args.options.fuzz.preemptProb = cli.number(0.0, 1.0);
        } else if (flag == "--max-delay") {
            args.options.fuzz.maxDelay = std::uint64_t(integer(0, any));
        } else if (flag == "--ring-capacity") {
            args.options.ringCapacity = std::size_t(integer(1, any));
        } else if (flag == "--hazard-rate") {
            args.options.hazard.enabled = true;
            args.options.hazard.spuriousAbortProb = cli.number(0.0, 1.0);
        } else if (flag == "--hazard-interrupt") {
            args.options.hazard.enabled = true;
            args.options.hazard.interruptRate = cli.number(0.0, 1.0);
        } else if (flag == "--hazard-capacity") {
            args.options.hazard.enabled = true;
            args.options.hazard.capacityNoiseProb = cli.number(0.0, 1.0);
        } else if (flag == "--hazard-lock-preempt") {
            args.options.hazard.enabled = true;
            args.options.hazard.lockPreemptProb = cli.number(0.0, 1.0);
        } else if (flag == "--hazard-seed") {
            args.options.hazard.enabled = true;
            args.options.hazard.seed = std::uint64_t(integer(0, any));
        } else if (flag == "--hazard-pin") {
            args.options.hazard.enabled = true;
            args.options.hazard.pinnedVictim =
                int(integer(-1, htm::kMaxTxThreads - 1));
        } else if (flag == "--policy") {
            const auto kind = htm::parseRetryPolicyKind(cli.value());
            if (!kind)
                cli.invalid("default hardened");
            args.options.policyKind = *kind;
        } else if (flag == "--backend") {
            // The concurrent phase runs htm, hybrid or hle (oracle.hh).
            const auto kind = htm::parseBackendKind(cli.value());
            if (kind != htm::BackendKind::htm &&
                kind != htm::BackendKind::hybrid &&
                kind != htm::BackendKind::hle)
                cli.invalid("htm hybrid hle");
            args.options.backend = *kind;
        } else if (flag == "--subscription") {
            const std::string_view mode = cli.value();
            if (mode == "eager") {
                args.options.hybrid.subscription =
                    htm::HybridRuntimeConfig::Subscription::eager;
            } else if (mode == "lazy") {
                args.options.hybrid.subscription =
                    htm::HybridRuntimeConfig::Subscription::lazy;
            } else {
                cli.invalid("eager lazy");
            }
        } else if (flag == "--stm-only") {
            args.options.hybrid.stmOnly = true;
        } else if (flag == "--stm-attempts") {
            args.options.hybrid.stmAttempts = int(integer(0, 1 << 20));
        } else if (flag == "--orec-log2") {
            args.options.hybrid.orecTableLog2 = unsigned(integer(0, 30));
        } else if (flag == "--liveness") {
            args.liveness = true;
        } else if (flag == "--max-section-cycles") {
            args.livenessOptions.maxSectionCycles =
                std::uint64_t(integer(1, any));
        } else if (flag == "--starvation-bound") {
            args.livenessOptions.starvationCommitBound =
                std::uint64_t(integer(1, any));
        } else if (flag == "--inject-fault") {
            const std::string_view fault = cli.value();
            if (fault == "none") {
                args.options.fault = htm::CheckFault::none;
            } else if (fault == "miss-reader-conflict") {
                args.options.fault =
                    htm::CheckFault::missReaderConflict;
            } else if (fault == "stuck-retry") {
                args.options.fault = htm::CheckFault::stuckRetry;
            } else if (fault == "stm-subscription") {
                args.options.fault =
                    htm::CheckFault::missStmSubscription;
            } else {
                cli.invalid("none miss-reader-conflict stuck-retry "
                            "stm-subscription");
            }
        } else if (flag == "--expect-failure") {
            args.expectFailure = true;
        } else if (flag == "--max-shrunk") {
            args.maxShrunk = std::size_t(integer(0, any));
        } else if (flag == "--no-shrink") {
            args.noShrink = true;
        } else if (flag == "--quiet") {
            args.quiet = true;
        } else if (flag == "--seed") {
            args.replayMode = true;
            args.replaySeed = std::uint64_t(integer(0, any));
        } else if (flag == "--schedule") {
            args.replaySchedule = cli.value();
        } else if (flag == "--list") {
            std::printf("workloads:");
            for (const WorkloadFactory& factory : allWorkloads())
                std::printf(" %s", factory.name);
            std::printf("\nmachines:");
            for (const MachineChoice& choice : machineChoices())
                std::printf(" %s", choice.token);
            std::printf("\n");
            return 0;
        } else if (flag == "--help" || flag == "-h") {
            usage(stdout);
            return 0;
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n",
                         std::string(flag).c_str());
            usage(stderr);
            return 2;
        }
        if (!drivesSweep(flag)) {
            for (int i = first; i <= cli.index(); ++i)
                (args.replayCommand += ' ') += argv[i];
        }
    }

    // Resolve machine and workload selections.
    std::vector<MachineChoice> machines;
    if (args.machines == "all") {
        machines = machineChoices();
    } else {
        for (const std::string& token : splitList(args.machines)) {
            bool found = false;
            for (const MachineChoice& choice : machineChoices()) {
                if (token == choice.token) {
                    machines.push_back(choice);
                    found = true;
                }
            }
            if (!found) {
                std::fprintf(stderr, "unknown machine '%s'\n",
                             token.c_str());
                return 2;
            }
        }
    }
    std::vector<const WorkloadFactory*> workloads;
    if (args.workloads == "all") {
        for (const WorkloadFactory& factory : allWorkloads())
            workloads.push_back(&factory);
    } else {
        for (const std::string& token : splitList(args.workloads)) {
            const WorkloadFactory* factory = findWorkload(token);
            if (factory == nullptr) {
                std::fprintf(stderr,
                             "unknown workload '%s' (accepted: all",
                             token.c_str());
                for (const WorkloadFactory& known : allWorkloads())
                    std::fprintf(stderr, ",%s", known.name);
                std::fprintf(stderr, ")\n");
                return 2;
            }
            workloads.push_back(factory);
        }
    }

    // Dispatch to the selected oracle: safety (differential) by
    // default, progress (liveness) under --liveness.
    const auto runOracle = [&args](const WorkloadFactory& factory,
                                   const htm::MachineConfig& machine,
                                   std::uint64_t seed,
                                   const Schedule* replay) {
        if (args.liveness) {
            return runLiveness(factory, machine, seed, args.options,
                               args.livenessOptions, replay);
        }
        return runDifferential(factory, machine, seed, args.options,
                               replay);
    };

    // --- Replay mode: one run, exact schedule, no sweep. ---
    if (args.replayMode) {
        if (workloads.size() != 1 || machines.size() != 1) {
            std::fprintf(stderr, "--seed replay needs exactly one "
                                 "--workload and one --machine\n");
            return 2;
        }
        Schedule schedule;
        try {
            schedule = parseSchedule(args.replaySchedule);
        } catch (const std::exception& error) {
            std::fprintf(stderr, "bad --schedule: %s\n", error.what());
            return 2;
        }
        const RunOutcome outcome =
            runOracle(*workloads[0], machines[0].config,
                      args.replaySeed, &schedule);
        if (outcome.ok) {
            std::printf("replay OK: %llu commits, no violation\n",
                        (unsigned long long) outcome.commits);
            return 0;
        }
        reportFailure(args, workloads[0]->name, machines[0].token,
                      args.replaySeed, outcome, outcome.fired);
        return 1;
    }

    // --- Sweep mode. ---
    std::uint64_t runs = 0;
    for (std::uint64_t seed = args.firstSeed;
         seed < args.firstSeed + args.seeds; ++seed) {
        for (const MachineChoice& machine : machines) {
            for (const WorkloadFactory* factory : workloads) {
                const RunOutcome outcome = runOracle(
                    *factory, machine.config, seed, nullptr);
                ++runs;
                if (outcome.ok)
                    continue;

                Schedule schedule = outcome.fired;
                unsigned evaluations = 0;
                if (!args.noShrink) {
                    // Hazard config and seed are held fixed across
                    // shrink evaluations: only the preemption
                    // schedule is minimized. A hazard-only livelock
                    // (schedule-independent) shrinks to the empty
                    // schedule.
                    const auto refails = [&](const Schedule& s) {
                        return !runOracle(*factory, machine.config,
                                          seed, &s)
                                    .ok;
                    };
                    ShrinkResult shrunk =
                        shrinkSchedule(refails, schedule);
                    schedule = std::move(shrunk.schedule);
                    evaluations = shrunk.evaluations;
                }
                // Re-run the minimized schedule to report *its*
                // outcome (reason and trace may differ from the
                // original fuzzed run's).
                const RunOutcome minimized = runOracle(
                    *factory, machine.config, seed, &schedule);
                const RunOutcome& report =
                    minimized.ok ? outcome : minimized;
                if (!args.quiet && !args.noShrink) {
                    std::printf("shrink: %zu -> %zu points (%u "
                                "oracle evaluations)\n",
                                outcome.fired.size(), schedule.size(),
                                evaluations);
                }
                reportFailure(args, factory->name, machine.token,
                              seed, report, schedule);
                if (args.expectFailure) {
                    if (minimized.ok) {
                        std::printf("self-test: shrunk schedule no "
                                    "longer fails\n");
                        return 1;
                    }
                    if (schedule.size() > args.maxShrunk) {
                        std::printf(
                            "self-test: shrunk to %zu points, over "
                            "the %zu bound\n",
                            schedule.size(), args.maxShrunk);
                        return 1;
                    }
                    std::printf("self-test: failure caught and "
                                "shrunk to %zu points\n",
                                schedule.size());
                    return 0;
                }
                return 1;
            }
        }
        if (!args.quiet && (seed - args.firstSeed + 1) % 25 == 0) {
            std::printf("... %llu/%llu seeds, %llu runs clean\n",
                        (unsigned long long)(seed - args.firstSeed +
                                             1),
                        (unsigned long long) args.seeds,
                        (unsigned long long) runs);
            std::fflush(stdout);
        }
    }

    if (args.expectFailure) {
        std::printf("self-test: no failure found in %llu runs\n",
                    (unsigned long long) runs);
        return 1;
    }
    if (!args.quiet) {
        std::printf("sweep clean: %llu runs (%llu seeds x %zu "
                    "machines x %zu workloads)\n",
                    (unsigned long long) runs,
                    (unsigned long long) args.seeds, machines.size(),
                    workloads.size());
    }
    return 0;
}
