/**
 * @file
 * Throughput degradation under deterministic hazard injection
 * (DESIGN.md Section on the hazard model; src/htm/hazard.hh).
 *
 * For each machine and each retry policy (the machine's paper default
 * vs the hardened starvation-proof policy), sweep the spurious
 * transient-abort probability from 0 to 1e-2 (the paper-relevant
 * range: real HTMs see spurious aborts from interrupts, TLB misses
 * and cache-geometry effects) plus two collapse points far past it,
 * and report speed-up, abort ratio, serialization and the hazard
 * attribution counters. The interesting shape: the default policies
 * degrade gracefully in-range but serialize hard at the collapse
 * points, while the hardened policy's watchdog bounds how much a
 * hazard storm can burn before the fallback lock restores progress.
 *
 * One representative benchmark (vacation-low: mid-size transactions,
 * real contention, runs on all four machines) at 4 threads, seed 1.
 */

#include <cstdio>

#include "suite.hh"

using namespace htmsim;
using namespace htmsim::bench;

int
main()
{
    SuiteRunner runner;
    const char* bench = "vacation-low";
    const double rates[] = {0.0, 1e-5, 1e-4, 1e-3, 1e-2, 0.05, 0.25};

    std::printf("Throughput vs spurious-abort rate "
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
                const Speedup result =
                    runner.run(bench, config, machine, 4, true, 1);
                const htm::TxStats& stats = result.tm.stats;
                std::printf("| %8.0e | %8.2f | %6.1f%% | %6.1f%% | "
                            "%6.1f%% | %9llu |\n",
                            rate, result.ratio,
                            stats.abortRatio() * 100.0,
                            stats.serializationRatio() * 100.0,
                            stats.wastedWorkRatio() * 100.0,
                            (unsigned long long) stats.hazardAborts());
                if (!result.tm.valid) {
                    std::printf("VERIFICATION FAILED at rate %g\n",
                                rate);
                    return 1;
                }
            }
        }
    }
    return 0;
}
