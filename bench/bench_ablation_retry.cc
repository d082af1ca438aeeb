/**
 * @file
 * Design ablations beyond the paper's figures:
 *
 *  1. conflict-resolution policy (attacker-wins, the hardware
 *     behaviour, vs attacker-loses vs older-wins arbitration);
 *  2. the paper's three-counter retry mechanism vs a single shared
 *     counter (what Blue Gene/Q's system software does) — Section 3
 *     argues lock conflicts deserve their own counter;
 *  3. eager vs lazy lock subscription (Blue Gene/Q long-running mode
 *     checks the lock only at commit [12]).
 */

#include <cstdio>

#include "suite.hh"

using namespace htmsim;
using namespace htmsim::bench;
using htm::ConflictPolicy;

int
main()
{
    SuiteRunner runner;
    const MachineConfig intel = MachineConfig::intelCore();
    const MachineConfig bgq = MachineConfig::blueGeneQ();

    std::printf("Ablation 1: conflict-resolution policy "
                "(Intel Core, 4 threads, intruder)\n");
    std::printf("%-16s %10s %10s\n", "policy", "speed-up", "abort %");
    for (const auto& [policy, name] :
         {std::pair{ConflictPolicy::attackerWins, "attacker-wins"},
          std::pair{ConflictPolicy::attackerLoses, "attacker-loses"},
          std::pair{ConflictPolicy::olderWins, "older-wins"}}) {
        RuntimeConfig config{intel};
        config.policy = policy;
        const Speedup result =
            runner.run("intruder", config, intel, 4, true, 1);
        std::printf("%-16s %10.2f %10.1f\n", name, result.ratio,
                    result.tm.stats.abortRatio() * 100.0);
    }

    std::printf("\nAblation 2: three retry counters vs one "
                "(Intel Core, 4 threads)\n");
    std::printf("%-14s %-22s %10s %8s\n", "benchmark", "counters",
                "speed-up", "serial%");
    for (const std::string& bench :
         {std::string("vacation-high"), std::string("yada")}) {
        {
            // Paper's mechanism: separate lock/persistent/transient.
            const Speedup result = runner.measure(bench, intel, 4);
            std::printf("%-14s %-22s %10.2f %8.1f\n", bench.c_str(),
                        "three (tuned)", result.ratio,
                        result.tm.stats.serializationRatio() * 100.0);
        }
        {
            // Single counter: all abort kinds share one budget,
            // emulated by setting all three counters equal.
            Speedup best;
            bool first = true;
            for (const int budget : {2, 4, 8, 16}) {
                RuntimeConfig config{intel};
                config.retry = {budget, budget, budget};
                const Speedup current =
                    runner.run(bench, config, intel, 4, true, 1);
                if (first || current.ratio > best.ratio) {
                    best = current;
                    first = false;
                }
            }
            std::printf("%-14s %-22s %10.2f %8.1f\n", bench.c_str(),
                        "single (tuned)", best.ratio,
                        best.tm.stats.serializationRatio() * 100.0);
        }
    }

    std::printf("\nAblation 3: eager vs lazy lock subscription "
                "(Blue Gene/Q modes, 4 threads)\n");
    std::printf("%-14s %-14s %10s %8s\n", "benchmark", "mode",
                "speed-up", "abort %");
    for (const std::string& bench :
         {std::string("kmeans-high"), std::string("genome")}) {
        for (const auto& [mode, name] :
             {std::pair{htm::BgqMode::shortRunning, "short/eager"},
              std::pair{htm::BgqMode::longRunning, "long/lazy"}}) {
            RuntimeConfig config{bgq};
            config.bgq.mode = mode;
            const Speedup result =
                runner.run(bench, config, bgq, 4, true, 1);
            std::printf("%-14s %-14s %10.2f %8.1f\n", bench.c_str(),
                        name, result.ratio,
                        result.tm.stats.abortRatio() * 100.0);
        }
    }
    return 0;
}
