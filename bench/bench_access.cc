/**
 * @file
 * Standalone per-access cost microbenchmark (see access_micro.hh).
 *
 * Prints one row per (pattern, thread count) cell: host ns per
 * simulated access, throughput, and the simulated commit/abort
 * totals that pin the workload shape. `--no-batch` disables the
 * epoch-batched sync() fast path (DESIGN.md Section 5) so its effect
 * on per-access cost is directly visible:
 *
 *   bench_access             # batched (default)
 *   bench_access --no-batch  # every scheduling point takes the slow path
 */

#include <cstdio>
#include <cstring>

#include "access_micro.hh"
#include "htm/machine.hh"

int
main(int argc, char** argv)
{
    using namespace htmsim;

    bool batch = true;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--no-batch") == 0) {
            batch = false;
        } else {
            std::fprintf(stderr, "usage: %s [--no-batch]\n", argv[0]);
            return 2;
        }
    }

    // One representative machine: the per-access overhead being
    // measured is machine-independent scheduler/runtime cost.
    htm::RuntimeConfig config{htm::MachineConfig::intelCore()};
    config.batchEpoch = batch;

    std::printf("bench_access (epoch batching %s)\n",
                batch ? "on" : "off");
    std::printf("%-12s %8s %12s %10s %10s %10s\n", "pattern",
                "threads", "accesses", "ns/access", "commits",
                "aborts");
    for (const bench::AccessResult& row :
         bench::runAccessSweep(config)) {
        std::printf("%-12s %8u %12llu %10.1f %10llu %10llu\n",
                    row.pattern, row.threads,
                    (unsigned long long)row.accesses,
                    row.nsPerAccess(),
                    (unsigned long long)row.commits,
                    (unsigned long long)row.aborts);
    }
    return 0;
}
