/**
 * @file
 * Backend comparison (Section 3 context): for every machine x STAMP
 * cell at four threads, the speed-up of the real best-effort HTM
 * (tuned over the retry grid), the global-lock-only fallback (every
 * atomic section irrevocable under the single lock), and the ideal-HTM
 * oracle (no capacity limits, no begin/end overhead, tuned likewise).
 *
 * The lock-only column bounds what serialization alone achieves (it
 * cannot meaningfully exceed 1x at four threads); the ideal column
 * bounds what any best-effort HTM could achieve on the same conflict
 * structure; the hybrid column replaces most global-lock fallbacks
 * with a concurrent software slow path (stm.hh). Emits
 * BENCH_backends.json with per-machine geomeans and the two sanity
 * checks.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "suite.hh"

namespace
{

using namespace htmsim;
using htm::BackendKind;

struct CellRow
{
    std::string bench;
    std::string machine;
    double htm = 0.0;
    double lock = 0.0;
    double ideal = 0.0;
    double hybrid = 0.0;
};

double
geomean(const std::vector<double>& values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (const double value : values)
        log_sum += std::log(value);
    return std::exp(log_sum / double(values.size()));
}

} // namespace

int
main(int argc, char** argv)
{
    const char* output_path = "BENCH_backends.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "-o") == 0 && i + 1 < argc)
            output_path = argv[++i];
        else
            output_path = argv[i];
    }
    const unsigned threads = 4;
    const std::uint64_t seed = 1;
    const bench::SuiteRunner runner;

    std::printf("%-14s %-22s %8s %8s %8s %8s\n", "benchmark",
                "machine", "htm", "lock", "ideal", "hybrid");

    std::vector<CellRow> rows;
    unsigned lock_violations = 0;
    unsigned ideal_violations = 0;
    for (const htm::MachineConfig& machine :
         htm::MachineConfig::all()) {
        for (const std::string& bench : bench::suiteNames()) {
            CellRow row;
            row.bench = bench;
            row.machine = machine.name;
            // Best speed-up over the tuning grid with one backend
            // (a single run for the lock, which never retries).
            auto tuned = [&](BackendKind backend) {
                return runner
                    .tune(bench, machine, threads,
                          [&](htm::RuntimeConfig& config) {
                              config.backend = backend;
                          },
                          true, seed)
                    .result.ratio;
            };
            row.htm = tuned(BackendKind::htm);
            row.lock = tuned(BackendKind::globalLock);
            row.ideal = tuned(BackendKind::idealHtm);
            row.hybrid = tuned(BackendKind::hybrid);

            const bool lock_bad = row.lock > 1.05;
            const bool ideal_bad = row.ideal < row.htm;
            lock_violations += lock_bad ? 1 : 0;
            ideal_violations += ideal_bad ? 1 : 0;
            std::printf("%-14s %-22s %8.2f %8.2f %8.2f %8.2f%s%s\n",
                        bench.c_str(), machine.name.c_str(), row.htm,
                        row.lock, row.ideal, row.hybrid,
                        lock_bad ? "  [lock > 1.05]" : "",
                        ideal_bad ? "  [ideal < htm]" : "");
            std::fflush(stdout);
            rows.push_back(std::move(row));
        }
    }

    std::FILE* out = std::fopen(output_path, "w");
    if (out == nullptr) {
        std::perror(output_path);
        return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"schema\": \"htmsim-bench-backends-v1\",\n"
                 "  \"threads\": %u,\n"
                 "  \"seed\": %llu,\n"
                 "  \"scale\": %.3f,\n"
                 "  \"cells\": [\n",
                 threads, (unsigned long long)seed,
                 bench::workloadScale());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const CellRow& row = rows[i];
        std::fprintf(out,
                     "    {\"bench\": \"%s\", \"machine\": \"%s\", "
                     "\"htm\": %.4f, \"lock\": %.4f, "
                     "\"ideal\": %.4f, \"hybrid\": %.4f}%s\n",
                     row.bench.c_str(), row.machine.c_str(), row.htm,
                     row.lock, row.ideal, row.hybrid,
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n  \"geomeans\": [\n");
    std::size_t machine_index = 0;
    const auto& machines = htm::MachineConfig::all();
    std::printf("\n%-22s %8s %8s %8s %8s\n", "geomean", "htm",
                "lock", "ideal", "hybrid");
    for (const htm::MachineConfig& machine : machines) {
        std::vector<double> htm_values;
        std::vector<double> lock_values;
        std::vector<double> ideal_values;
        std::vector<double> hybrid_values;
        for (const CellRow& row : rows) {
            if (row.machine != machine.name)
                continue;
            htm_values.push_back(row.htm);
            lock_values.push_back(row.lock);
            ideal_values.push_back(row.ideal);
            hybrid_values.push_back(row.hybrid);
        }
        const double g_htm = geomean(htm_values);
        const double g_lock = geomean(lock_values);
        const double g_ideal = geomean(ideal_values);
        const double g_hybrid = geomean(hybrid_values);
        std::printf("%-22s %8.2f %8.2f %8.2f %8.2f\n",
                    machine.name.c_str(), g_htm, g_lock, g_ideal,
                    g_hybrid);
        std::fprintf(out,
                     "    {\"machine\": \"%s\", \"htm\": %.4f, "
                     "\"lock\": %.4f, \"ideal\": %.4f, "
                     "\"hybrid\": %.4f}%s\n",
                     machine.name.c_str(), g_htm, g_lock, g_ideal,
                     g_hybrid,
                     ++machine_index < machines.size() ? "," : "");
    }
    std::fprintf(out,
                 "  ],\n"
                 "  \"checks\": {\"lock_speedup_above_1.05\": %u, "
                 "\"ideal_below_htm\": %u}\n"
                 "}\n",
                 lock_violations, ideal_violations);
    std::fclose(out);

    std::printf("\nchecks: lock>1.05 violations %u, ideal<htm "
                "violations %u -> %s\n",
                lock_violations, ideal_violations, output_path);
    return 0;
}
