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

#include <cstdio>
#include <string>
#include <vector>

#include "check/cli.hh"
#include "report.hh"

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

    // Per-machine geomeans, one row each (bench left empty).
    std::vector<CellRow> geomeans;
    std::printf("\n%-22s %8s %8s %8s %8s\n", "geomean", "htm",
                "lock", "ideal", "hybrid");
    for (const htm::MachineConfig& machine :
         htm::MachineConfig::all()) {
        const auto mean = [&](double CellRow::*column) {
            std::vector<double> values;
            for (const CellRow& row : rows) {
                if (row.machine == machine.name)
                    values.push_back(row.*column);
            }
            return bench::geomean(values);
        };
        geomeans.push_back({"", machine.name, mean(&CellRow::htm),
                            mean(&CellRow::lock), mean(&CellRow::ideal),
                            mean(&CellRow::hybrid)});
        const CellRow& g = geomeans.back();
        std::printf("%-22s %8.2f %8.2f %8.2f %8.2f\n",
                    g.machine.c_str(), g.htm, g.lock, g.ideal, g.hybrid);
    }

    if (!bench::writeReport(output_path, argc, argv, [&](auto& json) {
            // A row's machine and speed-ups; closes its object.
            const auto columns = [&json](const CellRow& row) {
                json.field("machine", row.machine)
                    .field("htm", row.htm)
                    .field("lock", row.lock)
                    .field("ideal", row.ideal)
                    .field("hybrid", row.hybrid)
                    .end();
            };
            json.field("threads", threads)
                .field("seed", seed)
                .key("cells")
                .beginArray();
            for (const CellRow& row : rows) {
                json.beginObject().field("bench", row.bench);
                columns(row);
            }
            json.end().key("geomeans").beginArray();
            for (const CellRow& row : geomeans) {
                json.beginObject();
                columns(row);
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
    return 0;
}
