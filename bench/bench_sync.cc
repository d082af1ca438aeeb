/**
 * @file
 * Sync-library benchmark: elision vs. TATAS vs. global lock across the
 * adversarial tmsync contention scenarios.
 *
 * Sweeps the four machine models x five scenarios (reader_heavy,
 * lock_convoy, mixed_waiters, shared_scan, ping_pong) x three lock
 * modes (elided, tatas, global-lock; ping_pong skips global-lock —
 * condvar wait cannot release a mutex the guard never acquired) and
 * reports guarded-section throughput, the fraction of sections that
 * committed on the speculative path, and the abort/serialization
 * ratios. Every cell runs under the liveness oracle (LivenessChecker)
 * with a txprof profiler riding along behind it, so the JSON can
 * attribute each mode's cycles to the scenario's transaction sites —
 * where the reader_heavy crossover comes from is a txprof question,
 * not a guess (EXPERIMENTS.md, "Sync-library elision").
 *
 * Usage: bench_sync [--smoke] [--seeds K] [-o OUT.json]
 *   --smoke:   one machine (Intel), short horizon — the CI
 *              quick-workflow variant.
 *   --seeds K: repeat every cell for seeds 1..K (one JSON row each).
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "check/cli.hh"
#include "check/liveness.hh"
#include "htm/machine.hh"
#include "prof/profiler.hh"
#include "prof/report.hh"
#include "report.hh"
#include "tmsync/scenarios.hh"

namespace
{

using namespace htmsim;

struct RunRow
{
    std::string machine;
    const char* scenario = "";
    const char* mode = "";
    std::uint64_t seed = 1;
    tmsync::ScenarioResult result;
    bool livenessOk = true;
    std::vector<prof::SiteProfile> topSites;
};

} // namespace

int
main(int argc, char** argv)
{
    std::string output_path = "BENCH_sync.json";
    bool smoke = false;
    unsigned num_seeds = 1;
    // The report records HTMSIM_SCALE: reject a malformed value before
    // the sweep, not after it.
    bench::workloadScale();
    cli::Args args(argc, argv);
    while (args.next()) {
        if (args.is("--smoke"))
            smoke = true;
        else if (args.is("--seeds"))
            num_seeds = args.number(1u, 100000u);
        else if (args.is("-o"))
            output_path = args.value();
        else
            args.unknown();
    }

    const unsigned threads = smoke ? 4 : 8;
    const unsigned ops_per_thread = smoke ? 40 : 200;
    const std::vector<tmsync::SyncMode> modes = {
        tmsync::SyncMode::elided, tmsync::SyncMode::tatas,
        tmsync::SyncMode::globalLock};
    std::vector<htm::MachineConfig> machines(
        htm::MachineConfig::all().begin(), htm::MachineConfig::all().end());
    if (smoke)
        machines = {htm::MachineConfig::intelCore()};

    std::printf("%-22s %-14s %-12s %6s %9s %8s %8s %8s\n", "machine",
                "scenario", "mode", "seed", "thru/kcyc", "sections",
                "elided%", "abort%");

    std::vector<RunRow> rows;
    unsigned liveness_failures = 0;
    for (const htm::MachineConfig& machine : machines) {
        for (unsigned s = 0; s < tmsync::numScenarios; ++s) {
            const tmsync::Scenario scenario =
                tmsync::allScenarios()[s];
            for (const tmsync::SyncMode mode : modes) {
                if (!tmsync::scenarioSupportsMode(scenario, mode))
                    continue;
                for (std::uint64_t seed = 1; seed <= num_seeds;
                     ++seed) {
                    tmsync::ScenarioConfig config;
                    config.runtime = htm::RuntimeConfig(machine);
                    config.scenario = scenario;
                    config.mode = mode;
                    config.threads = threads;
                    config.opsPerThread = ops_per_thread;
                    config.seed = seed;
                    prof::TxProfiler profiler;
                    check::LivenessChecker liveness(
                        threads, check::LivenessOptions{}, &profiler);
                    config.observer = &liveness;

                    RunRow row;
                    row.machine = machine.name;
                    row.scenario = tmsync::scenarioName(scenario);
                    row.mode = tmsync::syncModeName(mode);
                    row.seed = seed;
                    try {
                        row.result = tmsync::runScenario(config);
                    } catch (const check::LivenessViolation&) {
                        row.livenessOk = false;
                        ++liveness_failures;
                    }

                    row.topSites = profiler.report().sites;
                    row.topSites.resize(
                        std::min<std::size_t>(row.topSites.size(), 5));

                    const tmsync::ScenarioResult& r = row.result;
                    const double elided_pct =
                        r.sections == 0 ? 0.0 :
                        double(r.elidedSections) * 100.0 /
                            double(r.sections);
                    std::printf(
                        "%-22s %-14s %-12s %6llu %9.3f %8llu %7.1f%% "
                        "%7.1f%%%s\n",
                        row.machine.c_str(), row.scenario, row.mode,
                        (unsigned long long)seed,
                        r.throughputPerKcycle(),
                        (unsigned long long)r.sections, elided_pct,
                        r.stats.abortRatio() * 100.0,
                        row.livenessOk ? "" : "  [LIVENESS]");
                    std::fflush(stdout);
                    rows.push_back(std::move(row));
                }
            }
        }
    }

    // Headline sanity: on every elision-capable machine, the elided
    // reader_heavy cell should beat its TATAS sibling (elided readers
    // never write the lock word; TATAS readers pay two CASes per
    // section). Counted into the JSON, not fatal: the crossover claim
    // lives in the tests, the bench just reports it.
    unsigned reader_heavy_cells = 0;
    unsigned reader_heavy_elision_wins = 0;
    for (const htm::MachineConfig& machine : machines) {
        if (!machine.supportsElision())
            continue;
        double elided_thru = 0.0;
        double tatas_thru = 0.0;
        for (const RunRow& row : rows) {
            if (row.machine != machine.name ||
                std::strcmp(row.scenario, "reader_heavy") != 0)
                continue;
            if (std::strcmp(row.mode, "elided") == 0)
                elided_thru += row.result.throughputPerKcycle();
            else if (std::strcmp(row.mode, "tatas") == 0)
                tatas_thru += row.result.throughputPerKcycle();
        }
        ++reader_heavy_cells;
        if (elided_thru > tatas_thru)
            ++reader_heavy_elision_wins;
        std::printf("reader_heavy crossover %-22s elided %.3f %s "
                    "tatas %.3f /kcyc\n",
                    machine.name.c_str(),
                    elided_thru / double(num_seeds),
                    elided_thru > tatas_thru ? ">" : "<=",
                    tatas_thru / double(num_seeds));
    }

    if (!bench::writeReport(output_path, argc, argv, [&](auto& json) {
            json.field("threads", threads)
                .field("ops_per_thread", ops_per_thread)
                .field("seeds", num_seeds)
                .field("smoke", smoke)
                .key("runs")
                .beginArray();
            for (const RunRow& row : rows) {
                const tmsync::ScenarioResult& r = row.result;
                char checksum[24];
                std::snprintf(checksum, sizeof(checksum), "%016llx",
                              (unsigned long long)r.checksum);
                json.beginObject()
                    .field("machine", row.machine)
                    .field("scenario", row.scenario)
                    .field("mode", row.mode)
                    .field("seed", row.seed)
                    .field("sections", r.sections)
                    .field("elided_sections", r.elidedSections)
                    .field("horizon_cycles", r.horizonCycles)
                    .field("throughput_per_kcycle", r.throughputPerKcycle())
                    .field("checksum", checksum)
                    .field("liveness_ok", row.livenessOk)
                    .key("stats");
                prof::writeJson(json, r.stats);
                json.key("sites").beginArray();
                for (const prof::SiteProfile& site : row.topSites)
                    prof::writeJson(json, site);
                json.end().end();
            }
            json.end()
                .key("checks")
                .beginObject()
                .field("liveness_failures", liveness_failures)
                .field("reader_heavy_cells", reader_heavy_cells)
                .field("reader_heavy_elision_wins", reader_heavy_elision_wins)
                .end();
        }))
        return 1;

    std::printf("\nliveness failures: %u -> %s\n", liveness_failures,
                output_path.c_str());
    return liveness_failures == 0 ? 0 : 1;
}
