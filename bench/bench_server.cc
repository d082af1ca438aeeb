/**
 * @file
 * Server benchmark: tail latency of the TM-backed KV/OLTP store.
 *
 * Sweeps the four machine models x four backends (best-effort HTM,
 * global-lock-only, ideal HTM, hybrid HTM+STM) x two traffic profiles at 64 and 256
 * open-loop clients, and reports committed-transaction throughput plus
 * virtual-time latency percentiles (p50/p99/p999, first attempt ->
 * commit). A txprof profiler rides along on every run (it is
 * zero-perturbation by construction) so the JSON can attribute tail
 * cycles to the per-op transaction sites — which op class owns the
 * p999 and whether it is wasted (aborted) work, fallback
 * serialization, or lock waiting.
 *
 * The "contended" profile is the paper-style stress case: a hot
 * Zipfian working set with heavy read-modify-write and multi-key
 * transfer traffic. There the backend choice barely moves p50 (most
 * transactions still commit first-try) but separates p999 by an order
 * of magnitude — the experiment EXPERIMENTS.md Section "Server tail
 * latency" discusses.
 *
 * Usage: bench_server [--smoke] [--index-lock MODE] [-o OUT.json]
 *   --smoke: one machine (Intel), 64 clients, short horizon — the CI
 *            quick-workflow variant.
 *   --index-lock elided|tatas|none: guard ordered-index range scans
 *            (shared) and index-mutating put/rmw (exclusive) with a
 *            tmsync::atomic_shared_mutex in the given mode; "none"
 *            (the default) is the plain TM-only server.
 */

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "check/cli.hh"
#include "htm/backend.hh"
#include "htm/machine.hh"
#include "prof/profiler.hh"
#include "prof/report.hh"
#include "report.hh"
#include "server/server.hh"
#include "tmsync/sync_mode.hh"

namespace
{

using namespace htmsim;

struct Profile
{
    const char* name;
    server::TrafficConfig traffic;
};

/** Read-mostly OLTP mix over a comfortably sized key space. */
server::TrafficConfig
readMostlyTraffic()
{
    server::TrafficConfig traffic;
    traffic.numKeys = 4096;
    traffic.numAccounts = 256;
    traffic.zipfTheta = 0.8;
    traffic.getWeight = 70;
    traffic.putWeight = 15;
    traffic.rmwWeight = 8;
    traffic.transferWeight = 4;
    traffic.scanWeight = 3;
    traffic.transferSpan = 2;
    traffic.scanLen = 8;
    return traffic;
}

/** Hot-spot stress: small key space, steep skew, write-heavy mix. */
server::TrafficConfig
contendedTraffic()
{
    server::TrafficConfig traffic;
    traffic.numKeys = 512;
    traffic.numAccounts = 64;
    traffic.zipfTheta = 0.95;
    traffic.getWeight = 30;
    traffic.putWeight = 10;
    traffic.rmwWeight = 30;
    traffic.transferWeight = 25;
    traffic.scanWeight = 5;
    traffic.transferSpan = 4;
    traffic.scanLen = 8;
    return traffic;
}

struct RunRow
{
    std::string machine;
    std::string backend;
    std::string profile;
    unsigned clients = 0;
    server::ServerResult result;
    std::vector<prof::SiteProfile> topSites;
};

} // namespace

int
main(int argc, char** argv)
{
    std::string output_path = "BENCH_server.json";
    bool smoke = false;
    std::optional<tmsync::SyncMode> index_lock;
    // The report records HTMSIM_SCALE: reject a malformed value before
    // the sweep, not after it.
    bench::workloadScale();
    cli::Args args(argc, argv);
    while (args.next()) {
        if (args.is("--smoke")) {
            smoke = true;
        } else if (args.is("--index-lock")) {
            const std::string name = args.value();
            tmsync::SyncMode mode{};
            if (name == "none")
                index_lock.reset();
            else if (tmsync::parseSyncMode(name, mode) &&
                     mode != tmsync::SyncMode::globalLock)
                index_lock = mode;
            else
                args.invalid("none elided tatas");
        } else if (args.is("-o")) {
            output_path = args.value();
        } else {
            args.unknown();
        }
    }

    const std::uint64_t seed = 1;
    const unsigned ops_per_client = smoke ? 16 : 64;
    const std::vector<unsigned> client_counts =
        smoke ? std::vector<unsigned>{64}
              : std::vector<unsigned>{64, 256};
    const std::vector<htm::BackendKind> backends = {
        htm::BackendKind::htm, htm::BackendKind::globalLock,
        htm::BackendKind::idealHtm, htm::BackendKind::hybrid};
    const std::vector<Profile> profiles = {
        {"readmostly", readMostlyTraffic()},
        {"contended", contendedTraffic()},
    };
    std::vector<htm::MachineConfig> machines(
        htm::MachineConfig::all().begin(), htm::MachineConfig::all().end());
    if (smoke)
        machines = {htm::MachineConfig::intelCore()};

    std::printf("%-22s %-6s %-11s %8s %10s %10s %10s %10s %8s\n",
                "machine", "bkend", "profile", "clients", "thru/kcyc",
                "p50", "p99", "p999", "abort%");

    std::vector<RunRow> rows;
    unsigned invariant_failures = 0;
    for (const htm::MachineConfig& machine : machines) {
        for (const Profile& profile : profiles) {
            for (const unsigned clients : client_counts) {
                for (const htm::BackendKind backend : backends) {
                    server::ServerConfig config;
                    config.runtime = htm::RuntimeConfig(machine);
                    config.runtime.backend = backend;
                    config.clients = clients;
                    config.traffic = profile.traffic;
                    config.traffic.opsPerClient = ops_per_client;
                    // Constant aggregate offered load: one request
                    // per 256 cycles across however many clients —
                    // moderate utilization, so median latency stays
                    // near raw service time and the backends separate
                    // in the tail rather than in queueing.
                    config.traffic.meanInterarrivalCycles =
                        std::uint64_t(256) * clients;
                    config.seed = seed;
                    config.indexLock = index_lock;
                    prof::TxProfiler profiler;
                    config.observer = &profiler;

                    RunRow row;
                    row.machine = machine.name;
                    row.backend = htm::backendKindName(backend);
                    row.profile = profile.name;
                    row.clients = clients;
                    row.result = server::runServer(config);

                    row.topSites = profiler.report().sites;
                    row.topSites.resize(
                        std::min<std::size_t>(row.topSites.size(), 5));

                    if (!row.result.invariantsOk)
                        ++invariant_failures;
                    std::printf(
                        "%-22s %-6s %-11s %8u %10.3f %10llu %10llu "
                        "%10llu %7.1f%%%s\n",
                        row.machine.c_str(), row.backend.c_str(),
                        row.profile.c_str(), clients,
                        row.result.throughputPerKcycle(),
                        (unsigned long long)
                            row.result.latency.percentile(0.50),
                        (unsigned long long)
                            row.result.latency.percentile(0.99),
                        (unsigned long long)
                            row.result.latency.percentile(0.999),
                        row.result.stats.abortRatio() * 100.0,
                        row.result.invariantsOk ? ""
                                                : "  [INVARIANTS]");
                    std::fflush(stdout);
                    rows.push_back(std::move(row));
                }
            }
        }
    }

    if (!bench::writeReport(output_path, argc, argv, [&](auto& json) {
            json.field("seed", seed)
                .field("ops_per_client", ops_per_client)
                .field("smoke", smoke)
                .field("index_lock",
                       index_lock ? tmsync::syncModeName(*index_lock)
                                  : "none")
                .key("runs")
                .beginArray();
            for (const RunRow& row : rows) {
                const server::ServerResult& r = row.result;
                json.beginObject()
                    .field("machine", row.machine)
                    .field("backend", row.backend)
                    .field("profile", row.profile)
                    .field("clients", row.clients)
                    .field("committed", r.committedOps)
                    .field("horizon_cycles", r.horizonCycles)
                    .field("throughput_per_kcycle", r.throughputPerKcycle())
                    .key("latency")
                    .beginObject()
                    .field("mean", r.latency.mean())
                    .field("p50", r.latency.percentile(0.50))
                    .field("p99", r.latency.percentile(0.99))
                    .field("p999", r.latency.percentile(0.999))
                    .field("max", r.latency.max())
                    .end()
                    .field("queue_delay_p99", r.queueDelay.percentile(0.99))
                    .field("invariants_ok", r.invariantsOk)
                    .field("index_guard_sections", r.indexGuardSections)
                    .field("index_guard_elided", r.indexGuardElided)
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
                .field("invariant_failures", invariant_failures)
                .end();
        }))
        return 1;

    std::printf("\ninvariant failures: %u -> %s\n", invariant_failures,
                output_path.c_str());
    return invariant_failures == 0 ? 0 : 1;
}
