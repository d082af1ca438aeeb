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
#include <cstring>
#include <string>
#include <vector>

#include "htm/backend.hh"
#include "htm/machine.hh"
#include "prof/profiler.hh"
#include "server/server.hh"

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
    const char* output_path = "BENCH_server.json";
    bool smoke = false;
    server::IndexLockMode index_lock = server::IndexLockMode::none;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--index-lock") == 0 &&
                   i + 1 < argc) {
            if (!server::parseIndexLockMode(argv[++i], index_lock)) {
                std::fprintf(stderr,
                             "unknown --index-lock mode '%s' "
                             "(accepted: none elided tatas)\n",
                             argv[i]);
                return 2;
            }
        } else if (std::strcmp(argv[i], "-o") == 0 && i + 1 < argc) {
            output_path = argv[++i];
        } else {
            output_path = argv[i];
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
    std::vector<htm::MachineConfig> machines;
    if (smoke) {
        machines.push_back(htm::MachineConfig::intelCore());
    } else {
        for (const htm::MachineConfig& machine :
             htm::MachineConfig::all())
            machines.push_back(machine);
    }

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

                    const prof::ProfileReport report =
                        profiler.report();
                    const std::size_t keep =
                        report.sites.size() < 5 ? report.sites.size()
                                                : 5;
                    row.topSites.assign(report.sites.begin(),
                                        report.sites.begin() + keep);

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

    std::FILE* out = std::fopen(output_path, "w");
    if (out == nullptr) {
        std::perror(output_path);
        return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"schema\": \"htmsim-bench-server-v1\",\n"
                 "  \"seed\": %llu,\n"
                 "  \"ops_per_client\": %u,\n"
                 "  \"smoke\": %s,\n"
                 "  \"index_lock\": \"%s\",\n"
                 "  \"runs\": [\n",
                 (unsigned long long)seed, ops_per_client,
                 smoke ? "true" : "false",
                 server::indexLockModeName(index_lock));
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const RunRow& row = rows[i];
        const server::ServerResult& r = row.result;
        std::fprintf(
            out,
            "    {\"machine\": \"%s\", \"backend\": \"%s\", "
            "\"profile\": \"%s\", \"clients\": %u,\n"
            "     \"committed\": %llu, \"horizon_cycles\": %llu, "
            "\"throughput_per_kcycle\": %.4f,\n"
            "     \"latency\": {\"mean\": %.1f, \"p50\": %llu, "
            "\"p99\": %llu, \"p999\": %llu, \"max\": %llu},\n"
            "     \"queue_delay_p99\": %llu,\n"
            "     \"abort_ratio\": %.4f, "
            "\"serialization_ratio\": %.4f, "
            "\"invariants_ok\": %s,\n"
            "     \"index_guard_sections\": %llu, "
            "\"index_guard_elided\": %llu,\n"
            "     \"sites\": [",
            row.machine.c_str(), row.backend.c_str(),
            row.profile.c_str(), row.clients,
            (unsigned long long)r.committedOps,
            (unsigned long long)r.horizonCycles,
            r.throughputPerKcycle(), r.latency.mean(),
            (unsigned long long)r.latency.percentile(0.50),
            (unsigned long long)r.latency.percentile(0.99),
            (unsigned long long)r.latency.percentile(0.999),
            (unsigned long long)r.latency.max(),
            (unsigned long long)r.queueDelay.percentile(0.99),
            r.stats.abortRatio(), r.stats.serializationRatio(),
            r.invariantsOk ? "true" : "false",
            (unsigned long long)r.indexGuardSections,
            (unsigned long long)r.indexGuardElided);
        for (std::size_t s = 0; s < row.topSites.size(); ++s) {
            const prof::SiteProfile& site = row.topSites[s];
            std::fprintf(
                out,
                "%s\n       {\"site\": \"%s\", \"attempts\": %llu, "
                "\"commits\": %llu, \"aborts\": %llu, "
                "\"fallbacks\": %llu, \"committed_cycles\": %llu, "
                "\"wasted_cycles\": %llu, \"stall_cycles\": %llu, "
                "\"lock_wait_cycles\": %llu}",
                s == 0 ? "" : ",", site.name.c_str(),
                (unsigned long long)site.attempts,
                (unsigned long long)site.commits,
                (unsigned long long)site.aborts,
                (unsigned long long)site.fallbackCommits,
                (unsigned long long)site.committedCycles,
                (unsigned long long)site.wastedCycles,
                (unsigned long long)site.stallCycles,
                (unsigned long long)site.lockWaitCycles);
        }
        std::fprintf(out, "]}%s\n", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out,
                 "  ],\n"
                 "  \"checks\": {\"invariant_failures\": %u}\n"
                 "}\n",
                 invariant_failures);
    std::fclose(out);

    std::printf("\ninvariant failures: %u -> %s\n", invariant_failures,
                output_path);
    return invariant_failures == 0 ? 0 : 1;
}
