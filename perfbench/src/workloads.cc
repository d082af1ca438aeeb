#include "workloads.hh"

#include <exception>

#include "check/oracle.hh"
#include "check/workload.hh"
#include "htm/machine.hh"
#include "prof/profiler.hh"
#include "server/server.hh"
#include "suite.hh"

namespace htmsim::perfbench
{

namespace
{

using check::foldHash;

/** Metric-name labels of htm::MachineConfig::all(), in its order. */
const char* const machineLabels[] = {"BlueGeneQ", "zEC12", "IntelCore",
                                     "POWER8"};

// ---- stamp-grid ------------------------------------------------------

/**
 * The paper's Figure 2 cells: 10 STAMP apps x 4 machines at 4
 * simulated threads, in bench_perf's order, each under its machine's
 * first tuning candidate (the balanced default retry counts; BG/Q
 * short-running mode). One candidate, not all five or six, keeps a
 * pass under a second, so a timed run gives every cell some fifty
 * samples to take the fastest of: a shared host's speed swings for
 * tens of seconds at a time, and with every candidate (4 to 7 s a
 * pass) ten runs spread by 25 to 30 %.
 */
class StampGrid final : public Workload
{
  public:
    StampGrid(std::uint64_t seed, Tracer* tracer) : seed_(seed)
    {
        std::vector<unsigned> app_keys;
        for (const std::string& app : bench::suiteNames())
            app_keys.push_back(addKey("stamp.app_ms." + app));
        const auto& machines = htm::MachineConfig::all();
        for (std::size_t m = 0; m < machines.size(); ++m) {
            const unsigned machine_key =
                addKey(std::string("stamp.machine_ms.") + machineLabels[m]);
            std::vector<htm::RuntimeConfig> candidates;
            {
                Span span(tracer, "bench::SuiteRunner::tuningCandidates");
                candidates =
                    bench::SuiteRunner::tuningCandidates(machines[m]);
            }
            candidates.resize(1);
            for (std::size_t a = 0; a < bench::suiteNames().size(); ++a) {
                for (const htm::RuntimeConfig& config : candidates) {
                    units_.push_back(Unit{a, m, config});
                    unitKeys_.push_back({app_keys[a], machine_key});
                }
            }
        }
    }

    std::size_t size() const override { return units_.size(); }

    UnitOutcome
    run(std::size_t index, Tracer* tracer) override
    {
        const Unit& unit = units_[index];
        htm::RuntimeConfig config = unit.config;
        config.observer = tracer;
        UnitOutcome outcome;
        try {
            const bench::SuiteRunner runner(false);
            stamp::Speedup speedup;
            {
                Span span(tracer, "bench::SuiteRunner::run",
                          std::int64_t(index));
                speedup = runner.run(
                    bench::suiteNames()[unit.app], config,
                    htm::MachineConfig::all()[unit.machine], threads,
                    true, seed_);
            }
            outcome.ok = speedup.seq.valid && speedup.tm.valid;
            outcome.stats = speedup.tm.stats;
            outcome.hasStats = true;
            outcome.commits = speedup.tm.stats.totalCommits();
            std::uint64_t h = foldHash(0, speedup.seq.cycles);
            h = foldHash(h, speedup.tm.cycles);
            h = foldHash(h, outcome.commits);
            for (const std::uint64_t aborts :
                 speedup.tm.stats.trueCauseAborts)
                h = foldHash(h, aborts);
            outcome.digest = h;
        } catch (const std::exception&) {
            outcome.ok = false;
        }
        return outcome;
    }

  private:
    static constexpr unsigned threads = 4;

    struct Unit
    {
        std::size_t app;
        std::size_t machine;
        htm::RuntimeConfig config;
    };

    std::uint64_t seed_;
    std::vector<Unit> units_;
};

// ---- server-crowd ----------------------------------------------------

/** bench_server's "contended" traffic profile. */
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

/**
 * runServer at 256 clients under the contended profile, on every
 * machine with the htm, lock and hybrid backends, with txprof attached
 * as bench_server attaches it. Virtual-time traffic is open loop (mean
 * interarrival 256 cycles x clients); the host loop over cells is
 * closed.
 */
class ServerCrowd final : public Workload
{
  public:
    explicit ServerCrowd(std::uint64_t seed)
        : reportKey_(addKey("prof.report_ms"))
    {
        const struct
        {
            htm::BackendKind kind;
            const char* name;
        } backends[] = {{htm::BackendKind::htm, "htm"},
                        {htm::BackendKind::globalLock, "lock"},
                        {htm::BackendKind::hybrid, "hybrid"}};
        std::vector<unsigned> backend_keys;
        for (const auto& backend : backends)
            backend_keys.push_back(
                addKey(std::string("server.run_ms.") + backend.name));
        for (const htm::MachineConfig& machine : htm::MachineConfig::all()) {
            for (std::size_t b = 0; b < std::size(backends); ++b) {
                server::ServerConfig config;
                config.runtime = htm::RuntimeConfig(machine);
                config.runtime.backend = backends[b].kind;
                config.clients = clients;
                config.traffic = contendedTraffic();
                config.traffic.opsPerClient = opsPerClient;
                config.traffic.meanInterarrivalCycles =
                    std::uint64_t(256) * clients;
                config.seed = seed;
                configs_.push_back(config);
                unitKeys_.push_back({backend_keys[b]});
            }
        }
    }

    std::size_t size() const override { return configs_.size(); }

    UnitOutcome
    run(std::size_t index, Tracer* tracer) override
    {
        server::ServerConfig config = configs_[index];
        UnitOutcome outcome;
        try {
            prof::TxProfiler profiler;
            if (tracer != nullptr) {
                tracer->forwardTo(&profiler);
                config.observer = tracer;
            } else {
                config.observer = &profiler;
            }
            server::ServerResult result;
            {
                Span span(tracer, "server::runServer", std::int64_t(index));
                result = server::runServer(config);
            }
            if (tracer != nullptr)
                tracer->forwardTo(nullptr);
            const std::int64_t report_start = hostNs();
            {
                Span span(tracer, "prof::TxProfiler::report",
                          std::int64_t(index));
                const prof::ProfileReport report = profiler.report();
                (void) report;
            }
            charge(reportKey_, hostNs() - report_start);
            outcome.ok = result.invariantsOk;
            outcome.stats = result.stats;
            outcome.hasStats = true;
            outcome.commits = result.stats.totalCommits();
            outcome.ops = result.committedOps;
            std::uint64_t h = foldHash(0, result.latency.percentile(0.50));
            h = foldHash(h, result.latency.percentile(0.99));
            h = foldHash(h, result.latency.percentile(0.999));
            h = foldHash(h, result.queueDelay.percentile(0.50));
            h = foldHash(h, result.queueDelay.percentile(0.99));
            h = foldHash(h, result.queueDelay.percentile(0.999));
            outcome.digest = h;
        } catch (const std::exception&) {
            if (tracer != nullptr)
                tracer->forwardTo(nullptr);
            outcome.ok = false;
        }
        return outcome;
    }

  private:
    static constexpr unsigned clients = 256;
    static constexpr unsigned opsPerClient = 16;

    unsigned reportKey_;
    std::vector<server::ServerConfig> configs_;
};

// ---- oracle-sweep ----------------------------------------------------

/**
 * check::runDifferential over every check workload x machine for a
 * range of seeds, in check_runner's sweep order (seed, machine,
 * workload).
 */
class OracleSweep final : public Workload
{
  public:
    explicit OracleSweep(std::uint64_t seed)
    {
        const auto& factories = check::allWorkloads();
        std::vector<unsigned> workload_keys;
        for (const check::WorkloadFactory& factory : factories)
            workload_keys.push_back(
                addKey(std::string("check.workload_ms.") + factory.name));
        const std::uint64_t first_seed = (seed + 1) * seedsPerSweep;
        for (std::uint64_t s = first_seed; s < first_seed + seedsPerSweep;
             ++s) {
            for (std::size_t m = 0; m < htm::MachineConfig::all().size();
                 ++m) {
                for (std::size_t w = 0; w < factories.size(); ++w) {
                    units_.push_back(Unit{w, m, s});
                    unitKeys_.push_back({workload_keys[w]});
                }
            }
        }
    }

    std::size_t size() const override { return units_.size(); }

    UnitOutcome
    run(std::size_t index, Tracer* tracer) override
    {
        const Unit& unit = units_[index];
        UnitOutcome outcome;
        try {
            check::RunOutcome result;
            {
                Span span(tracer, "check::runDifferential",
                          std::int64_t(index));
                result = check::runDifferential(
                    check::allWorkloads()[unit.workload],
                    htm::MachineConfig::all()[unit.machine], unit.seed);
            }
            outcome.ok = result.ok;
            outcome.commits = result.commits;
            // Commits alone repeat across seeds (every op commits once);
            // the fired preemption schedule is what the seed drives.
            std::uint64_t h = foldHash(0, result.commits);
            for (const check::PreemptPoint& point : result.fired) {
                h = foldHash(h, point.tid);
                h = foldHash(h, point.index);
                h = foldHash(h, point.delay);
            }
            outcome.digest = h;
        } catch (const std::exception&) {
            outcome.ok = false;
        }
        return outcome;
    }

  private:
    /** check_runner's default --seeds. */
    static constexpr std::uint64_t seedsPerSweep = 25;

    struct Unit
    {
        std::size_t workload;
        std::size_t machine;
        std::uint64_t seed;
    };

    std::vector<Unit> units_;
};

} // namespace

void
Workload::chargeUnit(std::size_t index, std::int64_t ns)
{
    for (const unsigned key : unitKeys_[index])
        charge(key, ns);
}

unsigned
Workload::addKey(const std::string& key)
{
    keys_.push_back(key);
    keyMs_.push_back(0.0);
    return unsigned(keys_.size() - 1);
}

void
Workload::charge(unsigned key, std::int64_t ns)
{
    if (charging_)
        keyMs_[key] += double(ns) / 1e6;
}

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names = {
        "stamp-grid", "server-crowd", "oracle-sweep"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string& name, std::uint64_t seed, Tracer* tracer)
{
    if (name == "stamp-grid")
        return std::make_unique<StampGrid>(seed + 1, tracer);
    if (name == "server-crowd")
        return std::make_unique<ServerCrowd>(seed + 1);
    if (name == "oracle-sweep")
        return std::make_unique<OracleSweep>(seed);
    return nullptr;
}

} // namespace htmsim::perfbench
