/**
 * @file
 * Shared plumbing for the experiment benches: the STAMP suite
 * registry, per-cell retry-count tuning (the paper tunes the three
 * retry counters per machine x benchmark x thread count, and mode +
 * retry count on Blue Gene/Q), and table formatting.
 */

#ifndef HTMSIM_BENCH_SUITE_HH
#define HTMSIM_BENCH_SUITE_HH

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "htm/function_ref.hh"
#include "stamp/bayes/bayes.hh"
#include "stamp/genome/genome.hh"
#include "stamp/harness.hh"
#include "stamp/intruder/intruder.hh"
#include "stamp/kmeans/kmeans.hh"
#include "stamp/labyrinth/labyrinth.hh"
#include "stamp/ssca2/ssca2.hh"
#include "stamp/vacation/vacation.hh"
#include "stamp/yada/yada.hh"

namespace htmsim::bench
{

using htm::MachineConfig;
using htm::RuntimeConfig;
using stamp::RunResult;
using stamp::Speedup;

/** The paper's benchmark order (Figures 2/3). */
inline const std::vector<std::string>&
suiteNames()
{
    static const std::vector<std::string> names = {
        "bayes",         "genome",       "intruder",
        "kmeans-high",   "kmeans-low",   "labyrinth",
        "ssca2",         "vacation-high", "vacation-low",
        "yada"};
    return names;
}

/**
 * Scale factor from HTMSIM_SCALE (default 1.0) for workload sizes.
 * Anything but a finite number > 0 is rejected: a typo must not
 * silently shrink every workload to its floor.
 */
inline double
workloadScale()
{
    const char* env = std::getenv("HTMSIM_SCALE");
    if (env == nullptr)
        return 1.0;
    char* end = nullptr;
    const double scale = std::strtod(env, &end);
    if (end == env || *end != '\0' || !std::isfinite(scale) ||
        scale <= 0.0) {
        std::fprintf(stderr,
                     "HTMSIM_SCALE='%s': expected a finite number > 0\n",
                     env);
        std::exit(2);
    }
    return scale;
}

/** Geometric mean of @p values (0 when empty). */
inline double
geomean(const std::vector<double>& values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (const double value : values)
        log_sum += std::log(value);
    return std::exp(log_sum / double(values.size()));
}

/** @p base times workloadScale(), but never below @p floor (the least
 *  the app's verify needs; no floor binds at scale 1). */
inline unsigned
scaled(unsigned base, unsigned floor = 1)
{
    const double value = double(base) * workloadScale();
    return std::max(floor, unsigned(value));
}

/**
 * Run one (benchmark, machine, threads) cell: the transactional run
 * for each tuning candidate, keeping the best — the paper's
 * methodology of reporting each machine at its optimal retry counts —
 * each measured against the cell's one sequential baseline. A runner
 * runs each distinct baseline once and hands it to every later run of
 * the cell, whatever its candidate, backend or thread count; that
 * memo makes a runner unsafe to share between host threads.
 */
class SuiteRunner
{
  public:
    explicit SuiteRunner(bool tune = true) : tune_(tune) {}

    /** A tuned cell: the winning runtime config and its result. */
    struct Tuned
    {
        RuntimeConfig config;
        Speedup result;
    };

    /**
     * Run the tuning grid for one cell, passing each candidate through
     * @p adjust first, and return the best speed-up with its config.
     * Ties keep the earlier candidate. The lock and hle backends read
     * no retry count (and Blue Gene/Q never elides), so they run only
     * the first candidate, as does a runner built with tune = false.
     */
    Tuned
    tune(const std::string& bench, const MachineConfig& machine,
         unsigned threads, htm::FunctionRef<void(RuntimeConfig&)> adjust,
         bool modified = true, std::uint64_t seed = 1) const
    {
        const bool verbose = std::getenv("HTMSIM_VERBOSE") != nullptr;
        Tuned best;
        bool first = true;
        for (RuntimeConfig config : tuningCandidates(machine)) {
            adjust(config);
            const Speedup current =
                run(bench, config, machine, threads, modified, seed);
            if (verbose) {
                std::printf(
                    "  [tune] %s %s t%u lock=%d pers=%d trans=%d "
                    "bgq(mode=%d,r=%d): speedup %.2f abort %.0f%% "
                    "serial %.0f%%\n",
                    bench.c_str(), machine.name.c_str(), threads,
                    config.retry.lockRetries,
                    config.retry.persistentRetries,
                    config.retry.transientRetries,
                    int(config.bgq.mode), config.bgq.maxRetries,
                    current.ratio,
                    current.tm.stats.abortRatio() * 100.0,
                    current.tm.stats.serializationRatio() * 100.0);
                std::printf(
                    "         seq=%llu tm=%llu commits=%llu "
                    "(htm=%llu irr=%llu) aborts=%llu\n",
                    (unsigned long long)current.seq.cycles,
                    (unsigned long long)current.tm.cycles,
                    (unsigned long long)
                        current.tm.stats.totalCommits(),
                    (unsigned long long)current.tm.stats.htmCommits,
                    (unsigned long long)
                        current.tm.stats.irrevocableCommits,
                    (unsigned long long)
                        current.tm.stats.totalAborts());
                std::printf("         causes:");
                for (std::size_t i = 0;
                     i < current.tm.stats.trueCauseAborts.size(); ++i) {
                    if (current.tm.stats.trueCauseAborts[i] > 0) {
                        std::printf(
                            " %s=%llu",
                            htm::abortCauseName(htm::AbortCause(i)),
                            (unsigned long long)current.tm.stats
                                .trueCauseAborts[i]);
                    }
                }
                std::printf("\n");
            }
            if (first || current.ratio > best.result.ratio) {
                best = {config, current};
                first = false;
            }
            if (!tune_ || config.backend == htm::BackendKind::globalLock ||
                config.backend == htm::BackendKind::hle)
                break;
        }
        return best;
    }

    /** Single run with an explicit runtime config (ablations). */
    Speedup
    run(const std::string& bench, RuntimeConfig config,
        const MachineConfig& machine, unsigned threads, bool modified,
        std::uint64_t seed) const
    {
        config.machine = machine;
        const RunResult seq =
            baseline(bench, machine, modified, seed, config.batchEpoch);
        return withApp<Speedup>(
            bench, machine, modified, [&](auto make_app) {
                return stamp::measureSpeedup(make_app, config, threads,
                                             seq, seed);
            });
    }

    /**
     * The sequential baseline of one cell. The first call for an (app,
     * variant, machine, seed, workload scale, batching) runs it; later
     * calls hand out that run.
     */
    RunResult
    baseline(const std::string& bench, const MachineConfig& machine,
             bool modified = true, std::uint64_t seed = 1,
             bool batch_epoch = true) const
    {
        BaselineKey key{bench, machine, modified, seed, workloadScale(),
                        batch_epoch};
        for (const auto& [known, result] : baselines_) {
            if (known == key)
                return result;
        }
        RunResult result =
            withApp<RunResult>(bench, machine, modified, [&](auto make_app) {
                auto app = make_app();
                return stamp::runSequential(app, machine, seed,
                                            batch_epoch);
            });
        baselines_.emplace_back(std::move(key), result);
        return result;
    }

    // ---- Scaled workload parameters ---------------------------------

    static stamp::BayesParams
    bayesParams()
    {
        stamp::BayesParams params;
        // Verify wants a learned edge: two variables, and enough
        // records for its likelihood gain to clear the BIC penalty.
        params.numVars = scaled(12, 2);
        params.numRecords = scaled(192, 32);
        return params;
    }

    static stamp::GenomeParams
    genomeParams(const MachineConfig& machine, bool modified)
    {
        stamp::GenomeParams params =
            modified ? stamp::GenomeParams::tuned(machine.vendor)
                     : stamp::GenomeParams::original();
        // At least one whole segment (read) must fit in the gene.
        params.geneLength = scaled(3072, params.segmentLength);
        params.extraDuplicates = scaled(1536);
        return params;
    }

    static stamp::IntruderParams
    intruderParams()
    {
        stamp::IntruderParams params;
        params.numFlows = scaled(192);
        return params;
    }

    static stamp::KmeansParams
    kmeansParams(bool high, bool modified,
                 const MachineConfig& machine)
    {
        stamp::KmeansParams params =
            high ? stamp::KmeansParams::highContention(modified)
                 : stamp::KmeansParams::lowContention(modified);
        params.numPoints = scaled(768);
        params.iterations = 5;
        // The paper's alignment patch pads to the platform's line.
        params.alignBytes =
            std::max<unsigned>(128,
                               unsigned(machine.capacityLineBytes));
        return params;
    }

    static stamp::LabyrinthParams
    labyrinthParams()
    {
        stamp::LabyrinthParams params;
        // 26x26x2 cells x 8 B = 10.8 KB of grid copy: over POWER8's
        // 8 KB budget (every route serializes there, as in the paper)
        // while still far under the other machines' load capacities.
        // A 2x2x2 grid still holds the endpoints of one path.
        params.width = scaled(26, 2);
        params.height = scaled(26, 2);
        params.numPaths = scaled(16);
        return params;
    }

    static stamp::Ssca2Params
    ssca2Params()
    {
        stamp::Ssca2Params params;
        // An edge joins two distinct vertices.
        params.numVertices = scaled(400, 2);
        params.numEdges = scaled(3200);
        return params;
    }

    static stamp::VacationParams
    vacationParams(bool high)
    {
        stamp::VacationParams params = high
                                           ? stamp::VacationParams::high()
                                           : stamp::VacationParams::low();
        params.relationSize = scaled(1024);
        params.numCustomers = scaled(256);
        params.totalTx = scaled(900);
        return params;
    }

    static stamp::YadaParams
    yadaParams()
    {
        stamp::YadaParams params;
        params.gridX = scaled(9);
        params.gridY = scaled(9);
        params.pointBudget = scaled(160);
        return params;
    }

    /** The tuning grid: Fig-1 retry-count presets, or BGQ modes. */
    static std::vector<RuntimeConfig>
    tuningCandidates(const MachineConfig& machine)
    {
        std::vector<RuntimeConfig> result;
        RuntimeConfig base{machine};
        if (machine.vendor == htm::Vendor::blueGeneQ) {
            for (const auto mode :
                 {htm::BgqMode::shortRunning, htm::BgqMode::longRunning}) {
                for (const int retries : {3, 10, 32}) {
                    RuntimeConfig config = base;
                    config.bgq.mode = mode;
                    config.bgq.maxRetries = retries;
                    result.push_back(config);
                }
            }
            return result;
        }
        const htm::RetryCounts presets[] = {
            {4, 1, 8},    // balanced default
            {2, 1, 2},    // give up early (persistent-heavy loads)
            {8, 2, 16},   // patient
            {4, 8, 12},   // tolerate "persistent" aborts (SMT)
            {16, 1, 64},  // very patient (conflict-churny workloads)
        };
        for (const auto& preset : presets) {
            RuntimeConfig config = base;
            config.retry = preset;
            result.push_back(config);
        }
        return result;
    }

  private:
    /** Everything a sequential baseline reads. */
    struct BaselineKey
    {
        std::string bench;
        MachineConfig machine;
        bool modified;
        std::uint64_t seed;
        double scale;
        bool batchEpoch;

        bool operator==(const BaselineKey&) const = default;
    };

    /**
     * Call @p fn with a factory of the app @p bench names (its
     * @p modified variant, with its scaled parameters for @p machine)
     * and return what @p fn returns.
     */
    template <typename Result, typename Fn>
    static Result
    withApp(const std::string& bench, const MachineConfig& machine,
            bool modified, Fn&& fn)
    {
        if (bench == "bayes")
            return withFactory<stamp::BayesApp>(bayesParams(), fn);
        if (bench == "genome") {
            return withFactory<stamp::GenomeApp>(
                genomeParams(machine, modified), fn);
        }
        if (bench == "intruder") {
            if (modified) {
                return withFactory<stamp::IntruderApp>(intruderParams(),
                                                       fn);
            }
            return withFactory<stamp::IntruderAppOriginal>(
                intruderParams(), fn);
        }
        if (bench == "kmeans-high" || bench == "kmeans-low") {
            return withFactory<stamp::KmeansApp>(
                kmeansParams(bench == "kmeans-high", modified, machine),
                fn);
        }
        if (bench == "labyrinth")
            return withFactory<stamp::LabyrinthApp>(labyrinthParams(), fn);
        if (bench == "ssca2")
            return withFactory<stamp::Ssca2App>(ssca2Params(), fn);
        if (bench == "vacation-high" || bench == "vacation-low") {
            const auto params = vacationParams(bench == "vacation-high");
            if (modified)
                return withFactory<stamp::VacationApp>(params, fn);
            return withFactory<stamp::VacationAppOriginal>(params, fn);
        }
        if (bench == "yada")
            return withFactory<stamp::YadaApp>(yadaParams(), fn);
        std::fprintf(stderr, "unknown benchmark %s\n", bench.c_str());
        std::abort();
    }

    /** @p fn applied to a factory of @p App built from @p params. */
    template <typename App, typename Params, typename Fn>
    static auto
    withFactory(const Params& params, Fn& fn)
    {
        return fn([&params] { return App(params); });
    }

    bool tune_;
    /** The baselines this runner has run, in the order it ran them. */
    mutable std::vector<std::pair<BaselineKey, RunResult>> baselines_;
};

/** Short machine labels in paper order. */
inline const char*
machineLabel(unsigned index)
{
    static const char* labels[] = {"BG", "z12", "IC", "P8"};
    return labels[index];
}

} // namespace htmsim::bench

#endif // HTMSIM_BENCH_SUITE_HH
