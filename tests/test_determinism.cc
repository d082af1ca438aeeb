/**
 * @file
 * Determinism regression tests: a run is a pure function of its
 * inputs.
 *
 * Every simulated address lies in the run's region at a fixed base
 * (sim/region.hh), so neither earlier runs in the same process, nor
 * host allocations between runs, nor ASLR may move a simulated number.
 * The A/B tests below compare two in-process runs byte for byte; the
 * golden digest pins the simulated results across processes and
 * builds.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/suite.hh"
#include "check/oracle.hh"
#include "check/workload.hh"
#include "prof/profiler.hh"
#include "run_metrics.hh"
#include "server/server.hh"
#include "sim/scheduler.hh"
#include "sim/stack_pool.hh"
#include "tmsync/scenarios.hh"

namespace
{

using namespace htmsim;
using test::RunMetrics;

constexpr unsigned kThreads = 4;
constexpr std::uint64_t kSeed = 1;

/// Run the full tuning grid for one cell. @p batch selects the
/// epoch-batched sync() fast path or the `--no-batch` slow path;
/// either way the results must be bit-identical (DESIGN.md Section 5c).
std::vector<RunMetrics>
runGrid(const std::string& bench, const htm::MachineConfig& machine,
        bool batch = true)
{
    const bench::SuiteRunner runner(false);
    std::vector<RunMetrics> grid;
    for (htm::RuntimeConfig config :
         bench::SuiteRunner::tuningCandidates(machine)) {
        config.batchEpoch = batch;
        grid.push_back(RunMetrics::of(runner.run(
            bench, config, machine, kThreads, true, kSeed)));
    }
    return grid;
}

/// Compare two grids candidate by candidate, and demand the cell
/// exercised the machinery: commits and at least one abort.
void
expectSameGrid(const std::vector<RunMetrics>& first,
               const std::vector<RunMetrics>& second)
{
    ASSERT_EQ(first.size(), second.size());
    ASSERT_GT(first.size(), 0u);
    std::uint64_t total_commits = 0;
    std::uint64_t total_aborts = 0;
    for (std::size_t i = 0; i < first.size(); ++i) {
        SCOPED_TRACE("candidate " + std::to_string(i));
        EXPECT_EQ(first[i].seqCycles, second[i].seqCycles);
        EXPECT_EQ(first[i].tmCycles, second[i].tmCycles);
        EXPECT_EQ(first[i].commits, second[i].commits);
        EXPECT_EQ(first[i].aborts, second[i].aborts);
        EXPECT_EQ(first[i].causes, second[i].causes);
        total_commits += first[i].commits;
        total_aborts += first[i].aborts;
    }
    EXPECT_GT(total_commits, 0u);
    EXPECT_GT(total_aborts, 0u);
}

TEST(Determinism, FullTuningGridIsBitIdenticalAcrossRuns)
{
    const htm::MachineConfig machine = htm::MachineConfig::all()[2];
    ASSERT_EQ(machine.name, "Intel Core i7-4770");
    const std::vector<RunMetrics> first = runGrid("vacation-low", machine);
    const std::vector<RunMetrics> second =
        runGrid("vacation-low", machine);
    expectSameGrid(first, second);
}

// Epoch batching (DESIGN.md Section 5) elides only scheduling points
// that provably cannot switch threads, so a batched run and a
// `--no-batch` run must be bit-identical — not statistically close,
// byte-for-byte equal.
TEST(Determinism, BatchedAndUnbatchedRunsAreBitIdentical)
{
    const htm::MachineConfig machine = htm::MachineConfig::all()[0];
    ASSERT_EQ(machine.name, "Blue Gene/Q");
    const std::vector<RunMetrics> batched =
        runGrid("genome", machine, true);
    const std::vector<RunMetrics> unbatched =
        runGrid("genome", machine, false);
    expectSameGrid(batched, unbatched);
}

// Warm stack slots (DESIGN.md Section 9b) keep a finished fiber's
// stack committed, with whatever its frames left there, for the next
// run. Stacks hold no simulated state, so a grid run on slots a
// scheduler has just filled with junk must match the same grid run
// before it byte for byte; a difference would be a read of an
// uninitialised stack word.
TEST(Determinism, WarmDirtyStacksAreBitIdentical)
{
    const htm::MachineConfig machine = htm::MachineConfig::all()[2];
    ASSERT_EQ(machine.name, "Intel Core i7-4770");
    const std::vector<RunMetrics> first = runGrid("intruder", machine);

    // Fill every warm slot's stack with a non-zero pattern, at the
    // default stack size the grid's schedulers use. The scheduler must
    // be gone before the second grid, or it would still hold the slots.
    {
        sim::Scheduler dirty(kSeed);
        for (unsigned f = 0; f < sim::StackPool::warmSlots; ++f) {
            dirty.spawn([](sim::ThreadContext& ctx) {
                std::array<unsigned char, 128 * 1024> junk;
                std::memset(junk.data(), 0xa5 ^ ctx.id(), junk.size());
                // Keep the fill: the array escapes to an opaque asm.
                __asm__ volatile("" : : "r"(junk.data()) : "memory");
                ctx.step(1);
            });
        }
        dirty.run();
    }

    const std::uint64_t commits_before =
        sim::StackPool::instance().commitCount();
    const std::vector<RunMetrics> second = runGrid("intruder", machine);
    EXPECT_EQ(sim::StackPool::instance().commitCount(), commits_before)
        << "the second grid should run on warm slots";
    EXPECT_EQ(first, second);
    expectSameGrid(first, second);
}

/// One STAMP cell at its machine's first tuning candidate: under
/// @p backend, or under lock elision when @p hle is set.
struct Cell
{
    const char* bench;
    unsigned machine; ///< index into MachineConfig::all()
    htm::BackendKind backend = htm::BackendKind::htm;
    bool hle = false;
};

RunMetrics
runCell(const Cell& cell)
{
    const htm::MachineConfig& machine =
        htm::MachineConfig::all()[cell.machine];
    const bench::SuiteRunner runner(false);
    if (cell.hle) {
        return RunMetrics::of(
            runner.measureHle(cell.bench, machine, kThreads, kSeed));
    }
    htm::RuntimeConfig config =
        bench::SuiteRunner::tuningCandidates(machine).front();
    config.backend = cell.backend;
    return RunMetrics::of(runner.run(cell.bench, config, machine,
                                     kThreads, true, kSeed));
}

server::ServerConfig
smallServer()
{
    server::ServerConfig config;
    config.runtime = htm::RuntimeConfig(htm::MachineConfig::power8());
    config.runtime.backend = htm::BackendKind::hybrid;
    config.clients = 16;
    config.traffic.numKeys = 256;
    config.traffic.numAccounts = 32;
    config.traffic.opsPerClient = 24;
    config.traffic.meanInterarrivalCycles = 1500;
    return config;
}

tmsync::ScenarioConfig
smallScenario()
{
    tmsync::ScenarioConfig config;
    config.runtime = htm::RuntimeConfig(htm::MachineConfig::intelCore());
    config.scenario = tmsync::Scenario::mixedWaiters;
    config.threads = 8;
    config.opsPerThread = 60;
    return config;
}

/// Digest of one small server run and one tmsync scenario.
std::uint64_t
serverAndScenarioDigest()
{
    const server::ServerResult served = server::runServer(smallServer());
    std::uint64_t h = check::foldHash(0, served.horizonCycles);
    h = check::foldHash(h, served.latency.percentile(0.99));
    h = check::foldHash(h, served.stats.totalCommits());
    h = check::foldHash(h, served.stats.totalAborts());
    const tmsync::ScenarioResult synced =
        tmsync::runScenario(smallScenario());
    h = check::foldHash(h, synced.horizonCycles);
    h = check::foldHash(h, synced.elidedSections);
    h = check::foldHash(h, synced.checksum);
    return check::foldHash(h, synced.stats.totalAborts());
}

// The runs whose results used to drift with what ran before them
// (yada's pointer-keyed work queue, the hybrid's hashed orecs, the
// HLE lock word): rerun in reverse order after another app and with
// host allocations held in between, every metric must repeat, and so
// must a server run and a tmsync scenario.
TEST(Determinism, RunIsAPureFunctionOfItsInputs)
{
    const Cell cells[] = {
        {"yada", 3},
        {"yada", 3, htm::BackendKind::hybrid},
        {"genome", 0, htm::BackendKind::hybrid},
        {"vacation-low", 2, htm::BackendKind::htm, true},
    };
    std::vector<RunMetrics> first;
    for (const Cell& cell : cells)
        first.push_back(runCell(cell));
    const std::uint64_t served = serverAndScenarioDigest();
    (void)runCell({"intruder", 2});

    std::vector<std::unique_ptr<void, decltype(&std::free)>> junk;
    for (std::size_t i = 0; i < 64; ++i)
        junk.emplace_back(std::malloc(24 * i + 13), &std::free);

    EXPECT_EQ(serverAndScenarioDigest(), served);
    for (std::size_t i = std::size(cells); i-- > 0;) {
        SCOPED_TRACE(std::string(cells[i].bench) + " on machine " +
                     std::to_string(cells[i].machine));
        EXPECT_EQ(runCell(cells[i]), first[i]);
    }
    EXPECT_GT(first[0].aborts, 0u);
}

TEST(Determinism, BackToBackOracleRunsMatch)
{
    unsigned runs = 0;
    unsigned differing = 0;
    for (const check::WorkloadFactory& workload : check::allWorkloads()) {
        for (const htm::MachineConfig& machine :
             htm::MachineConfig::all()) {
            for (std::uint64_t seed = 1; seed <= 5; ++seed) {
                const check::RunOutcome a =
                    check::runDifferential(workload, machine, seed);
                const check::RunOutcome b =
                    check::runDifferential(workload, machine, seed);
                EXPECT_TRUE(a.ok) << workload.name << " " << a.reason;
                ++runs;
                if (a.commits != b.commits || a.fired != b.fired)
                    ++differing;
            }
        }
    }
    EXPECT_EQ(runs, 200u);
    EXPECT_EQ(differing, 0u);
}

// stamp_runner --prof replays the tuned winner under the profiler; the
// replay must be the run that won, not a neighbour of it.
TEST(Determinism, ProfiledReplayOfTheTunedWinnerIsTheRun)
{
    const Cell cells[] = {{"yada", 3}, {"vacation-low", 2}};
    for (const Cell& cell : cells) {
        SCOPED_TRACE(cell.bench);
        const htm::MachineConfig& machine =
            htm::MachineConfig::all()[cell.machine];
        const bench::SuiteRunner runner;
        bench::SuiteRunner::Tuned best = runner.tune(
            cell.bench, machine, kThreads, [](htm::RuntimeConfig&) {});
        prof::TxProfiler profiler;
        best.config.observer = &profiler;
        const stamp::Speedup replay = runner.run(
            cell.bench, best.config, machine, kThreads, true, kSeed);
        EXPECT_EQ(RunMetrics::of(replay), RunMetrics::of(best.result));
        EXPECT_DOUBLE_EQ(replay.ratio, best.result.ratio);
    }
}

/// Fold one STAMP run's simulated outcome into @p h.
std::uint64_t
foldRun(std::uint64_t h, const RunMetrics& metrics)
{
    h = check::foldHash(h, metrics.seqCycles);
    h = check::foldHash(h, metrics.tmCycles);
    h = check::foldHash(h, metrics.commits);
    for (const std::uint64_t aborts : metrics.causes)
        h = check::foldHash(h, aborts);
    return h;
}

/// The simulated numbers of a fixed set of runs, at the default
/// workload sizes: the 40 Figure 2 cells at their first tuning
/// candidate, the hybrid and HLE cells, one oracle run per workload,
/// one server run and one tmsync scenario.
std::uint64_t
simulatedDigest()
{
    std::uint64_t h = 0;
    const bench::SuiteRunner runner(false);
    for (const htm::MachineConfig& machine : htm::MachineConfig::all()) {
        const htm::RuntimeConfig config =
            bench::SuiteRunner::tuningCandidates(machine).front();
        for (const std::string& bench : bench::suiteNames()) {
            h = foldRun(h, RunMetrics::of(runner.run(
                               bench, config, machine, kThreads, true,
                               kSeed)));
        }
    }
    h = foldRun(h, runCell({"yada", 3, htm::BackendKind::hybrid}));
    h = foldRun(h, runCell({"genome", 0, htm::BackendKind::hybrid}));
    h = foldRun(h, runCell({"vacation-low", 2, htm::BackendKind::htm,
                            true}));
    for (const check::WorkloadFactory& workload : check::allWorkloads()) {
        const check::RunOutcome outcome = check::runDifferential(
            workload, htm::MachineConfig::zEC12(), kSeed);
        h = check::foldHash(h, outcome.ok ? outcome.commits : 0);
        for (const check::PreemptPoint& point : outcome.fired) {
            h = check::foldHash(h, point.tid);
            h = check::foldHash(h, point.index);
            h = check::foldHash(h, point.delay);
        }
    }
    return check::foldHash(h, serverAndScenarioDigest());
}

// The cross-process, cross-build pin: ctest runs every test in its own
// process with ASLR on, so a change that moves any simulated bit of
// these runs shows here. A change that moves it on purpose updates
// the constant and says why.
TEST(Determinism, GoldenSimulatedDigest)
{
    constexpr std::uint64_t kGolden = 0x1147c814228c069f;
    const char* scale = std::getenv("HTMSIM_SCALE");
    const std::string saved = scale == nullptr ? "" : scale;
    ::unsetenv("HTMSIM_SCALE");
    const std::uint64_t digest = simulatedDigest();
    if (scale != nullptr)
        ::setenv("HTMSIM_SCALE", saved.c_str(), 1);
    EXPECT_EQ(digest, kGolden) << "digest 0x" << std::hex << digest;
}

} // namespace
