/**
 * @file
 * Determinism regression test: the simulator must produce bit-identical
 * results for identical inputs.
 *
 * Simulated metrics depend on host addresses (line numbers and cache
 * sets are hashed from real pointers), so "run it twice in one
 * process" is not the right check: the second run inherits a heap
 * reshaped by the first and legitimately sees different placement.
 * What must hold — and what the benchmark harness relies on to compare
 * builds — is that a run from a given process image is a pure function
 * of its inputs. The test forks two children from the same parent
 * image, runs the full tuning grid of one STAMP cell in each, and
 * demands byte-identical cycles, commits and per-cause abort vectors.
 */

#include <gtest/gtest.h>

#include <vector>

#include "bench/forked.hh"
#include "bench/suite.hh"
#include "run_metrics.hh"
#include "sim/scheduler.hh"

namespace
{

using namespace htmsim;
using test::RunMetrics;

constexpr unsigned kThreads = 4;
constexpr std::uint64_t kSeed = 1;

/// Run the full tuning grid for one cell in a forked child and collect
/// the per-candidate metrics in the parent. @p batch selects the
/// epoch-batched sync() fast path or the `--no-batch` slow path;
/// @p policy selects how the schedulers in the child provision fiber
/// stacks (lazily from the pool or eagerly up front). Either way the
/// results must be bit-identical (DESIGN.md Sections 5 and 9).
bool
runGridForked(const std::string& bench,
              const htm::MachineConfig& machine,
              std::vector<RunMetrics>& grid, bool batch = true,
              sim::StackPolicy policy = sim::StackPolicy::pooled)
{
    return bench::runForked(grid.data(), grid.size(), [&] {
        sim::Scheduler::setDefaultStackPolicy(policy);
        bench::SuiteRunner runner(false);
        const auto configs =
            bench::SuiteRunner::tuningCandidates(machine);
        for (std::size_t i = 0; i < grid.size(); ++i) {
            htm::RuntimeConfig config = configs[i];
            config.batchEpoch = batch;
            grid[i] = RunMetrics::of(runner.run(
                bench, config, machine, kThreads, true, kSeed));
        }
    });
}

TEST(Determinism, FullTuningGridIsBitIdenticalAcrossRuns)
{
    const htm::MachineConfig machine = htm::MachineConfig::all()[2];
    ASSERT_EQ(machine.name, "Intel Core i7-4770");
    const std::string bench = "vacation-low";
    const std::size_t candidates =
        bench::SuiteRunner::tuningCandidates(machine).size();
    ASSERT_GT(candidates, 0u);

    // Preallocate both result buffers before the first fork so the
    // two children start from the same parent heap image.
    std::vector<RunMetrics> first(candidates);
    std::vector<RunMetrics> second(candidates);

    ASSERT_TRUE(runGridForked(bench, machine, first));
    ASSERT_TRUE(runGridForked(bench, machine, second));

    for (std::size_t i = 0; i < candidates; ++i) {
        SCOPED_TRACE("candidate " + std::to_string(i));
        EXPECT_EQ(first[i].seqCycles, second[i].seqCycles);
        EXPECT_EQ(first[i].tmCycles, second[i].tmCycles);
        EXPECT_EQ(first[i].commits, second[i].commits);
        EXPECT_EQ(first[i].aborts, second[i].aborts);
        EXPECT_EQ(first[i].causes, second[i].causes);
    }

    // The cell must actually exercise the machinery: committed and
    // aborted transactions, with at least one non-zero abort cause.
    std::uint64_t total_commits = 0;
    std::uint64_t total_aborts = 0;
    for (const RunMetrics& metrics : first) {
        total_commits += metrics.commits;
        total_aborts += metrics.aborts;
    }
    EXPECT_GT(total_commits, 0u);
    EXPECT_GT(total_aborts, 0u);
}

// Epoch batching (DESIGN.md Section 5) elides only scheduling points
// that provably cannot switch threads, so a batched run and a
// `--no-batch` run must be bit-identical — not statistically close,
// byte-for-byte equal. Same fork discipline as above: both children
// start from the same parent image, one runs the full tuning grid with
// the sync() fast path, the other with every scheduling point taking
// the slow path.
TEST(Determinism, BatchedAndUnbatchedRunsAreBitIdentical)
{
    const htm::MachineConfig machine = htm::MachineConfig::all()[0];
    ASSERT_EQ(machine.name, "Blue Gene/Q");
    const std::string bench = "genome";
    const std::size_t candidates =
        bench::SuiteRunner::tuningCandidates(machine).size();
    ASSERT_GT(candidates, 0u);

    std::vector<RunMetrics> batched(candidates);
    std::vector<RunMetrics> unbatched(candidates);

    ASSERT_TRUE(runGridForked(bench, machine, batched, true));
    ASSERT_TRUE(runGridForked(bench, machine, unbatched, false));

    for (std::size_t i = 0; i < candidates; ++i) {
        SCOPED_TRACE("candidate " + std::to_string(i));
        EXPECT_EQ(batched[i].seqCycles, unbatched[i].seqCycles);
        EXPECT_EQ(batched[i].tmCycles, unbatched[i].tmCycles);
        EXPECT_EQ(batched[i].commits, unbatched[i].commits);
        EXPECT_EQ(batched[i].aborts, unbatched[i].aborts);
        EXPECT_EQ(batched[i].causes, unbatched[i].causes);
    }

    std::uint64_t total_commits = 0;
    std::uint64_t total_aborts = 0;
    for (const RunMetrics& metrics : batched) {
        total_commits += metrics.commits;
        total_aborts += metrics.aborts;
    }
    EXPECT_GT(total_commits, 0u);
    EXPECT_GT(total_aborts, 0u);
}

// Stack pooling (DESIGN.md Section 9) commits a fiber's stack lazily
// at first dispatch; the eager policy commits every stack up front.
// Because a pool slot's address is a pure function of its index,
// commit *timing* must be invisible to the simulated machine models —
// a pooled run and an eager run from the same parent image must be
// byte-for-byte equal, exactly like the batching A/B above. This is
// the contract that lets the scheduler scale to 256+ fibers without
// perturbing any existing result.
TEST(Determinism, PooledAndEagerStacksAreBitIdentical)
{
    const htm::MachineConfig machine = htm::MachineConfig::all()[2];
    ASSERT_EQ(machine.name, "Intel Core i7-4770");
    const std::string bench = "intruder";
    const std::size_t candidates =
        bench::SuiteRunner::tuningCandidates(machine).size();
    ASSERT_GT(candidates, 0u);

    std::vector<RunMetrics> pooled(candidates);
    std::vector<RunMetrics> eager(candidates);

    ASSERT_TRUE(runGridForked(bench, machine, pooled, true,
                              sim::StackPolicy::pooled));
    ASSERT_TRUE(runGridForked(bench, machine, eager, true,
                              sim::StackPolicy::eager));

    for (std::size_t i = 0; i < candidates; ++i) {
        SCOPED_TRACE("candidate " + std::to_string(i));
        EXPECT_EQ(pooled[i].seqCycles, eager[i].seqCycles);
        EXPECT_EQ(pooled[i].tmCycles, eager[i].tmCycles);
        EXPECT_EQ(pooled[i].commits, eager[i].commits);
        EXPECT_EQ(pooled[i].aborts, eager[i].aborts);
        EXPECT_EQ(pooled[i].causes, eager[i].causes);
    }

    std::uint64_t total_commits = 0;
    std::uint64_t total_aborts = 0;
    for (const RunMetrics& metrics : pooled) {
        total_commits += metrics.commits;
        total_aborts += metrics.aborts;
    }
    EXPECT_GT(total_commits, 0u);
    EXPECT_GT(total_aborts, 0u);
}

} // namespace
