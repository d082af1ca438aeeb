/**
 * @file
 * Hazard-injection layer tests (src/htm/hazard.hh).
 *
 * Two properties carry the layer:
 *
 *  1. Zero perturbation when off. The injector is compiled in and
 *     value-embedded in every Runtime, so "hazards disabled" vs
 *     "hazards enabled with all-zero rates" must be bit-identical —
 *     same forked A/B discipline as test_prof.cc, but over the full
 *     benchmark x machine grid (simulated results depend on host heap
 *     addresses, so both runs fork from the same parent image).
 *
 *  2. Injection is real and attributed. Each hazard class — spurious
 *     transient aborts, virtual-time interrupts, capacity
 *     misestimates, lock-holder preemption — must show up in the
 *     TxStats counters it claims, and must never corrupt results:
 *     a hazard can only slow a run down, not change what it computes.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/forked.hh"
#include "bench/suite.hh"
#include "htm/hazard.hh"
#include "htm/machine.hh"
#include "htm/runtime.hh"
#include "htm/tx.hh"
#include "run_metrics.hh"
#include "sim/scheduler.hh"

namespace
{

using namespace htmsim;
using test::RunMetrics;

// ---- zero perturbation when off ---------------------------------------

/// Run every (benchmark, machine) cell once in a forked child with the
/// given hazard configuration and collect the metrics in the parent.
bool
runGridForked(const htm::HazardConfig& hazard,
              std::vector<RunMetrics>& grid)
{
    return bench::runForked(grid.data(), grid.size(), [&] {
        bench::SuiteRunner runner(false);
        std::size_t cell = 0;
        for (const htm::MachineConfig& machine :
             htm::MachineConfig::all()) {
            for (const std::string& bench : bench::suiteNames()) {
                htm::RuntimeConfig config{machine};
                config.hazard = hazard;
                grid[cell++] = RunMetrics::of(
                    runner.run(bench, config, machine, 4, true, 1));
            }
        }
    });
}

TEST(HazardPerturbation, DisabledIsBitIdenticalToZeroRatesFullGrid)
{
    const std::size_t cells = htm::MachineConfig::all().size() *
                              bench::suiteNames().size();
    ASSERT_GT(cells, 0u);

    // "Off" is a configured-but-disabled injector; "zero" is the same
    // injector enabled with every rate at zero. Same seed, so any
    // divergence would expose a draw or allocation the enabled path
    // does that the disabled path doesn't.
    htm::HazardConfig off;
    off.enabled = false;
    off.seed = 7;
    htm::HazardConfig zero = off;
    zero.enabled = true;

    // Preallocate both result buffers before the first fork so the
    // two children start from the same parent heap image.
    std::vector<RunMetrics> disabled(cells);
    std::vector<RunMetrics> zeroed(cells);

    ASSERT_TRUE(runGridForked(off, disabled));
    ASSERT_TRUE(runGridForked(zero, zeroed));

    std::size_t cell = 0;
    std::uint64_t total_aborts = 0;
    for (const htm::MachineConfig& machine :
         htm::MachineConfig::all()) {
        for (const std::string& bench : bench::suiteNames()) {
            SCOPED_TRACE(bench + " on " + machine.name);
            EXPECT_EQ(disabled[cell], zeroed[cell]);
            total_aborts += disabled[cell].aborts;
            ++cell;
        }
    }
    // The grid must actually exercise contention, or bit-identity
    // would be vacuous.
    EXPECT_GT(total_aborts, 0u);
}

// ---- injection and attribution ----------------------------------------

struct alignas(256) PaddedWord
{
    std::uint64_t value = 0;
};

struct HazardRun
{
    htm::TxStats stats;
    std::uint64_t finalCount = 0;
    std::uint64_t expectedCount = 0;
};

/// N threads x iters increments of a shared counter (plus a touch of
/// per-iteration padding lines) under the given hazard configuration.
/// The invariant every test leans on: whatever the hazards do, the
/// counter must end at exactly threads * iters.
HazardRun
runCounter(const htm::HazardConfig& hazard,
           htm::RetryPolicyKind policy = htm::RetryPolicyKind::machineDefault,
           htm::BackendKind backend = htm::BackendKind::htm,
           unsigned threads = 4, unsigned iters = 200,
           unsigned extra_lines = 0, unsigned work = 100)
{
    const htm::MachineConfig& machine = htm::MachineConfig::all()[2];
    htm::RuntimeConfig config{machine};
    config.hazard = hazard;
    config.policyKind = policy;
    config.backend = backend;

    PaddedWord counter;
    std::vector<PaddedWord> pad(extra_lines == 0 ? 1 : extra_lines);
    sim::Scheduler scheduler(1);
    htm::Runtime runtime(config, threads);
    static const htm::TxSiteId site = htm::txSite("test.hazardCounter");
    for (unsigned tid = 0; tid < threads; ++tid) {
        scheduler.spawn([&, tid](sim::ThreadContext& ctx) {
            for (unsigned i = 0; i < iters; ++i) {
                runtime.atomic(ctx, site, [&](htm::Tx& tx) {
                    for (unsigned line = 0; line < extra_lines;
                         ++line) {
                        tx.store(&pad[line].value,
                                 tx.load(&pad[line].value) + 1);
                    }
                    if (work != 0)
                        tx.work(work);
                    tx.store(&counter.value,
                             tx.load(&counter.value) + 1);
                });
                ctx.advance(20 + tid);
            }
        });
    }
    scheduler.run();

    HazardRun result;
    result.stats = runtime.stats();
    result.finalCount = counter.value;
    result.expectedCount = std::uint64_t(threads) * iters;
    return result;
}

std::uint64_t
causeCount(const htm::TxStats& stats, htm::AbortCause cause)
{
    return stats.trueCauseAborts[std::size_t(cause)];
}

TEST(HazardInjection, SpuriousAbortsAreInjectedAndAttributed)
{
    htm::HazardConfig hazard;
    hazard.enabled = true;
    hazard.spuriousAbortProb = 0.2;
    const HazardRun run = runCounter(hazard);

    EXPECT_EQ(run.finalCount, run.expectedCount);
    EXPECT_GT(causeCount(run.stats, htm::AbortCause::spurious), 0u);
    EXPECT_GT(run.stats.hazardAborts(), 0u);
    EXPECT_EQ(run.stats.hazardAborts(),
              causeCount(run.stats, htm::AbortCause::spurious));
}

TEST(HazardInjection, InterruptsFollowTheVirtualClock)
{
    htm::HazardConfig hazard;
    hazard.enabled = true;
    hazard.interruptRate = 1e-3;
    const HazardRun run = runCounter(hazard);

    EXPECT_EQ(run.finalCount, run.expectedCount);
    EXPECT_GT(causeCount(run.stats, htm::AbortCause::interrupt), 0u);
    EXPECT_EQ(causeCount(run.stats, htm::AbortCause::spurious), 0u);
}

TEST(HazardInjection, CapacityMisestimatesAreCounted)
{
    htm::HazardConfig hazard;
    hazard.enabled = true;
    hazard.capacityNoiseProb = 1.0;
    // Touch well over the misestimated budget (1..6 lines) per
    // attempt so every armed attempt trips it.
    const HazardRun run =
        runCounter(hazard, htm::RetryPolicyKind::machineDefault,
                   htm::BackendKind::htm, 4, 100, 8);

    EXPECT_EQ(run.finalCount, run.expectedCount);
    EXPECT_GT(run.stats.hazardCapacityAborts, 0u);
    // Injected capacity aborts surface under the real capacity cause
    // (that is the point: the policy cannot tell them apart).
    EXPECT_GE(causeCount(run.stats, htm::AbortCause::capacityOverflow),
              run.stats.hazardCapacityAborts);
}

TEST(HazardInjection, LockHolderPreemptionStallsEveryFallback)
{
    htm::HazardConfig hazard;
    hazard.enabled = true;
    hazard.lockPreemptProb = 1.0;
    hazard.lockPreemptStall = 12'345;
    // Pure lock backend: every section is a fallback section, so with
    // probability one each of them is preempted exactly once.
    const HazardRun run =
        runCounter(hazard, htm::RetryPolicyKind::machineDefault,
                   htm::BackendKind::globalLock, 2, 50);

    EXPECT_EQ(run.finalCount, run.expectedCount);
    EXPECT_EQ(run.stats.hazardPreemptStalls, run.expectedCount);
    EXPECT_EQ(run.stats.hazardStallCycles,
              run.expectedCount * hazard.lockPreemptStall);
}

TEST(HazardInjection, PinnedVictimStillCommitsUnderHardenedPolicy)
{
    // The end-to-end progress bound: t0's every hardware attempt is
    // spuriously aborted, yet the hardened policy's watchdog walks it
    // to the fallback lock and the run completes with the right
    // answer. (An unbounded retry loop would hang this test.)
    htm::HazardConfig hazard;
    hazard.enabled = true;
    hazard.pinnedVictim = 0;
    const HazardRun run =
        runCounter(hazard, htm::RetryPolicyKind::hardened,
                   htm::BackendKind::htm, 4, 100);

    EXPECT_EQ(run.finalCount, run.expectedCount);
    EXPECT_GT(causeCount(run.stats, htm::AbortCause::spurious), 0u);
    // t0 never commits in hardware, so at least its sections fall
    // back.
    EXPECT_GE(run.stats.irrevocableCommits, 100u);
}

TEST(HazardConfigDefaults, AllRatesZeroAndDisabled)
{
    const htm::HazardConfig hazard;
    EXPECT_FALSE(hazard.enabled);
    EXPECT_EQ(hazard.spuriousAbortProb, 0.0);
    EXPECT_EQ(hazard.interruptRate, 0.0);
    EXPECT_EQ(hazard.capacityNoiseProb, 0.0);
    EXPECT_EQ(hazard.lockPreemptProb, 0.0);
    EXPECT_EQ(hazard.pinnedVictim, -1);
}

} // namespace
