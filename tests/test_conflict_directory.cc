/**
 * @file
 * The conflict directory's shadow (htm/conflict_directory.hh): every
 * mapping goes back to the pool all-zero, whether its run completed
 * or ended in an exception with attempts in flight; and across the
 * STAMP grid a lone thread never conflicts with itself.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "bench/suite.hh"
#include "htm/conflict_directory.hh"
#include "htm/runtime.hh"
#include "sim/region.hh"
#include "sim/sim.hh"

namespace
{

using namespace htmsim;

/** Whether the released shadows read all-zero up to the last run's
 *  high water. */
bool
shadowsClean()
{
    return htm::pooledShadowsClean(
        sim::Region::instance().runHighWater());
}

htm::RuntimeConfig
quietIntel()
{
    htm::MachineConfig machine = htm::MachineConfig::intelCore();
    machine.cacheFetchAbortProb = 0.0;
    machine.prefetchConflictProb = 0.0;
    return htm::RuntimeConfig(std::move(machine));
}

TEST(ConflictShadow, CleanAfterEveryFigure2Cell)
{
    const bench::SuiteRunner runner(false);
    for (const htm::MachineConfig& machine : htm::MachineConfig::all()) {
        const htm::RuntimeConfig config =
            bench::SuiteRunner::tuningCandidates(machine).front();
        for (const std::string& bench : bench::suiteNames()) {
            SCOPED_TRACE(bench + " on " + machine.name);
            const stamp::Speedup result =
                runner.run(bench, config, machine, 4, true, 1);
            EXPECT_TRUE(result.tm.valid);
            // Hardware attempts ran, so lines were marked: every one
            // commits or aborts (labyrinth's all abort on POWER8).
            EXPECT_GT(result.tm.stats.htmCommits +
                          result.tm.stats.totalAborts(),
                      0u);
            EXPECT_TRUE(shadowsClean());
        }
    }
}

TEST(ConflictShadow, CleanAfterARunEndedByABodyLogicError)
{
    {
        sim::RunScope run;
        auto* words = static_cast<std::uint64_t*>(sim::regionAlloc(512));
        words[0] = 0;
        words[32] = 0;
        sim::Scheduler scheduler;
        htm::Runtime runtime(quietIntel(), 2);
        scheduler.spawn([&](sim::ThreadContext& ctx) {
            ctx.step(100);
            runtime.atomic(ctx, [&](htm::Tx& tx) {
                tx.store(&words[0], std::uint64_t(1));
                throw std::logic_error("body bug");
            });
        });
        scheduler.spawn([&](sim::ThreadContext& ctx) {
            runtime.atomic(ctx, [&](htm::Tx& tx) {
                (void)tx.load(&words[32]);
                tx.work(1'000'000);
            });
        });
        EXPECT_THROW(scheduler.run(), std::logic_error);
        // The thrower's attempt was discarded; thread 1's is still in
        // flight, marking its line and the lock word it subscribed to.
        EXPECT_EQ(runtime.trackedConflictLines(), 2u);
    }
    EXPECT_TRUE(shadowsClean());
}

TEST(ConflictShadow, CleanAfterARunEndedByASimError)
{
    {
        sim::RunScope run;
        auto* word = static_cast<std::uint64_t*>(sim::regionAlloc(8));
        *word = 0;
        sim::Scheduler scheduler;
        htm::Runtime runtime(quietIntel(), 2);
        sim::Barrier never(3);
        for (unsigned t = 0; t < 2; ++t) {
            scheduler.spawn([&](sim::ThreadContext& ctx) {
                runtime.atomic(ctx, [&](htm::Tx& tx) {
                    (void)tx.load(word);
                    never.arrive(ctx);
                });
            });
        }
        // Both threads block inside their attempts: the scheduler
        // reports the deadlock with both still marking the word's line
        // and the lock word.
        EXPECT_THROW(scheduler.run(), sim::SimError);
        EXPECT_EQ(runtime.trackedConflictLines(), 2u);
    }
    EXPECT_TRUE(shadowsClean());
}

TEST(GridProperty, LoneThreadsNeverConflict)
{
    // With one thread there is no peer to conflict with: no machine
    // may report a data or lock conflict for any app.
    const bench::SuiteRunner runner(false);
    for (const htm::MachineConfig& machine : htm::MachineConfig::all()) {
        const htm::RuntimeConfig config =
            bench::SuiteRunner::tuningCandidates(machine).front();
        for (const std::string& bench : bench::suiteNames()) {
            SCOPED_TRACE(bench + " on " + machine.name);
            const stamp::RunResult run =
                runner.run(bench, config, machine, 1, true, 1).tm;
            const htm::TxStats& stats = run.stats;
            EXPECT_TRUE(run.valid);
            for (const htm::AbortCause cause :
                 {htm::AbortCause::dataConflict,
                  htm::AbortCause::lockConflict}) {
                EXPECT_EQ(stats.trueCauseAborts[std::size_t(cause)], 0u)
                    << htm::abortCauseName(cause);
            }
        }
    }
}

} // namespace
