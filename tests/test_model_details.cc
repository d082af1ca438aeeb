/**
 * @file
 * Second-tier model tests: conflict policies, CAS, the node pool,
 * speculation-id accounting, SMT time scaling, lazy subscription,
 * constrained-transaction escalation, and trace percentile math.
 */

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <stdexcept>
#include <vector>

#include "htm/context.hh"
#include "htm/runtime.hh"
#include "sim/region.hh"
#include "sim/sim.hh"
#include "tmds/tm_hashtable.hh"

namespace
{

using namespace htmsim;
using namespace htmsim::htm;

RuntimeConfig
quiet(MachineConfig machine)
{
    machine.cacheFetchAbortProb = 0.0;
    machine.prefetchConflictProb = 0.0;
    return RuntimeConfig(std::move(machine));
}

TEST(ConflictPolicy, AttackerLosesAbortsTheAttacker)
{
    RuntimeConfig config = quiet(MachineConfig::intelCore());
    config.policy = ConflictPolicy::attackerLoses;
    sim::Scheduler scheduler;
    Runtime runtime(config, 2);
    alignas(64) std::uint64_t x = 0;
    unsigned reader_attempts = 0;
    unsigned writer_attempts = 0;
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        runtime.atomic(ctx, [&](Tx& tx) {
            ++reader_attempts;
            (void)tx.load(&x);
            tx.work(4000);
        });
    });
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        ctx.step(500);
        runtime.atomic(ctx, [&](Tx& tx) {
            ++writer_attempts;
            tx.store(&x, std::uint64_t(1));
        });
    });
    scheduler.run();
    // The writer (attacker) must retry; the reader stays untouched.
    EXPECT_EQ(reader_attempts, 1u);
    EXPECT_GE(writer_attempts, 2u);
    EXPECT_EQ(x, 1u);
}

TEST(ConflictPolicy, OlderWinsProtectsTheElder)
{
    RuntimeConfig config = quiet(MachineConfig::intelCore());
    config.policy = ConflictPolicy::olderWins;
    sim::Scheduler scheduler;
    Runtime runtime(config, 2);
    alignas(64) std::uint64_t x = 0;
    unsigned first_attempts = 0;
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        runtime.atomic(ctx, [&](Tx& tx) {
            ++first_attempts;
            tx.store(&x, tx.load(&x) + 1);
            tx.work(4000);
        });
    });
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        ctx.step(500);
        runtime.atomic(ctx, [&](Tx& tx) {
            tx.store(&x, tx.load(&x) + 1);
        });
    });
    scheduler.run();
    EXPECT_EQ(first_attempts, 1u) << "the older tx must not abort";
    EXPECT_EQ(x, 2u);
}

TEST(NonTxCas, SucceedsOnceUnderContention)
{
    sim::Scheduler scheduler;
    Runtime runtime(quiet(MachineConfig::intelCore()), 4);
    alignas(64) std::uint64_t word = 0;
    unsigned winners = 0;
    for (unsigned t = 0; t < 4; ++t) {
        scheduler.spawn([&, t](sim::ThreadContext& ctx) {
            ctx.step(10 * t);
            if (runtime.nonTxCas(ctx, &word, std::uint64_t(0),
                                 std::uint64_t(t + 1))) {
                ++winners;
            }
        });
    }
    scheduler.run();
    EXPECT_EQ(winners, 1u);
    EXPECT_NE(word, 0u);
}

TEST(Region, ChunksAreLineGranularAndRecycled)
{
    void* a = sim::regionAlloc(24);
    void* b = sim::regionAlloc(24);
    const auto ua = std::uintptr_t(a);
    const auto ub = std::uintptr_t(b);
    EXPECT_EQ(ua % sim::regionLineBytes, 0u);
    EXPECT_EQ(ub % sim::regionLineBytes, 0u);
    EXPECT_NE(ua >> 8, ub >> 8)
        << "two allocations must not share a 256-byte line";
    sim::regionFree(a, 24);
    void* c = sim::regionAlloc(40); // same size class -> reused chunk
    EXPECT_EQ(c, a);
    sim::regionFree(b, 24);
    sim::regionFree(c, 40);

    void* big = sim::regionAlloc(5000);
    EXPECT_EQ(std::uintptr_t(big) % sim::regionLineBytes, 0u);
    sim::regionFree(big, 5000);
    void* big2 = sim::regionAlloc(4900); // same class (rounded to lines)
    EXPECT_EQ(big2, big);
    sim::regionFree(big2, 4900);
}

TEST(Region, EveryRunRestartsAtTheFixedBase)
{
    void* first = nullptr;
    void* nested = nullptr;
    {
        sim::RunScope run;
        first = sim::regionAlloc(100);
        EXPECT_EQ(std::uintptr_t(first), sim::Region::base);
        {
            // A nested scope continues the enclosing run.
            sim::RunScope inner;
            nested = sim::regionAlloc(100);
            EXPECT_NE(nested, first);
        }
        EXPECT_TRUE(sim::Region::instance().inRun(nested));
    }
    // Outside any run, frees of run memory are no-ops and allocations
    // come from the loose area.
    sim::regionFree(first, 100);
    void* loose = sim::regionAlloc(100);
    EXPECT_FALSE(sim::Region::instance().inRun(loose));
    sim::regionFree(loose, 100);
    {
        sim::RunScope run;
        EXPECT_EQ(sim::regionAlloc(100), first);
        EXPECT_EQ(sim::regionAlloc(100), nested);
    }
}

TEST(Region, ObjectsOfAFinishedRunAreReclaimedWithIt)
{
    sim::Ptr<tmds::TmHashTable<>> table;
    {
        sim::RunScope run;
        table = sim::make<tmds::TmHashTable<>>(16);
        htm::DirectContext direct;
        table->insert(direct, 1, 2);
    }
    {
        // The next run reuses the table's memory for its own state.
        sim::RunScope run;
        auto words = sim::make<std::array<std::uint64_t, 64>>();
        words->fill(~std::uint64_t(0));
    }
    // Destroying the stale table must not walk that memory.
    table.reset();
    SUCCEED();
}

#ifndef NDEBUG
TEST(RegionDeathTest, SimulatedAccessOutsideTheRunAsserts)
{
    EXPECT_DEATH(
        {
            sim::RunScope run;
            std::uint64_t host_word = 0;
            htm::DirectContext direct;
            direct.store(&host_word, std::uint64_t(1));
        },
        "outside the run's region");
}
#endif

TEST(RuntimeThreads, CountsOutsideOneToMaxThrow)
{
    const htm::RuntimeConfig config(MachineConfig::intelCore());
    EXPECT_THROW(Runtime(config, 0), std::invalid_argument);
    EXPECT_THROW(Runtime(config, htm::kMaxTxThreads + 1),
                 std::invalid_argument);
    EXPECT_NO_THROW(Runtime(config, htm::kMaxTxThreads));
}

TEST(SpecIds, ReleasedOnAbortAndCommit)
{
    // 300 committed + many aborted transactions through a 128-ID pool
    // must not deadlock, and reclamation passes must be recorded.
    RuntimeConfig config = quiet(MachineConfig::blueGeneQ());
    sim::Scheduler scheduler;
    Runtime runtime(config, 2);
    alignas(128) std::uint64_t hot = 0;
    for (unsigned t = 0; t < 2; ++t) {
        scheduler.spawn([&](sim::ThreadContext& ctx) {
            for (int i = 0; i < 150; ++i) {
                runtime.atomic(ctx, [&](Tx& tx) {
                    tx.store(&hot, tx.load(&hot) + 1);
                    tx.work(120);
                });
            }
        });
    }
    scheduler.run();
    EXPECT_EQ(hot, 300u);
    EXPECT_GT(runtime.stats().specIdReclaims, 0u);
}

TEST(SmtModel, TimeScaleInterpolates)
{
    const MachineConfig intel = MachineConfig::intelCore();
    EXPECT_DOUBLE_EQ(intel.smtTimeScale(1), 1.0);
    // Two hyperthreads: 2 / 1.3 each.
    EXPECT_NEAR(intel.smtTimeScale(2), 2.0 / 1.3, 1e-9);

    const MachineConfig p8 = MachineConfig::power8();
    EXPECT_DOUBLE_EQ(p8.smtTimeScale(1), 1.0);
    EXPECT_NEAR(p8.smtTimeScale(8), 8.0 / p8.smtYield, 1e-9);

    // Thread placement: 8 threads on 4 Intel cores -> everyone shares.
    for (unsigned tid = 0; tid < 8; ++tid)
        EXPECT_GT(intel.threadTimeScale(tid, 8), 1.0);
    // 4 threads on 4 cores -> everyone exclusive.
    for (unsigned tid = 0; tid < 4; ++tid)
        EXPECT_DOUBLE_EQ(intel.threadTimeScale(tid, 4), 1.0);
}

TEST(SmtModel, ScaledThreadRunsProportionallySlower)
{
    sim::Scheduler scheduler;
    scheduler.spawn([](sim::ThreadContext& ctx) {
        ctx.setTimeScale(2.0);
        ctx.step(100);
        EXPECT_EQ(ctx.now(), 200u);
    });
    scheduler.run();
}

TEST(BgqLazySubscription, CommitFailsWhileLockHeld)
{
    RuntimeConfig config = quiet(MachineConfig::blueGeneQ());
    config.bgq.mode = BgqMode::longRunning;
    sim::Scheduler scheduler;
    Runtime runtime(config, 2);
    alignas(128) std::uint64_t a = 0;
    alignas(128) std::uint64_t b = 0;
    unsigned attempts = 0;
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        runtime.atomic(ctx, [&](Tx& tx) {
            ++attempts;
            tx.store(&a, std::uint64_t(1));
            tx.work(6000); // commit lands inside the locked window
        });
    });
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        ctx.step(200);
        runtime.runLocked(ctx, [&](Tx& tx) {
            tx.store(&b, std::uint64_t(1));
            tx.work(20000);
        });
    });
    scheduler.run();
    EXPECT_GE(attempts, 2u)
        << "lazy subscription must abort the commit under the lock";
    EXPECT_EQ(a, 1u);
}

/** A retry-policy kind and its tool name (stamp_runner's policy). */
struct PolicyCase
{
    const char* name;
    RetryPolicyKind kind;
};

/** Print a case as its policy name, so the listed test names stay
 *  readable (gtest would otherwise print the struct's raw bytes). */
void
PrintTo(const PolicyCase& test, std::ostream* os)
{
    *os << test.name;
}

class BgqLazySubscription : public ::testing::TestWithParam<PolicyCase>
{
};

TEST_P(BgqLazySubscription, LockCycledInsideTheBodyIsNotAnAbort)
{
    // Long-running mode checks the lock only at commit, whatever the
    // retry policy: a lock taken and released while the transaction
    // is inside its body must not touch it. An eager subscription
    // would be doomed by the acquisition's store to the lock word.
    RuntimeConfig config = quiet(MachineConfig::blueGeneQ());
    config.bgq.mode = BgqMode::longRunning;
    config.policyKind = GetParam().kind;
    sim::Scheduler scheduler;
    Runtime runtime(config, 2);
    alignas(128) std::uint64_t a = 0;
    alignas(128) std::uint64_t b = 0;
    unsigned attempts = 0;
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        runtime.atomic(ctx, [&](Tx& tx) {
            ++attempts;
            tx.store(&a, std::uint64_t(1));
            tx.work(6000); // the locked window closes before commit
        });
    });
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        ctx.step(200);
        runtime.runLocked(ctx, [&](Tx& tx) {
            tx.store(&b, std::uint64_t(1));
            tx.work(2000);
        });
    });
    scheduler.run();
    EXPECT_EQ(attempts, 1u);
    EXPECT_EQ(runtime.threadStats(0).totalAborts(), 0u);
    EXPECT_EQ(runtime.threadStats(0).htmCommits, 1u);
    EXPECT_EQ(a, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, BgqLazySubscription,
    ::testing::Values(PolicyCase{"default",
                                 RetryPolicyKind::machineDefault},
                      PolicyCase{"hardened", RetryPolicyKind::hardened}),
    [](const ::testing::TestParamInfo<PolicyCase>& info) {
        return info.param.name;
    });

TEST(Constrained, EscalationGuaranteesProgressUnderHammering)
{
    // One constrained transaction against three big transactions that
    // keep touching its line: escalation must still let it commit.
    RuntimeConfig config = quiet(MachineConfig::zEC12());
    sim::Scheduler scheduler;
    Runtime runtime(config, 4);
    alignas(256) std::uint64_t hot = 0;
    bool constrained_done = false;
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        ctx.step(1000);
        runtime.constrainedAtomic(ctx, [&](Tx& tx) {
            tx.store(&hot, tx.load(&hot) + 100);
        });
        constrained_done = true;
    });
    for (unsigned t = 1; t < 4; ++t) {
        scheduler.spawn([&](sim::ThreadContext& ctx) {
            for (int i = 0; i < 60; ++i) {
                runtime.atomic(ctx, [&](Tx& tx) {
                    tx.store(&hot, tx.load(&hot) + 1);
                    tx.work(400);
                });
            }
        });
    }
    scheduler.run();
    EXPECT_TRUE(constrained_done);
    EXPECT_EQ(hot, 100u + 3 * 60);
    EXPECT_EQ(runtime.stats().constrainedCommits, 1u);
}

TEST(Trace, PercentileMathMatchesByHand)
{
    TraceCollector trace;
    for (std::uint32_t loads : {1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
        trace.record(loads, loads * 2);
    // 90th percentile of 1..10 with linear interpolation: 9.1.
    EXPECT_NEAR(trace.loadPercentileBytes(0.90, 64), 9.1 * 64, 1e-6);
    EXPECT_NEAR(trace.storePercentileBytes(0.50, 128), 11.0 * 128,
                1e-6);
    trace.clear();
    EXPECT_DOUBLE_EQ(trace.loadPercentileBytes(0.9, 64), 0.0);
}

TEST(Stats, AbortRatioExcludesIrrevocable)
{
    TxStats stats;
    stats.htmCommits = 6;
    stats.irrevocableCommits = 4;
    stats.reportedAborts[std::size_t(AbortCategory::dataConflict)] = 4;
    // 4 aborts / (4 aborts + 6 HTM commits); lock-path commits are
    // excluded from the denominator (paper Section 5).
    EXPECT_DOUBLE_EQ(stats.abortRatio(), 0.4);
    EXPECT_DOUBLE_EQ(stats.serializationRatio(), 0.4);
}

TEST(Runtime, ConflictDirectoryDrainsAfterRuns)
{
    sim::Scheduler scheduler;
    Runtime runtime(quiet(MachineConfig::power8()), 4);
    static std::vector<std::uint64_t> cells(256, 0);
    cells.assign(256, 0);
    for (unsigned t = 0; t < 4; ++t) {
        scheduler.spawn([&](sim::ThreadContext& ctx) {
            for (int i = 0; i < 100; ++i) {
                const auto index = ctx.rng().nextRange(16) * 16;
                runtime.atomic(ctx, [&](Tx& tx) {
                    tx.store(&cells[index],
                             tx.load(&cells[index]) + 1);
                });
            }
        });
    }
    scheduler.run();
    EXPECT_EQ(runtime.trackedConflictLines(), 0u)
        << "all reader/writer marks must be cleaned up";
}

TEST(RollbackOnly, CapacityBoundStillApplies)
{
    // ROT stores occupy TMCAM entries: more than 64 distinct store
    // lines must abort even without conflict detection.
    sim::Scheduler scheduler;
    Runtime runtime(quiet(MachineConfig::power8()), 1);
    std::vector<std::uint64_t> data(70 * 16, 0);
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        const bool committed = runtime.rollbackOnly(ctx, [&](Tx& tx) {
            for (std::size_t line = 0; line < 70; ++line)
                tx.store(&data[line * 16], std::uint64_t(1));
        });
        EXPECT_FALSE(committed);
    });
    scheduler.run();
    for (std::size_t line = 0; line < 70; ++line)
        EXPECT_EQ(data[line * 16], 0u) << "stores must roll back";
}

TEST(Determinism, SameSeedSameMakespanAcrossMachines)
{
    for (const auto& machine : MachineConfig::all()) {
        auto run_once = [&] {
            sim::Scheduler scheduler(11);
            Runtime runtime(quiet(machine), 4);
            static std::vector<std::uint64_t> slots(512, 0);
            slots.assign(512, 0);
            for (unsigned t = 0; t < 4; ++t) {
                scheduler.spawn([&](sim::ThreadContext& ctx) {
                    for (int i = 0; i < 100; ++i) {
                        const auto index =
                            ctx.rng().nextRange(32) * 16;
                        runtime.atomic(ctx, [&](Tx& tx) {
                            tx.store(&slots[index],
                                     tx.load(&slots[index]) + 1);
                            tx.work(50);
                        });
                    }
                });
            }
            scheduler.run();
            return scheduler.makespan();
        };
        // Same static buffer, same seed: identical virtual time.
        EXPECT_EQ(run_once(), run_once()) << machine.name;
    }
}

TEST(IrrevocableScope, NonSpeculativeBodyThrowRestoresStatus)
{
    RuntimeConfig config = quiet(MachineConfig::intelCore());
    sim::Scheduler scheduler;
    Runtime runtime(config, 1);
    struct BodyError
    {
    };
    std::uint64_t x = 0;
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        EXPECT_THROW(runtime.runNonSpeculative(
                         ctx, [&](Tx&) { throw BodyError{}; }),
                     BodyError);
        // The guard must leave the Tx reusable: no irrevocable status
        // leaks into the next section, which commits normally.
        EXPECT_EQ(runtime.txOf(0).status(), TxStatus::inactive);
        runtime.atomic(ctx, [&](Tx& tx) {
            tx.store(&x, std::uint64_t(1));
        });
    });
    scheduler.run();
    EXPECT_EQ(x, 1u);
    // The aborted non-speculative body must not count as a commit.
    EXPECT_EQ(runtime.stats().irrevocableCommits, 0u);
    EXPECT_EQ(runtime.stats().htmCommits, 1u);
}

} // namespace
