/**
 * @file
 * Tests for how attempts end: aborts decided at begin or commit are
 * returned as values and keep their attribution, no lifecycle event is
 * delivered from inside a C++ exception handler (fibers share the host
 * thread's caught-exception stack), and directory cleanup walks the
 * per-Tx first-touch log, prefetched neighbours included.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <vector>

#include "check/trace.hh"
#include "htm/runtime.hh"
#include "sim/sim.hh"

namespace
{

using namespace htmsim;
using namespace htmsim::htm;

RuntimeConfig
quietConfig(MachineConfig machine)
{
    machine.cacheFetchAbortProb = 0.0;
    machine.prefetchConflictProb = 0.0;
    return RuntimeConfig(std::move(machine));
}

std::uint64_t
trueCause(const TxStats& stats, AbortCause cause)
{
    return stats.trueCauseAborts[std::size_t(cause)];
}

std::uint64_t
reported(const TxStats& stats, AbortCategory category)
{
    return stats.reportedAborts[std::size_t(category)];
}

/** Kinds of one thread's events, in order. */
std::vector<TxEventKind>
kindsOf(const std::vector<TxEvent>& events, unsigned tid)
{
    std::vector<TxEventKind> kinds;
    for (const TxEvent& event : events) {
        if (event.tid == tid)
            kinds.push_back(event.kind);
    }
    return kinds;
}

// ------------------------------------------------------------------
// Aborts decided by the runtime at begin or commit
// ------------------------------------------------------------------

TEST(ReturnedAborts, LockHeldAtBeginIsALockConflict)
{
    for (const MachineConfig& machine : MachineConfig::all()) {
        SCOPED_TRACE(machine.name);
        sim::Scheduler scheduler;
        RuntimeConfig config = quietConfig(machine);
        check::EventRing ring(64);
        config.observer = &ring;
        Runtime runtime(config, 2);
        alignas(256) std::uint64_t a = 0;
        bool body_ran = false;
        AbortCause cause = AbortCause::none;
        scheduler.spawn([&](sim::ThreadContext& ctx) {
            ctx.step(100);
            ASSERT_TRUE(runtime.globalLockHeld());
            cause = runtime.tryOnce(ctx, [&](Tx& tx) {
                body_ran = true;
                tx.store(&a, std::uint64_t(1));
            });
        });
        scheduler.spawn([&](sim::ThreadContext& ctx) {
            runtime.runLocked(ctx, [&](Tx& tx) { tx.work(10000); });
        });
        scheduler.run();

        EXPECT_EQ(cause, AbortCause::lockConflict);
        EXPECT_FALSE(body_ran);
        EXPECT_EQ(a, 0u);
        const TxStats stats = runtime.stats();
        EXPECT_EQ(stats.totalAborts(), 1u);
        EXPECT_EQ(trueCause(stats, AbortCause::lockConflict), 1u);
        EXPECT_EQ(reported(stats, machine.hasAbortCodes
                                      ? AbortCategory::lockConflict
                                      : AbortCategory::unclassified),
                  1u);
        ASSERT_EQ(ring.dropped(), 0u);
        EXPECT_EQ(check::checkTraceInvariants(ring.history(), 2), "");
        EXPECT_EQ(kindsOf(ring.history(), 0),
                  (std::vector<TxEventKind>{TxEventKind::begin,
                                            TxEventKind::abort}));
    }
}

TEST(ReturnedAborts, DoomWhileWaitingAtTendKeepsThePeersCause)
{
    // Thread 0's body ends with a load of `a`; a long tend gives
    // thread 1 time to store to `a` non-transactionally before the
    // commit point, so the doom is only acted on at tend.
    constexpr Cycles tendCost = 2000;
    MachineConfig machine = MachineConfig::intelCore();
    machine.txEndCost = tendCost;
    RuntimeConfig config = quietConfig(machine);
    check::EventRing ring(64);
    config.observer = &ring;
    sim::Scheduler scheduler;
    Runtime runtime(config, 2);
    alignas(64) std::uint64_t a = 0;
    bool body_done = false;
    Cycles body_end = 0;
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        runtime.atomic(ctx, [&](Tx& tx) {
            (void)tx.load(&a);
            if (!body_done) {
                body_done = true;
                body_end = ctx.now();
            }
        });
    });
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        ctx.spinUntil([&] { return body_done; }, 10);
        runtime.nonTxStore(ctx, &a, std::uint64_t(7));
    });
    scheduler.run();

    const TxStats stats = runtime.stats();
    EXPECT_EQ(stats.htmCommits, 1u);
    EXPECT_EQ(stats.totalAborts(), 1u);
    EXPECT_EQ(trueCause(stats, AbortCause::dataConflict), 1u);
    EXPECT_EQ(reported(stats, AbortCategory::dataConflict), 1u);

    ASSERT_EQ(ring.dropped(), 0u);
    const std::vector<TxEvent>& events = ring.history();
    EXPECT_EQ(check::checkTraceInvariants(events, 2), "");
    EXPECT_EQ(kindsOf(events, 0),
              (std::vector<TxEventKind>{
                  TxEventKind::begin, TxEventKind::abort,
                  TxEventKind::begin, TxEventKind::commit}));
    for (const TxEvent& event : events) {
        if (event.kind == TxEventKind::abort) {
            EXPECT_EQ(event.cause, AbortCause::dataConflict);
            EXPECT_GE(event.cycles, body_end + tendCost)
                << "the abort must come after waiting at tend";
        }
    }
}

TEST(ReturnedAborts, BgqLongRunningCommitUnderLockIsALockConflict)
{
    // Lazy subscription: the lock is only checked at commit, so a
    // transaction that runs while a peer takes the lock aborts there.
    RuntimeConfig config = quietConfig(MachineConfig::blueGeneQ());
    config.bgq.mode = BgqMode::longRunning;
    check::EventRing ring(64);
    config.observer = &ring;
    sim::Scheduler scheduler;
    Runtime runtime(config, 2);
    alignas(128) std::uint64_t a = 0;
    alignas(128) std::uint64_t b = 0;
    AbortCause cause = AbortCause::none;
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        cause = runtime.tryOnce(ctx, [&](Tx& tx) {
            (void)tx.load(&a);
            tx.work(4000);
            tx.store(&a, std::uint64_t(1));
        });
    });
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        ctx.step(300);
        runtime.runLocked(ctx, [&](Tx& tx) {
            tx.store(&b, std::uint64_t(1));
            tx.work(10000);
        });
    });
    scheduler.run();

    EXPECT_EQ(cause, AbortCause::lockConflict);
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    const TxStats stats = runtime.stats();
    EXPECT_EQ(stats.totalAborts(), 1u);
    EXPECT_EQ(trueCause(stats, AbortCause::lockConflict), 1u);
    EXPECT_EQ(reported(stats, AbortCategory::unclassified), 1u);

    ASSERT_EQ(ring.dropped(), 0u);
    EXPECT_EQ(check::checkTraceInvariants(ring.history(), 2), "");
    EXPECT_EQ(kindsOf(ring.history(), 0),
              (std::vector<TxEventKind>{TxEventKind::begin,
                                        TxEventKind::abort}));
}

// ------------------------------------------------------------------
// No event from inside an exception handler
// ------------------------------------------------------------------

/** Counts events delivered while an exception is being handled. */
class HandlerProbe final : public TxObserver
{
  public:
    void
    onEvent(const TxEvent& event) override
    {
        if (event.kind == TxEventKind::abort)
            ++aborts;
        if (std::current_exception() != nullptr)
            ++insideHandler;
    }

    void
    onConflict(const TxConflictEvent&) override
    {
        if (std::current_exception() != nullptr)
            ++insideHandler;
    }

    unsigned aborts = 0;
    unsigned insideHandler = 0;
};

/** Four threads incrementing one counter: aborts on every path. */
void
runContendedCounter(RuntimeConfig config, HandlerProbe& probe)
{
    config.observer = &probe;
    sim::Scheduler scheduler;
    Runtime runtime(config, 4);
    std::uint64_t counter = 0;
    for (unsigned t = 0; t < 4; ++t) {
        scheduler.spawn([&](sim::ThreadContext& ctx) {
            for (int i = 0; i < 20; ++i) {
                runtime.atomic(ctx, [&](Tx& tx) {
                    const auto value = tx.load(&counter);
                    tx.work(50);
                    tx.store(&counter, value + 1);
                });
            }
        });
    }
    scheduler.run();
    EXPECT_EQ(counter, 80u);
}

TEST(AbortHandling, NoEventIsDeliveredInsideAHandler)
{
    {
        SCOPED_TRACE("hardware attempts");
        HandlerProbe probe;
        runContendedCounter(quietConfig(MachineConfig::intelCore()),
                            probe);
        EXPECT_GT(probe.aborts, 0u);
        EXPECT_EQ(probe.insideHandler, 0u);
    }
    {
        SCOPED_TRACE("software attempts");
        RuntimeConfig config = quietConfig(MachineConfig::intelCore());
        config.backend = BackendKind::hybrid;
        config.hybrid.stmOnly = true;
        HandlerProbe probe;
        runContendedCounter(config, probe);
        EXPECT_GT(probe.aborts, 0u);
        EXPECT_EQ(probe.insideHandler, 0u);
    }
    {
        SCOPED_TRACE("rollback-only transactions");
        RuntimeConfig config = quietConfig(MachineConfig::power8());
        HandlerProbe probe;
        config.observer = &probe;
        sim::Scheduler scheduler;
        Runtime runtime(config, 2);
        std::uint64_t value = 0;
        for (unsigned t = 0; t < 2; ++t) {
            scheduler.spawn([&](sim::ThreadContext& ctx) {
                for (int i = 0; i < 3; ++i) {
                    EXPECT_FALSE(runtime.rollbackOnly(ctx, [&](Tx& tx) {
                        tx.store(&value, std::uint64_t(1));
                        tx.abortTx();
                    }));
                }
            });
        }
        scheduler.run();
        EXPECT_EQ(value, 0u);
        EXPECT_EQ(probe.aborts, 6u);
        EXPECT_EQ(probe.insideHandler, 0u);
        EXPECT_EQ(trueCause(runtime.stats(), AbortCause::explicitAbort),
                  6u);
    }
}

// ------------------------------------------------------------------
// Directory cleanup walks the first-touch log
// ------------------------------------------------------------------

TEST(DirectoryCleanup, SpilledTablesLeaveNoMarks)
{
    // Every new line also pulls its buddy line in as transactionally
    // read, so each attempt below logs 2 x 128 conflict lines: far past
    // the per-Tx tables' 16 inline slots.
    MachineConfig machine = MachineConfig::intelCore();
    machine.cacheFetchAbortProb = 0.0;
    machine.prefetchConflictProb = 1.0;
    sim::Scheduler scheduler;
    Runtime runtime(RuntimeConfig(machine), 1);
    constexpr std::size_t lines = 128;
    alignas(128) static std::uint64_t data[lines * 16];
    const auto touchAll = [&](Tx& tx) {
        for (std::size_t i = 0; i < lines; ++i) {
            const auto value = tx.load(&data[i * 16]);
            if (i % 4 == 0)
                tx.store(&data[i * 16], value + 1);
        }
    };
    std::size_t after_commit = ~std::size_t(0);
    std::size_t after_rollback = ~std::size_t(0);
    std::size_t after_small_commit = ~std::size_t(0);
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        NoRetryPolicy policy;
        EXPECT_EQ(runtime.tryAtomic(ctx, policy, touchAll),
                  AbortCause::none);
        after_commit = runtime.trackedConflictLines();

        EXPECT_EQ(runtime.tryAtomic(ctx, policy,
                                    [&](Tx& tx) {
                                        touchAll(tx);
                                        tx.abortTx();
                                    }),
                  AbortCause::explicitAbort);
        after_rollback = runtime.trackedConflictLines();

        EXPECT_EQ(runtime.tryAtomic(ctx, policy,
                                    [&](Tx& tx) {
                                        tx.store(&data[0],
                                                 std::uint64_t(9));
                                    }),
                  AbortCause::none);
        after_small_commit = runtime.trackedConflictLines();
    });
    scheduler.run();
    EXPECT_EQ(after_commit, 0u);
    EXPECT_EQ(after_rollback, 0u);
    EXPECT_EQ(after_small_commit, 0u);
    EXPECT_EQ(data[0], 9u);
    EXPECT_EQ(data[4 * 16], 1u);
}

} // namespace
