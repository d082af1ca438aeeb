/**
 * @file
 * Tests for how attempts end: aborts decided at begin or commit are
 * returned as values and keep their attribution; aborts raised inside
 * an attempt restore its begin checkpoint for every kind of attempt
 * (hardware, software, rollback-only), free the attempt's allocations
 * and leave the Tx reusable, while programming errors and observers'
 * exceptions still propagate, after the attempt is discarded and
 * before a software commit writes a word; and directory cleanup walks
 * the per-Tx first-touch log, prefetched neighbours included, on both
 * lookup paths of the directory.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "check/liveness.hh"
#include "check/trace.hh"
#include "htm/runtime.hh"
#include "lookup_paths.hh"
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
// Aborts restore the attempt's begin checkpoint
// ------------------------------------------------------------------

/** The three kinds of attempt Runtime::attempt drives: hardware,
 *  software and rollback-only. */
enum class Driver
{
    hardware,
    software,
    rollbackOnly,
};

constexpr Driver allDrivers[] = {Driver::hardware, Driver::software,
                                 Driver::rollbackOnly};

const char*
driverName(Driver driver)
{
    switch (driver) {
      case Driver::hardware: return "hardware attempt";
      case Driver::software: return "software attempt";
      case Driver::rollbackOnly: return "rollback-only transaction";
    }
    return "?";
}

/** POWER8 has every driver; the software one needs an STM-only
 *  hybrid runtime. */
RuntimeConfig
configFor(Driver driver)
{
    RuntimeConfig config = quietConfig(MachineConfig::power8());
    if (driver == Driver::software) {
        config.backend = BackendKind::hybrid;
        config.hybrid.stmOnly = true;
    }
    return config;
}

/**
 * One section through @p driver: one hardware attempt (tryOnce), a
 * section on the STM-only runtime (an aborted software attempt is
 * retried in software), or one rollback-only transaction.
 */
void
runOn(Driver driver, Runtime& runtime, sim::ThreadContext& ctx,
      FunctionRef<void(Tx&)> body)
{
    switch (driver) {
      case Driver::hardware:
        (void)runtime.tryOnce(ctx, body);
        break;
      case Driver::software:
        runtime.atomic(ctx, body);
        break;
      case Driver::rollbackOnly:
        (void)runtime.rollbackOnly(ctx, body);
        break;
    }
}

/** Records the cause of every abort event. */
class AbortLog final : public TxObserver
{
  public:
    void
    onEvent(const TxEvent& event) override
    {
        if (event.kind == TxEventKind::abort)
            causes.push_back(event.cause);
    }

    std::vector<AbortCause> causes;
};

/** A trivially destructible transactional allocation. */
struct Node
{
    std::uint64_t value;
};

/** Returns through atDepth() frames; an abort abandons them. */
unsigned framesReturned = 0;

/** Runs @p bottom @p depth frames down. Counting the return after the
 *  call keeps every frame on the stack (no tail call). */
[[gnu::noinline]] void
atDepth(unsigned depth, FunctionRef<void()> bottom)
{
    if (depth == 0)
        bottom();
    else
        atDepth(depth - 1, bottom);
    ++framesReturned;
}

TEST(AbortCheckpoint, EveryDriverResumesAtItsCheckpoint)
{
    for (const Driver driver : allDrivers) {
        SCOPED_TRACE(driverName(driver));
        for (const unsigned depth : {0u, 64u}) {
            SCOPED_TRACE(depth);
            RuntimeConfig config = configFor(driver);
            AbortLog log;
            config.observer = &log;
            sim::Scheduler scheduler;
            Runtime runtime(config, 1);
            alignas(256) std::uint64_t word = 0;
            Node* aborted = nullptr;
            Node* reused = nullptr;
            bool first_run = true;
            std::uint64_t after_abort = ~std::uint64_t(0);
            scheduler.spawn([&](sim::ThreadContext& ctx) {
                runOn(driver, runtime, ctx, [&](Tx& tx) {
                    if (!first_run)
                        return; // the software driver's retry
                    first_run = false;
                    aborted = tx.create<Node>(Node{1});
                    atDepth(depth, [&] {
                        tx.store(&word, std::uint64_t(1));
                        tx.abortTx();
                    });
                    ADD_FAILURE() << "the abort returned into the body";
                });
                after_abort = word;
                // The next section on the same Tx commits normally,
                // and the aborted attempt's allocation went back to
                // the region: the same-size allocation reuses it.
                runOn(driver, runtime, ctx, [&](Tx& tx) {
                    reused = tx.create<Node>(Node{2});
                    tx.store(&word, std::uint64_t(7));
                });
            });
            framesReturned = 0;
            scheduler.run();

            EXPECT_EQ(framesReturned, 0u);
            EXPECT_EQ(log.causes,
                      std::vector<AbortCause>{AbortCause::explicitAbort});
            EXPECT_EQ(after_abort, 0u);
            EXPECT_EQ(word, 7u);
            ASSERT_NE(aborted, nullptr);
            EXPECT_EQ(reused, aborted);
            EXPECT_EQ(reused->value, 2u);
            const TxStats stats = runtime.stats();
            // The software driver's section retried and committed.
            EXPECT_EQ(stats.htmCommits + stats.stmCommits,
                      driver == Driver::software ? 2u : 1u);
            EXPECT_EQ(runtime.txOf(0).status(), TxStatus::inactive);
        }
    }
}

TEST(AbortCheckpoint, DoomSeenAtAnAccessResumesAtTheCheckpoint)
{
    // Thread 0 reads `a`, allocates, then works while thread 1 writes
    // `a`: the hardware attempt is doomed and acts on it at its next
    // load or store; the software attempt's next load of `a` fails
    // orec validation. Either way the access never completes.
    struct Case
    {
        const char* name;
        Driver driver;
        bool store;
        AbortCause cause;
    };
    const Case cases[] = {
        {"hardware load", Driver::hardware, false,
         AbortCause::dataConflict},
        {"hardware store", Driver::hardware, true,
         AbortCause::dataConflict},
        {"software load", Driver::software, false,
         AbortCause::stmConflict},
    };
    for (const Case& test : cases) {
        SCOPED_TRACE(test.name);
        RuntimeConfig config = configFor(test.driver);
        AbortLog log;
        config.observer = &log;
        sim::Scheduler scheduler;
        Runtime runtime(config, 2);
        alignas(256) std::uint64_t a = 0;
        alignas(256) std::uint64_t b = 0;
        Node* aborted = nullptr;
        Node* reused = nullptr;
        bool read_a = false;
        bool access_done = false;
        scheduler.spawn([&](sim::ThreadContext& ctx) {
            runOn(test.driver, runtime, ctx, [&](Tx& tx) {
                if (read_a)
                    return; // the software driver's retry
                (void)tx.load(&a);
                aborted = tx.create<Node>(Node{1});
                read_a = true;
                tx.work(5000);
                if (test.store)
                    tx.store(&b, std::uint64_t(1));
                else
                    (void)tx.load(&a);
                access_done = true;
            });
            runOn(test.driver, runtime, ctx, [&](Tx& tx) {
                reused = tx.create<Node>(Node{2});
                tx.store(&b, std::uint64_t(2));
            });
        });
        scheduler.spawn([&](sim::ThreadContext& ctx) {
            ctx.spinUntil([&] { return read_a; }, 10);
            runtime.atomic(ctx, [&](Tx& tx) {
                tx.store(&a, std::uint64_t(5));
            });
        });
        scheduler.run();

        EXPECT_FALSE(access_done);
        EXPECT_EQ(log.causes, std::vector<AbortCause>{test.cause});
        EXPECT_EQ(a, 5u);
        EXPECT_EQ(b, 2u);
        ASSERT_NE(aborted, nullptr);
        EXPECT_EQ(reused, aborted);
    }
}

TEST(AbortCheckpoint, SubscriptionLoadAbortResumesAtTheCheckpoint)
{
    // The checkpoint is taken before begin: txBegin's lock
    // subscription is a transactional load, and an interrupt due by
    // then aborts it before the body runs. The injected interrupt
    // process fires once the thread's clock passes its first
    // deadline, 0.5-1.5 interval lengths after the first attempt.
    RuntimeConfig config = quietConfig(MachineConfig::intelCore());
    config.hazard.enabled = true;
    config.hazard.interruptRate = 1e-6;
    sim::Scheduler scheduler;
    Runtime runtime(config, 1);
    alignas(64) std::uint64_t word = 0;
    unsigned body_runs = 0;
    AbortCause first = AbortCause::none;
    AbortCause subscribed = AbortCause::none;
    AbortCause next = AbortCause::none;
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        const auto body = [&](Tx& tx) {
            ++body_runs;
            tx.store(&word, tx.load(&word) + 1);
        };
        first = runtime.tryOnce(ctx, body);
        ctx.step(2'000'000);
        subscribed = runtime.tryOnce(ctx, body);
        next = runtime.tryOnce(ctx, body);
    });
    scheduler.run();

    EXPECT_EQ(first, AbortCause::none);
    EXPECT_EQ(subscribed, AbortCause::interrupt);
    EXPECT_EQ(next, AbortCause::none);
    EXPECT_EQ(body_runs, 2u);
    EXPECT_EQ(word, 2u);
}

TEST(AbortCheckpoint, BodyLogicErrorsStillReachTheCaller)
{
    // Programming errors are not aborts: they leave the body as
    // exceptions through every driver.
    for (const Driver driver : allDrivers) {
        SCOPED_TRACE(driverName(driver));
        sim::Scheduler scheduler;
        Runtime runtime(configFor(driver), 1);
        alignas(64) std::uint64_t word = 0;
        scheduler.spawn([&](sim::ThreadContext& ctx) {
            EXPECT_THROW(runOn(driver, runtime, ctx,
                               [&](Tx& tx) {
                                   tx.store(&word, std::uint64_t(1));
                                   throw std::logic_error("body bug");
                               }),
                         std::logic_error);
        });
        scheduler.run();
        EXPECT_EQ(word, 0u);
        EXPECT_EQ(runtime.stats().totalAborts(), 0u);
    }
    // An abort with no attempt to resume is one too.
    sim::Scheduler scheduler;
    Runtime runtime(quietConfig(MachineConfig::intelCore()), 1);
    scheduler.spawn([&](sim::ThreadContext&) {
        EXPECT_THROW(runtime.txOf(0).abortTx(), std::logic_error);
    });
    scheduler.run();
}

/** Throws a liveness verdict at its first begin event, as the
 *  liveness oracle does from inside a run. */
class ThrowAtFirstBegin final : public TxObserver
{
  public:
    void
    onEvent(const TxEvent& event) override
    {
        if (event.kind == TxEventKind::begin && !fired_) {
            fired_ = true;
            throw check::LivenessViolation("watchdog verdict");
        }
    }

  private:
    bool fired_ = false;
};

TEST(AbortCheckpoint, EscapingExceptionsDiscardTheAttempt)
{
    // An exception leaving an attempt is no abort, but the attempt is
    // over: it is discarded (marks, allocations, core slot,
    // speculation id) before the exception reaches the caller, so the
    // thread's next section runs on a clean Tx.
    for (const Driver driver : allDrivers) {
        SCOPED_TRACE(driverName(driver));
        for (const bool from_observer : {false, true}) {
            SCOPED_TRACE(from_observer ? "observer's LivenessViolation"
                                       : "body's logic_error");
            RuntimeConfig config = configFor(driver);
            ThrowAtFirstBegin observer;
            if (from_observer)
                config.observer = &observer;
            sim::Scheduler scheduler;
            Runtime runtime(config, 1);
            alignas(256) std::uint64_t word = 0;
            alignas(256) std::uint64_t other = 0;
            Node* discarded = nullptr;
            Node* reused = nullptr;
            bool threw = false;
            std::size_t tracked = ~std::size_t(0);
            TxStatus status = TxStatus::active;
            scheduler.spawn([&](sim::ThreadContext& ctx) {
                try {
                    runOn(driver, runtime, ctx, [&](Tx& tx) {
                        (void)tx.load(&other);
                        discarded = tx.create<Node>(Node{1});
                        tx.store(&word, std::uint64_t(1));
                        throw std::logic_error("body bug");
                    });
                } catch (const std::exception&) {
                    threw = true;
                }
                tracked = runtime.trackedConflictLines();
                status = runtime.txOf(0).status();
                runOn(driver, runtime, ctx, [&](Tx& tx) {
                    reused = tx.create<Node>(Node{2});
                    tx.store(&word, tx.load(&word) + 2);
                });
            });
            scheduler.run();

            EXPECT_TRUE(threw);
            EXPECT_EQ(tracked, 0u);
            EXPECT_EQ(status, TxStatus::inactive);
            EXPECT_EQ(word, 2u) << "the next section commits";
            const TxStats stats = runtime.stats();
            EXPECT_EQ(stats.htmCommits + stats.stmCommits, 1u);
            EXPECT_EQ(stats.totalAborts(), 0u);
            if (!from_observer) {
                ASSERT_NE(discarded, nullptr);
                EXPECT_EQ(reused, discarded)
                    << "the discarded allocation went back to the region";
            }
            EXPECT_EQ(runtime.trackedConflictLines(), 0u);
        }
    }
}

TEST(AbortCheckpoint, EscapingExceptionsReleaseTheSpeculationId)
{
    // Blue Gene/Q hands out speculation ids at begin. A body that
    // throws with its id still held would starve the pool; discarding
    // the attempt retires the id like a rollback.
    MachineConfig machine = MachineConfig::blueGeneQ();
    machine.speculationIds = 1;
    sim::Scheduler scheduler;
    Runtime runtime(quietConfig(machine), 1);
    alignas(256) std::uint64_t word = 0;
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        EXPECT_THROW(runtime.tryOnce(ctx,
                                     [&](Tx& tx) {
                                         tx.store(&word, std::uint64_t(1));
                                         throw std::logic_error("bug");
                                     }),
                     std::logic_error);
        EXPECT_EQ(runtime.tryOnce(ctx,
                                  [&](Tx& tx) {
                                      tx.store(&word, std::uint64_t(3));
                                  }),
                  AbortCause::none);
    });
    scheduler.run();
    EXPECT_EQ(word, 3u);
    EXPECT_EQ(runtime.stats().specIdReclaims, 1u);
}

/** Throws a liveness verdict from its first conflict event. */
class ThrowAtFirstConflict final : public TxObserver
{
  public:
    void onEvent(const TxEvent&) override {}

    void
    onConflict(const TxConflictEvent&) override
    {
        if (!fired_) {
            fired_ = true;
            throw check::LivenessViolation("watchdog verdict");
        }
    }

  private:
    bool fired_ = false;
};

TEST(AbortCheckpoint, ObserverThrowDuringSoftwareCommitLeavesMemoryUntouched)
{
    // t0's software section stores a, then b, while t1's hardware
    // attempt has read b: t0's commit dooms t1, and that conflict
    // event throws. A software commit dooms the hardware peers of
    // every buffered word before it writes the first one, so neither
    // store lands, and the driver discards the attempt on the
    // exception's way out.
    RuntimeConfig config = quietConfig(MachineConfig::intelCore());
    config.backend = BackendKind::hybrid;
    config.hybrid.stmOnly = true;
    ThrowAtFirstConflict observer;
    config.observer = &observer;
    sim::Scheduler scheduler;
    Runtime runtime(config, 2);
    alignas(256) std::uint64_t a = 1;
    alignas(256) std::uint64_t b = 2;
    bool b_read = false;
    bool threw = false;
    std::uint64_t a_after = 0;
    std::uint64_t b_after = 0;
    TxStatus status = TxStatus::active;
    AbortCause reader = AbortCause::none;
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        ctx.spinUntil([&] { return b_read; }, 10);
        try {
            runtime.atomic(ctx, [&](Tx& tx) {
                tx.store(&a, std::uint64_t(10));
                tx.store(&b, std::uint64_t(20));
            });
        } catch (const check::LivenessViolation&) {
            threw = true;
        }
        a_after = a;
        b_after = b;
        status = runtime.txOf(0).status();
        runtime.atomic(ctx, [&](Tx& tx) {
            tx.store(&a, tx.load(&a) + 4);
        });
    });
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        reader = runtime.tryOnce(ctx, [&](Tx& tx) {
            (void)tx.load(&b);
            b_read = true;
            tx.work(5000);
        });
    });
    scheduler.run();

    EXPECT_TRUE(threw);
    EXPECT_EQ(a_after, 1u);
    EXPECT_EQ(b_after, 2u);
    EXPECT_EQ(status, TxStatus::inactive);
    EXPECT_EQ(a, 5u) << "the next section commits";
    EXPECT_EQ(b, 2u);
    EXPECT_EQ(reader, AbortCause::dataConflict);
    const TxStats stats = runtime.stats();
    EXPECT_EQ(stats.stmCommits, 1u);
    EXPECT_EQ(stats.htmCommits, 0u);
    EXPECT_EQ(runtime.trackedConflictLines(), 0u);
}

TEST(AbortCheckpoint, ConstrainedModeEndsWithAThrowingSection)
{
    // A constrained-transaction limit violation throws out of the
    // section; the next plain section must not inherit the
    // constrained limit of 32 operations.
    constexpr std::size_t ops = 40;
    sim::Scheduler scheduler;
    Runtime runtime(quietConfig(MachineConfig::zEC12()), 1);
    alignas(256) std::uint64_t words[ops] = {};
    const auto storeAll = [&](Tx& tx) {
        for (std::size_t i = 0; i < ops; ++i)
            tx.store(&words[i], std::uint64_t(i + 1));
    };
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        EXPECT_THROW(runtime.constrainedAtomic(ctx, storeAll),
                     std::logic_error);
        runtime.atomic(ctx, storeAll);
    });
    scheduler.run();
    EXPECT_EQ(words[ops - 1], ops);
    const TxStats stats = runtime.stats();
    EXPECT_EQ(stats.htmCommits, 1u);
    EXPECT_EQ(stats.constrainedCommits, 0u);
    EXPECT_EQ(runtime.txOf(0).status(), TxStatus::inactive);
}

TEST(AbortCheckpoint, RollbackOnlyTracesPassTheChecker)
{
    // A POWER8 rollback-only transaction reports its begin, and its
    // commit or abort, like any attempt.
    RuntimeConfig config = configFor(Driver::rollbackOnly);
    check::EventRing ring(64);
    config.observer = &ring;
    sim::Scheduler scheduler;
    Runtime runtime(config, 1);
    alignas(256) std::uint64_t word = 0;
    bool committed = false;
    bool aborted_committed = true;
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        committed = runtime.rollbackOnly(ctx, [&](Tx& tx) {
            tx.store(&word, std::uint64_t(1));
        });
        aborted_committed = runtime.rollbackOnly(ctx, [&](Tx& tx) {
            tx.store(&word, std::uint64_t(2));
            tx.abortTx();
        });
    });
    scheduler.run();

    EXPECT_TRUE(committed);
    EXPECT_FALSE(aborted_committed);
    EXPECT_EQ(word, 1u);
    ASSERT_EQ(ring.dropped(), 0u);
    EXPECT_EQ(check::checkTraceInvariants(ring.history(), 1), "");
    EXPECT_EQ(kindsOf(ring.history(), 0),
              (std::vector<TxEventKind>{
                  TxEventKind::begin, TxEventKind::commit,
                  TxEventKind::begin, TxEventKind::abort}));
}

TEST(AbortCheckpoint, RollbackOnlyCommitDuringALockHoldPassesTheChecker)
{
    // A ROT does not subscribe to the fallback lock, so it may commit
    // while a peer holds it; its events carry the rollback-only flag
    // that exempts that commit from the checker's lock rule.
    RuntimeConfig config = configFor(Driver::rollbackOnly);
    check::EventRing ring(64);
    config.observer = &ring;
    sim::Scheduler scheduler;
    Runtime runtime(config, 2);
    alignas(256) std::uint64_t word = 0;
    bool lock_held_at_commit = false;
    bool committed = false;
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        runtime.runLocked(ctx, [](Tx& tx) { tx.work(10000); });
    });
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        ctx.step(500);
        committed = runtime.rollbackOnly(ctx, [&](Tx& tx) {
            tx.store(&word, std::uint64_t(1));
        });
        lock_held_at_commit = runtime.globalLockHeld();
    });
    scheduler.run();

    EXPECT_TRUE(committed);
    EXPECT_TRUE(lock_held_at_commit);
    EXPECT_EQ(word, 1u);
    ASSERT_EQ(ring.dropped(), 0u);
    EXPECT_EQ(check::checkTraceInvariants(ring.history(), 2), "");
    unsigned flagged = 0;
    for (const TxEvent& event : ring.history()) {
        if (event.tid == 1 && (event.kind == TxEventKind::begin ||
                               event.kind == TxEventKind::commit))
            flagged += event.rollbackOnly ? 1 : 0;
        else
            EXPECT_FALSE(event.rollbackOnly);
    }
    EXPECT_EQ(flagged, 2u);
}

TEST(AbortCheckpoint, MixedWidthAccessToABufferedWordThrows)
{
    // The write buffer holds whole words keyed by address, so it
    // cannot merge two widths at one address. Release builds used to
    // lose an 8-byte store under a later 1-byte one (committing
    // 0x11111111111111bb) and to answer an 8-byte load over a 1-byte
    // store with 0x00000000000000cc. Every path that consults the
    // buffer throws instead, and memory keeps its old value.
    using Sequence = void (*)(Tx&, std::uint64_t*);
    const Sequence wide_then_narrow_store = [](Tx& tx,
                                               std::uint64_t* word) {
        tx.store(word, std::uint64_t(0xaaaaaaaaaaaaaaaa));
        tx.store(reinterpret_cast<std::uint8_t*>(word),
                 std::uint8_t(0xbb));
    };
    const Sequence narrow_store_wide_load = [](Tx& tx,
                                               std::uint64_t* word) {
        tx.store(reinterpret_cast<std::uint8_t*>(word),
                 std::uint8_t(0xcc));
        (void)tx.load(word);
    };
    const Sequence suspended_wide_load = [](Tx& tx,
                                            std::uint64_t* word) {
        tx.store(reinterpret_cast<std::uint8_t*>(word),
                 std::uint8_t(0xcc));
        tx.suspend();
        (void)tx.load(word);
    };
    const auto expectThrows = [](Driver driver, Sequence sequence) {
        sim::Scheduler scheduler;
        Runtime runtime(configFor(driver), 1);
        alignas(64) std::uint64_t word = 0x1111111111111111;
        scheduler.spawn([&](sim::ThreadContext& ctx) {
            EXPECT_THROW(runOn(driver, runtime, ctx,
                               [&](Tx& tx) { sequence(tx, &word); }),
                         std::logic_error);
        });
        scheduler.run();
        EXPECT_EQ(word, 0x1111111111111111u);
    };
    for (const Driver driver : allDrivers) {
        SCOPED_TRACE(driverName(driver));
        expectThrows(driver, wide_then_narrow_store);
        expectThrows(driver, narrow_store_wide_load);
    }
    SCOPED_TRACE("suspended load");
    expectThrows(Driver::hardware, suspended_wide_load);
}

// ------------------------------------------------------------------
// Directory cleanup walks the first-touch log
// ------------------------------------------------------------------

TEST(DirectoryCleanup, SpilledTablesLeaveNoMarks)
{
    // Every new line also pulls its buddy line in as transactionally
    // read, so each attempt below logs 2 x 128 conflict lines: far past
    // the fallback table's 16 inline slots on host memory, and 256
    // shadow cells on region memory.
    constexpr std::size_t lines = 128;
    test::onHostAndRegionMemory(lines * 16, [](std::uint64_t* data) {
        MachineConfig machine = MachineConfig::intelCore();
        machine.cacheFetchAbortProb = 0.0;
        machine.prefetchConflictProb = 1.0;
        sim::Scheduler scheduler;
        Runtime runtime(RuntimeConfig(machine), 1);
        const auto touchAll = [&](Tx& tx) {
            for (std::size_t i = 0; i < lines; ++i) {
                const auto value = tx.load(&data[i * 16]);
                if (i % 4 == 0)
                    tx.store(&data[i * 16], value + 1);
            }
        };
        std::size_t during = 0;
        std::size_t after_commit = ~std::size_t(0);
        std::size_t after_rollback = ~std::size_t(0);
        std::size_t after_small_commit = ~std::size_t(0);
        scheduler.spawn([&](sim::ThreadContext& ctx) {
            NoRetryPolicy policy;
            EXPECT_EQ(runtime.tryAtomic(ctx, policy,
                                        [&](Tx& tx) {
                                            touchAll(tx);
                                            during = runtime
                                                .trackedConflictLines();
                                        }),
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
        // Each line and its buddy, and the subscribed lock word's.
        EXPECT_EQ(during, 2 * lines + 2);
        EXPECT_EQ(after_commit, 0u);
        EXPECT_EQ(after_rollback, 0u);
        EXPECT_EQ(after_small_commit, 0u);
        EXPECT_EQ(data[0], 9u);
        EXPECT_EQ(data[4 * 16], 1u);
    });
}

} // namespace
