/**
 * @file
 * tmsync subsystem tests: the elidable mutex / shared-mutex /
 * condition-variable primitives, the guard executors, the adversarial
 * scenarios under the liveness oracle, and the zero-perturbation
 * contract (constructing tmsync objects must not move a single cycle
 * of an existing workload — pinned with the same forked A/B technique
 * as test_prof.cc).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "bench/forked.hh"
#include "check/liveness.hh"
#include "htm/machine.hh"
#include "htm/runtime.hh"
#include "htm/site.hh"
#include "htm/tx.hh"
#include "server/server.hh"
#include "sim/sim.hh"
#include "tmsync/atomic_condition_variable.hh"
#include "tmsync/atomic_mutex.hh"
#include "tmsync/atomic_shared_mutex.hh"
#include "tmsync/guard.hh"
#include "tmsync/scenarios.hh"

namespace
{

using namespace htmsim;
using namespace htmsim::htm;
using namespace htmsim::tmsync;

RuntimeConfig
quietConfig(MachineConfig machine)
{
    machine.cacheFetchAbortProb = 0.0;
    machine.prefetchConflictProb = 0.0;
    return RuntimeConfig(std::move(machine));
}

const TxSiteId kTestSite = txSite("test.tmsync.section");

// ------------------------------------------------------------------
// atomic_mutex + transactional_lock_guard
// ------------------------------------------------------------------

TEST(TmsyncMutex, UncontendedSectionsElideOnElisionMachines)
{
    for (const MachineConfig& machine :
         {MachineConfig::intelCore(), MachineConfig::zEC12(),
          MachineConfig::power8()}) {
        Runtime runtime(quietConfig(machine), 1);
        atomic_mutex mutex;
        std::uint64_t counter = 0;
        constexpr int sections = 10;

        sim::runThreads(1, 1, [&](sim::ThreadContext& ctx) {
            for (int i = 0; i < sections; ++i) {
                transactional_lock_guard guard(
                    runtime, ctx, mutex, kTestSite, SyncMode::elided,
                    [&](Tx& tx) {
                        tx.store(&counter, tx.load(&counter) + 1);
                    });
                EXPECT_TRUE(guard.elided()) << machine.name;
            }
        });

        EXPECT_EQ(counter, std::uint64_t(sections)) << machine.name;
        EXPECT_EQ(runtime.stats().htmCommits,
                  std::uint64_t(sections))
            << machine.name;
        EXPECT_EQ(runtime.stats().irrevocableCommits, 0u)
            << machine.name << ": elided sections never take the lock";
        EXPECT_FALSE(mutex.is_locked());
    }
}

TEST(TmsyncMutex, ElidedModeDegradesToTatasOnBlueGeneQ)
{
    Runtime runtime(quietConfig(MachineConfig::blueGeneQ()), 1);
    atomic_mutex mutex;
    std::uint64_t counter = 0;
    constexpr int sections = 10;

    sim::runThreads(1, 1, [&](sim::ThreadContext& ctx) {
        for (int i = 0; i < sections; ++i) {
            transactional_lock_guard guard(
                runtime, ctx, mutex, kTestSite, SyncMode::elided,
                [&](Tx& tx) {
                    tx.store(&counter, tx.load(&counter) + 1);
                });
            EXPECT_FALSE(guard.elided())
                << "no elision support on Blue Gene/Q";
        }
    });

    EXPECT_EQ(counter, std::uint64_t(sections));
    EXPECT_EQ(runtime.stats().htmCommits, 0u);
    EXPECT_EQ(runtime.stats().irrevocableCommits,
              std::uint64_t(sections));
    EXPECT_FALSE(mutex.is_locked());
}

TEST(TmsyncMutex, TatasAndGlobalLockModesNeverSpeculate)
{
    for (const SyncMode mode :
         {SyncMode::tatas, SyncMode::globalLock}) {
        Runtime runtime(quietConfig(MachineConfig::intelCore()), 1);
        atomic_mutex mutex;
        std::uint64_t counter = 0;
        constexpr int sections = 6;

        sim::runThreads(1, 1, [&](sim::ThreadContext& ctx) {
            for (int i = 0; i < sections; ++i) {
                transactional_lock_guard guard(
                    runtime, ctx, mutex, kTestSite, mode,
                    [&](Tx& tx) {
                        tx.store(&counter, tx.load(&counter) + 1);
                    });
                EXPECT_FALSE(guard.elided());
            }
        });

        EXPECT_EQ(counter, std::uint64_t(sections))
            << syncModeName(mode);
        EXPECT_EQ(runtime.stats().htmCommits, 0u)
            << syncModeName(mode);
        EXPECT_FALSE(mutex.is_locked());
    }
}

TEST(TmsyncMutex, ContendedCountingConservesAcrossAllModes)
{
    constexpr unsigned threads = 4;
    constexpr int sectionsPerThread = 12;
    for (const MachineConfig& machine : MachineConfig::all()) {
        for (const SyncMode mode :
             {SyncMode::elided, SyncMode::tatas,
              SyncMode::globalLock}) {
            Runtime runtime(quietConfig(machine), threads);
            atomic_mutex mutex;
            std::uint64_t counter = 0;

            sim::runThreads(
                threads, 7, [&](sim::ThreadContext& ctx) {
                    for (int i = 0; i < sectionsPerThread; ++i) {
                        transactional_lock_guard guard(
                            runtime, ctx, mutex, kTestSite, mode,
                            [&](Tx& tx) {
                                tx.work(15);
                                tx.store(&counter,
                                         tx.load(&counter) + 1);
                            });
                        (void)guard;
                    }
                });

            EXPECT_EQ(counter,
                      std::uint64_t(threads * sectionsPerThread))
                << machine.name << " / " << syncModeName(mode);
            EXPECT_FALSE(mutex.is_locked());
        }
    }
}

TEST(TmsyncGuard, NestedGuardedSectionsAreRejected)
{
    // Nesting is documented-and-rejected (guard.hh): the inner guard
    // must throw std::logic_error at entry. Pinned via the fallback
    // (tatas) outer path, where the outer section is irrevocable and
    // a foreign exception propagates cleanly.
    Runtime runtime(quietConfig(MachineConfig::intelCore()), 1);
    atomic_mutex outer;
    atomic_mutex inner;

    sim::runThreads(1, 1, [&](sim::ThreadContext& ctx) {
        EXPECT_THROW(
            {
                transactional_lock_guard guard(
                    runtime, ctx, outer, kTestSite, SyncMode::tatas,
                    [&](Tx&) {
                        transactional_lock_guard nested(
                            runtime, ctx, inner, kTestSite,
                            SyncMode::tatas, [](Tx&) {});
                    });
            },
            std::logic_error);
    });
}

// ------------------------------------------------------------------
// atomic_shared_mutex + transactional_shared_lock_guard
// ------------------------------------------------------------------

TEST(TmsyncSharedMutex, ReadersAndWritersConserve)
{
    constexpr unsigned threads = 4;
    constexpr int opsPerThread = 16;
    for (const SyncMode mode :
         {SyncMode::elided, SyncMode::tatas, SyncMode::globalLock}) {
        Runtime runtime(quietConfig(MachineConfig::intelCore()),
                        threads);
        atomic_shared_mutex rw;
        std::uint64_t generation = 0;
        std::uint64_t folds = 0;

        sim::runThreads(threads, 9, [&](sim::ThreadContext& ctx) {
            for (int i = 0; i < opsPerThread; ++i) {
                // Threads 0..2 read, thread 3 writes.
                if (ctx.id() != 3) {
                    transactional_shared_lock_guard guard(
                        runtime, ctx, rw, kTestSite, mode,
                        [&](Tx& tx) { tx.load(&generation); });
                    (void)guard;
                    ++folds;
                } else {
                    transactional_lock_guard guard(
                        runtime, ctx, rw, kTestSite, mode,
                        [&](Tx& tx) {
                            tx.work(10);
                            tx.store(&generation,
                                     tx.load(&generation) + 1);
                        });
                    (void)guard;
                }
            }
        });

        EXPECT_EQ(generation, std::uint64_t(opsPerThread))
            << syncModeName(mode);
        EXPECT_EQ(folds, std::uint64_t(3 * opsPerThread));
        EXPECT_FALSE(rw.is_locked()) << syncModeName(mode);
        EXPECT_EQ(rw.readers(), 0u) << syncModeName(mode);
    }
}

TEST(TmsyncSharedMutex, ElidedReadersNeverWriteTheLockWord)
{
    // The whole point of elided shared locking: an uncontended quiet
    // run keeps the lock word at zero throughout, so every reader
    // commits speculatively and the word never changes.
    Runtime runtime(quietConfig(MachineConfig::intelCore()), 2);
    atomic_shared_mutex rw;
    std::uint64_t cell = 42;
    constexpr int reads = 20;

    sim::runThreads(2, 3, [&](sim::ThreadContext& ctx) {
        for (int i = 0; i < reads; ++i) {
            transactional_shared_lock_guard guard(
                runtime, ctx, rw, kTestSite, SyncMode::elided,
                [&](Tx& tx) { tx.load(&cell); });
            EXPECT_TRUE(guard.elided());
        }
    });

    EXPECT_EQ(runtime.stats().htmCommits, std::uint64_t(2 * reads));
    EXPECT_EQ(runtime.stats().irrevocableCommits, 0u);
    EXPECT_EQ(*rw.word(), 0u)
        << "elided readers must leave the lock word untouched";
}

// ------------------------------------------------------------------
// atomic_condition_variable
// ------------------------------------------------------------------

TEST(TmsyncCondvar, WaitReleasesMutexAndWakesOnNotify)
{
    Runtime runtime(quietConfig(MachineConfig::intelCore()), 2);
    atomic_mutex mutex;
    atomic_condition_variable cv;
    std::uint64_t flag = 0;
    bool woke = false;

    sim::runThreads(2, 5, [&](sim::ThreadContext& ctx) {
        if (ctx.id() == 0) {
            transactional_lock_guard guard(
                runtime, ctx, mutex, kTestSite, SyncMode::tatas,
                [&](Tx& tx) {
                    while (tx.load(&flag) == 0)
                        cv.wait(runtime, ctx, tx, mutex);
                    woke = true;
                });
            (void)guard;
        } else {
            // Arrive well after the waiter has blocked.
            ctx.advance(2000);
            ctx.sync();
            transactional_lock_guard guard(
                runtime, ctx, mutex, kTestSite, SyncMode::tatas,
                [&](Tx& tx) {
                    tx.store(&flag, std::uint64_t(1));
                    cv.notify_one(runtime, ctx, tx);
                });
            (void)guard;
        }
    });

    EXPECT_TRUE(woke);
    EXPECT_EQ(flag, 1u);
    EXPECT_FALSE(mutex.is_locked());
    EXPECT_EQ(cv.pending(), 0u) << "no stranded wakeups";
}

TEST(TmsyncCondvar, TicketsWakeInFifoOrder)
{
    Runtime runtime(quietConfig(MachineConfig::intelCore()), 3);
    atomic_mutex mutex;
    atomic_condition_variable cv;
    std::vector<unsigned> wake_order;
    std::vector<std::uint64_t> tickets(2, 0);

    sim::runThreads(3, 5, [&](sim::ThreadContext& ctx) {
        if (ctx.id() < 2) {
            // Stagger the two waiters so their tickets are ordered.
            ctx.advance(100 * ctx.id());
            ctx.sync();
            transactional_lock_guard guard(
                runtime, ctx, mutex, kTestSite, SyncMode::tatas,
                [&](Tx& tx) {
                    tickets[ctx.id()] =
                        cv.wait(runtime, ctx, tx, mutex);
                    wake_order.push_back(unsigned(ctx.id()));
                });
            (void)guard;
        } else {
            for (int wake = 0; wake < 2; ++wake) {
                ctx.advance(5000);
                ctx.sync();
                transactional_lock_guard guard(
                    runtime, ctx, mutex, kTestSite, SyncMode::tatas,
                    [&](Tx& tx) {
                        cv.notify_one(runtime, ctx, tx);
                    });
                (void)guard;
            }
        }
    });

    ASSERT_EQ(wake_order.size(), 2u);
    EXPECT_LT(tickets[0], tickets[1])
        << "first blocked waiter holds the lower ticket";
    EXPECT_EQ(wake_order[0], 0u) << "FIFO wakeup";
    EXPECT_EQ(wake_order[1], 1u);
    EXPECT_EQ(cv.pending(), 0u);
}

TEST(TmsyncCondvar, NotifyBeforeWaitIsNotLost)
{
    // Notify-with-memory semantics: a notify with no waiter pre-grants
    // the next ticket, so a later wait consumes it immediately.
    Runtime runtime(quietConfig(MachineConfig::intelCore()), 1);
    atomic_mutex mutex;
    atomic_condition_variable cv;
    std::uint64_t ticket = ~std::uint64_t(0);

    sim::runThreads(1, 1, [&](sim::ThreadContext& ctx) {
        transactional_lock_guard notify_guard(
            runtime, ctx, mutex, kTestSite, SyncMode::tatas,
            [&](Tx& tx) { cv.notify_one(runtime, ctx, tx); });
        (void)notify_guard;
        transactional_lock_guard wait_guard(
            runtime, ctx, mutex, kTestSite, SyncMode::tatas,
            [&](Tx& tx) {
                ticket = cv.wait(runtime, ctx, tx, mutex);
            });
        (void)wait_guard;
    });

    EXPECT_EQ(ticket, 0u);
    EXPECT_EQ(cv.pending(), 0u);
}

TEST(TmsyncCondvar, WaitInsideElidedAttemptForcesFallback)
{
    // wait() cannot run speculatively (it must really release the
    // mutex): inside an elided attempt it aborts the speculation, and
    // the section retries on the fallback path.
    Runtime runtime(quietConfig(MachineConfig::intelCore()), 1);
    atomic_mutex mutex;
    atomic_condition_variable cv;
    std::uint64_t ticket = ~std::uint64_t(0);

    sim::runThreads(1, 1, [&](sim::ThreadContext& ctx) {
        // Pre-grant so the fallback wait returns immediately.
        transactional_lock_guard notify_guard(
            runtime, ctx, mutex, kTestSite, SyncMode::tatas,
            [&](Tx& tx) { cv.notify_one(runtime, ctx, tx); });
        (void)notify_guard;
        transactional_lock_guard guard(
            runtime, ctx, mutex, kTestSite, SyncMode::elided,
            [&](Tx& tx) {
                ticket = cv.wait(runtime, ctx, tx, mutex);
            });
        EXPECT_FALSE(guard.elided());
    });

    EXPECT_EQ(ticket, 0u);
    EXPECT_GE(runtime.stats().totalAborts(), 1u)
        << "every speculative attempt at wait() must abort";
    // The notify guard and the wait guard each commit one fallback.
    EXPECT_EQ(runtime.stats().irrevocableCommits, 2u);
}

TEST(TmsyncCondvar, WaitWithoutHeldMutexThrows)
{
    // Catches global-lock-guard misuse (and plain API misuse): wait()
    // requires the associated mutex to actually be held.
    Runtime runtime(quietConfig(MachineConfig::intelCore()), 1);
    atomic_mutex mutex;
    atomic_condition_variable cv;

    sim::runThreads(1, 1, [&](sim::ThreadContext& ctx) {
        EXPECT_THROW(
            {
                runtime.runNonSpeculative(ctx, kTestSite, [&](Tx& tx) {
                    cv.wait(runtime, ctx, tx, mutex);
                });
            },
            std::logic_error);
    });
}

// ------------------------------------------------------------------
// Scenarios under the liveness oracle
// ------------------------------------------------------------------

TEST(TmsyncScenarios, AllCellsRunUnderLivenessOracle)
{
    for (const MachineConfig& machine : MachineConfig::all()) {
        for (unsigned s = 0; s < numScenarios; ++s) {
            const Scenario scenario = allScenarios()[s];
            for (const SyncMode mode :
                 {SyncMode::elided, SyncMode::tatas,
                  SyncMode::globalLock}) {
                if (!scenarioSupportsMode(scenario, mode))
                    continue;
                SCOPED_TRACE(std::string(machine.name) + " / " +
                             scenarioName(scenario) + " / " +
                             syncModeName(mode));
                ScenarioConfig config;
                config.runtime = RuntimeConfig(machine);
                config.scenario = scenario;
                config.mode = mode;
                config.threads = 4;
                config.opsPerThread = 30;
                config.seed = 2;
                check::LivenessChecker liveness(
                    config.threads, check::LivenessOptions{});
                config.observer = &liveness;

                ScenarioResult result;
                ASSERT_NO_THROW(result = runScenario(config));
                EXPECT_EQ(result.sections,
                          std::uint64_t(config.threads *
                                        config.opsPerThread));
                EXPECT_GT(result.horizonCycles, 0u);
            }
        }
    }
}

TEST(TmsyncScenarios, BlueGeneQElidedArmNeverSpeculates)
{
    ScenarioConfig config;
    config.runtime = RuntimeConfig(MachineConfig::blueGeneQ());
    config.scenario = Scenario::readerHeavy;
    config.mode = SyncMode::elided;
    config.threads = 4;
    config.opsPerThread = 30;

    const ScenarioResult result = runScenario(config);
    EXPECT_EQ(result.elidedSections, 0u);
    EXPECT_EQ(result.sections, std::uint64_t(4 * 30));
    EXPECT_EQ(result.stats.htmCommits, 0u);
}

TEST(TmsyncScenarios, ReaderHeavyElisionBeatsTatasOnElisionMachines)
{
    // The headline crossover (EXPERIMENTS.md): on every machine with
    // lock elision, the reader-heavy cell must favor elided readers
    // (who never write the lock word) over TATAS readers (two CASes
    // per section).
    for (const MachineConfig& machine : MachineConfig::all()) {
        if (!machine.supportsElision())
            continue;
        double thru[2] = {0.0, 0.0};
        int at = 0;
        for (const SyncMode mode :
             {SyncMode::elided, SyncMode::tatas}) {
            ScenarioConfig config;
            config.runtime = RuntimeConfig(machine);
            config.scenario = Scenario::readerHeavy;
            config.mode = mode;
            config.threads = 8;
            config.opsPerThread = 200;
            thru[at++] = runScenario(config).throughputPerKcycle();
        }
        EXPECT_GT(thru[0], thru[1]) << machine.name;
    }
}

// ------------------------------------------------------------------
// Zero perturbation (forked A/B)
// ------------------------------------------------------------------

/// Server-run outcome; trivially copyable so the child ships it over
/// a pipe in one write.
struct ServerMetrics
{
    std::uint64_t committedOps = 0;
    std::uint64_t horizonCycles = 0;
    std::uint64_t p50 = 0;
    std::uint64_t p999 = 0;
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t irrevocable = 0;
    bool invariantsOk = false;

    bool operator==(const ServerMetrics& other) const = default;
};

server::ServerConfig
abServerConfig()
{
    server::ServerConfig config;
    config.runtime =
        RuntimeConfig(MachineConfig::intelCore());
    config.clients = 16;
    config.traffic.numKeys = 256;
    config.traffic.numAccounts = 32;
    config.traffic.zipfTheta = 0.9;
    config.traffic.opsPerClient = 24;
    config.traffic.meanInterarrivalCycles = 2048;
    config.seed = 3;
    return config;
}

/// Run the A/B server cell in a forked child. When @p construct_tmsync
/// is set, the child constructs (and pokes, host-side) every tmsync
/// primitive before the run — on the stack, exactly how a user linking
/// the library would — and the metrics must still be bit-identical.
bool
runServerForked(bool construct_tmsync, ServerMetrics& metrics)
{
    return bench::runForked(&metrics, 1, [&] {
        if (construct_tmsync) {
            atomic_mutex mutex;
            atomic_shared_mutex rw;
            atomic_condition_variable cv;
            (void)mutex.is_locked();
            (void)rw.is_locked_or_waiting();
            (void)cv.pending();
        }
        const server::ServerResult result =
            server::runServer(abServerConfig());
        metrics.committedOps = result.committedOps;
        metrics.horizonCycles = result.horizonCycles;
        metrics.p50 = result.latency.percentile(0.50);
        metrics.p999 = result.latency.percentile(0.999);
        metrics.commits = result.stats.totalCommits();
        metrics.aborts = result.stats.totalAborts();
        metrics.irrevocable = result.stats.irrevocableCommits;
        metrics.invariantsOk = result.invariantsOk;
    });
}

TEST(TmsyncPerturbation, ConstructingPrimitivesLeavesServerBitIdentical)
{
    // Both children fork from the same parent image; the only
    // difference is that child B constructs the tmsync primitives
    // first. With indexLock == none the server must not read a single
    // tmsync word, so the runs must match to the cycle.
    ServerMetrics plain;
    ServerMetrics with_tmsync;

    ASSERT_TRUE(runServerForked(false, plain));
    ASSERT_TRUE(runServerForked(true, with_tmsync));

    EXPECT_EQ(plain, with_tmsync);
    // Non-vacuity: the cell must exercise real contention.
    EXPECT_GT(plain.aborts, 0u);
    EXPECT_TRUE(plain.invariantsOk);
}

TEST(TmsyncServer, IndexLockGuardsScansWithoutBreakingInvariants)
{
    for (const server::IndexLockMode mode :
         {server::IndexLockMode::elided,
          server::IndexLockMode::tatas}) {
        server::ServerConfig config = abServerConfig();
        config.indexLock = mode;
        const server::ServerResult result =
            server::runServer(config);
        EXPECT_TRUE(result.invariantsOk)
            << server::indexLockModeName(mode);
        EXPECT_GT(result.indexGuardSections, 0u)
            << server::indexLockModeName(mode);
        EXPECT_EQ(result.committedOps,
                  std::uint64_t(config.clients *
                                config.traffic.opsPerClient));
        if (mode == server::IndexLockMode::tatas) {
            EXPECT_EQ(result.indexGuardElided, 0u);
        }
    }
}

} // namespace
