/**
 * @file
 * Tests for the simcheck subsystem: FuzzScheduler determinism and
 * replay, the event ring and trace invariants, the differential
 * serializability oracle across all four machine presets, and the
 * end-to-end fault-injection self-test (an intentionally broken
 * conflict-detection model must be caught and shrunk to a small
 * replayable schedule).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "check/fuzz_scheduler.hh"
#include "check/oracle.hh"
#include "check/shrink.hh"
#include "check/trace.hh"
#include "check/workload.hh"
#include "htm/machine.hh"

namespace
{

using namespace htmsim;
using namespace htmsim::check;

Schedule
sortedByThread(Schedule schedule)
{
    std::sort(schedule.begin(), schedule.end(),
              [](const PreemptPoint& a, const PreemptPoint& b) {
                  return a.tid != b.tid ? a.tid < b.tid
                                        : a.index < b.index;
              });
    return schedule;
}

// ------------------------------------------------------------------
// FuzzScheduler
// ------------------------------------------------------------------

TEST(FuzzScheduler, DeterministicPerSeed)
{
    FuzzOptions options;
    options.preemptProb = 0.5;
    FuzzScheduler a(42, options);
    FuzzScheduler b(42, options);
    for (int round = 0; round < 100; ++round) {
        for (unsigned tid = 0; tid < 4; ++tid) {
            EXPECT_EQ(a.preemptDelay(tid, 0), b.preemptDelay(tid, 0));
        }
    }
    EXPECT_EQ(a.fired(), b.fired());
    EXPECT_GT(a.fired().size(), 0u) << "prob 0.5 over 400 points";

    FuzzScheduler c(43, options);
    for (int round = 0; round < 100; ++round) {
        for (unsigned tid = 0; tid < 4; ++tid)
            c.preemptDelay(tid, 0);
    }
    EXPECT_NE(a.fired(), c.fired()) << "different seed, different run";
}

TEST(FuzzScheduler, DecisionsAreInterleavingIndependent)
{
    // A thread's k-th scheduling point gets the same decision no
    // matter how its points interleave with other threads' — the
    // property that makes full-schedule replay exact.
    FuzzOptions options;
    options.preemptProb = 0.3;
    FuzzScheduler roundRobin(7, options);
    for (int round = 0; round < 50; ++round) {
        for (unsigned tid = 0; tid < 3; ++tid)
            roundRobin.preemptDelay(tid, 0);
    }
    FuzzScheduler sequential(7, options);
    for (unsigned tid = 0; tid < 3; ++tid) {
        for (int round = 0; round < 50; ++round)
            sequential.preemptDelay(tid, 0);
    }
    EXPECT_EQ(sortedByThread(roundRobin.fired()),
              sortedByThread(sequential.fired()));
}

TEST(FuzzScheduler, DelaysStayInRange)
{
    FuzzOptions options;
    options.preemptProb = 1.0;
    options.minDelay = 10;
    options.maxDelay = 20;
    FuzzScheduler fuzz(5, options);
    for (int i = 0; i < 200; ++i) {
        const sim::Cycles delay = fuzz.preemptDelay(0, 0);
        EXPECT_GE(delay, 10u);
        EXPECT_LE(delay, 20u);
    }
    EXPECT_EQ(fuzz.fired().size(), 200u);
    EXPECT_EQ(fuzz.pointsVisited(), 200u);
}

TEST(FuzzScheduler, ReplayFiresExactlyTheSchedule)
{
    const Schedule schedule = {{0, 2, 100}, {1, 0, 7}, {0, 5, 31}};
    FuzzScheduler replay(schedule);
    std::vector<sim::Cycles> tid0;
    for (std::uint64_t i = 0; i < 8; ++i)
        tid0.push_back(replay.preemptDelay(0, 0));
    EXPECT_EQ(tid0,
              (std::vector<sim::Cycles>{0, 0, 100, 0, 0, 31, 0, 0}));
    EXPECT_EQ(replay.preemptDelay(1, 0), 7u);
    EXPECT_EQ(replay.preemptDelay(1, 0), 0u);
    EXPECT_EQ(replay.fired(), sortedByThread(schedule));
}

TEST(FuzzScheduler, ScheduleFormatRoundTrip)
{
    const Schedule schedule = {{3, 1234567, 4000}, {0, 0, 1}};
    EXPECT_EQ(parseSchedule(formatSchedule(schedule)), schedule);
    EXPECT_TRUE(parseSchedule("").empty());
    EXPECT_EQ(formatSchedule(schedule), "3:1234567:4000,0:0:1");
    EXPECT_THROW(parseSchedule("1:2"), std::invalid_argument);
    EXPECT_THROW(parseSchedule("nonsense"), std::invalid_argument);
    EXPECT_THROW(parseSchedule("1:2:3;4:5:6"), std::invalid_argument);
}

// ------------------------------------------------------------------
// Event ring + trace invariants
// ------------------------------------------------------------------

htm::TxEvent
event(htm::TxEventKind kind, unsigned tid, sim::Cycles cycles,
      htm::AbortCause cause = htm::AbortCause::none)
{
    return {kind, cause, std::uint16_t(tid), htm::unknownTxSite,
            cycles, 0};
}

TEST(EventRing, KeepsEverythingBelowCapacity)
{
    EventRing ring(8);
    for (unsigned i = 0; i < 5; ++i)
        ring.onEvent(event(htm::TxEventKind::begin, 0, i));
    EXPECT_EQ(ring.dropped(), 0u);
    ASSERT_EQ(ring.size(), 5u);
    EXPECT_EQ(ring.events()[0].cycles, 0u);
    EXPECT_EQ(ring.events()[4].cycles, 4u);
}

TEST(EventRing, WrapKeepsMostRecent)
{
    EventRing ring(4);
    for (unsigned i = 0; i < 10; ++i)
        ring.onEvent(event(htm::TxEventKind::begin, 0, i));
    EXPECT_EQ(ring.dropped(), 6u);
    const std::vector<htm::TxEvent> events = ring.events();
    ASSERT_EQ(events.size(), 4u);
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(events[i].cycles, 6u + i) << "oldest-first order";

    ring.clear();
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_EQ(ring.dropped(), 0u);
}

using K = htm::TxEventKind;

TEST(TraceInvariants, AcceptsWellFormedHistories)
{
    const std::vector<htm::TxEvent> events = {
        event(K::begin, 0, 10),
        event(K::begin, 1, 12),
        event(K::abort, 1, 20, htm::AbortCause::dataConflict),
        event(K::commit, 0, 25),
        event(K::lockAcquired, 1, 30),
        event(K::fallbackCommit, 1, 40),
        event(K::lockReleased, 1, 45),
        event(K::begin, 0, 50),
        event(K::commit, 0, 60),
    };
    EXPECT_EQ(checkTraceInvariants(events, 2), "");
}

TEST(TraceInvariants, RejectsBadHistories)
{
    // Every violation names its offending event by index and
    // description; for an attempt or lock left open at the end, the
    // event that opened it.
    const auto expectViolation =
        [](const std::vector<htm::TxEvent>& events, unsigned threads,
           const std::string& what, const std::string& offender) {
            const std::string error =
                checkTraceInvariants(events, threads);
            EXPECT_NE(error.find(what), std::string::npos) << error;
            EXPECT_NE(error.find("(" + offender + ")"),
                      std::string::npos)
                << error;
        };

    // Nested begin.
    expectViolation({event(K::begin, 0, 1), event(K::begin, 0, 2)}, 1,
                    "nested begin", "event #1: t0 begin @2");
    // Commit without a begin.
    expectViolation({event(K::commit, 0, 1)}, 1,
                    "commit without an active attempt",
                    "event #0: t0 commit @1");
    // Abort without a begin.
    expectViolation({event(K::abort, 0, 1, htm::AbortCause::dataConflict)},
                    1, "abort without an active attempt",
                    "event #0: t0 abort data-conflict @1");
    // Transactional commit while the fallback lock is held — the
    // single-lock subscription protocol violation the oracle hunts.
    expectViolation({event(K::begin, 1, 1), event(K::lockAcquired, 0, 2),
                     event(K::commit, 1, 3)},
                    2, "while t0 holds the fallback lock",
                    "event #2: t1 commit @3");
    // Double acquisition.
    expectViolation({event(K::lockAcquired, 0, 1),
                     event(K::lockAcquired, 1, 2)},
                    2, "lock acquired while t0 holds it",
                    "event #1: t1 lock-acquired @2");
    // Acquisition with a live attempt on the same thread.
    expectViolation({event(K::begin, 0, 1),
                     event(K::lockAcquired, 0, 2)},
                    1, "live transactional attempt",
                    "event #1: t0 lock-acquired @2");
    // Release by a non-holder.
    expectViolation({event(K::lockAcquired, 0, 1),
                     event(K::lockReleased, 1, 2)},
                    2, "released by a non-holder",
                    "event #1: t1 lock-released @2");
    // Fallback commit without the lock.
    expectViolation({event(K::fallbackCommit, 0, 1)}, 1,
                    "fallback commit without holding the lock",
                    "event #0: t0 fallback-commit @1");
    // Non-speculative commit inside a live attempt.
    expectViolation({event(K::begin, 0, 1),
                     event(K::nonSpecCommit, 0, 2)},
                    1, "non-speculative commit",
                    "event #1: t0 nonspec-commit @2");
    // Attempt left open at end of run: names the begin that opened it.
    expectViolation({event(K::begin, 0, 1), event(K::commit, 0, 2),
                     event(K::begin, 0, 3)},
                    1, "t0 left an attempt open at end of run",
                    "event #2: t0 begin @3");
    // Lock left held at end of run: names the acquisition.
    expectViolation({event(K::lockAcquired, 0, 1)}, 1,
                    "t0 left the fallback lock held at end of run",
                    "event #0: t0 lock-acquired @1");
    // Per-thread time running backwards.
    expectViolation({event(K::begin, 0, 10), event(K::commit, 0, 5)}, 1,
                    "virtual time went backwards",
                    "event #1: t0 commit @5");
    // Thread id out of range.
    expectViolation({event(K::begin, 3, 1)}, 2, "tid 3 >= 2",
                    "event #0: t3 begin @1");
}

// ------------------------------------------------------------------
// Differential oracle
// ------------------------------------------------------------------

CheckOptions
quickOptions()
{
    CheckOptions options;
    options.threads = 4;
    options.opsPerThread = 16;
    return options;
}

TEST(Oracle, CleanSweepOverAllMachinesAndWorkloads)
{
    const CheckOptions options = quickOptions();
    for (const htm::MachineConfig& machine :
         htm::MachineConfig::all()) {
        for (const WorkloadFactory& workload : allWorkloads()) {
            for (std::uint64_t seed = 1; seed <= 3; ++seed) {
                const RunOutcome outcome = runDifferential(
                    workload, machine, seed, options);
                EXPECT_TRUE(outcome.ok)
                    << workload.name << " on " << machine.name
                    << " seed " << seed << ": " << outcome.reason;
                EXPECT_EQ(outcome.commits,
                          std::uint64_t(options.threads) *
                              options.opsPerThread);
            }
        }
    }
}

TEST(Oracle, RunsAreReproducible)
{
    const WorkloadFactory* workload = findWorkload("hashtable");
    ASSERT_NE(workload, nullptr);
    const htm::MachineConfig machine = htm::MachineConfig::intelCore();
    const RunOutcome first =
        runDifferential(*workload, machine, 9, quickOptions());
    const RunOutcome second =
        runDifferential(*workload, machine, 9, quickOptions());
    EXPECT_TRUE(first.ok);
    // Per-thread fuzz streams are interleaving-independent, and every
    // simulated address lies in the run's region, so back-to-back runs
    // fire the same *set* of points.
    EXPECT_EQ(sortedByThread(first.fired), sortedByThread(second.fired));
    EXPECT_EQ(first.commits, second.commits);
    EXPECT_GT(first.fired.size(), 0u);
}

TEST(Oracle, ReplayOfFiredScheduleIsExact)
{
    const WorkloadFactory* workload = findWorkload("rbtree");
    ASSERT_NE(workload, nullptr);
    const htm::MachineConfig machine = htm::MachineConfig::blueGeneQ();
    const RunOutcome fuzzed =
        runDifferential(*workload, machine, 5, quickOptions());
    ASSERT_TRUE(fuzzed.ok) << fuzzed.reason;

    const RunOutcome replayed = runDifferential(
        *workload, machine, 5, quickOptions(), &fuzzed.fired);
    EXPECT_TRUE(replayed.ok) << replayed.reason;
    EXPECT_EQ(sortedByThread(replayed.fired),
              sortedByThread(fuzzed.fired))
        << "full-schedule replay must fire the same points";
    EXPECT_EQ(replayed.commits, fuzzed.commits);
}

TEST(Oracle, TraceTailIsRenderedOnlyOnFailure)
{
    const WorkloadFactory* workload = findWorkload("hashtable");
    ASSERT_NE(workload, nullptr);
    const htm::MachineConfig machine = htm::MachineConfig::blueGeneQ();

    const RunOutcome passing = runDifferential(*workload, machine, 1);
    ASSERT_TRUE(passing.ok) << passing.reason;
    EXPECT_TRUE(passing.traceTail.empty()) << passing.traceTail;

    // A lost reader conflict corrupts this run (check_runner
    // --inject-fault miss-reader-conflict --workloads hashtable
    // --machines bgq --first-seed 1 --seeds 1).
    CheckOptions faulty;
    faulty.fault = htm::CheckFault::missReaderConflict;
    const RunOutcome failing =
        runDifferential(*workload, machine, 1, faulty);
    ASSERT_FALSE(failing.ok);
    EXPECT_NE(failing.traceTail.find(" commit @"), std::string::npos)
        << failing.traceTail;
}

TEST(Oracle, UnknownWorkloadLookupFails)
{
    EXPECT_EQ(findWorkload("no-such-workload"), nullptr);
    EXPECT_GE(allWorkloads().size(), 8u);
}

// ------------------------------------------------------------------
// Fault-injection self-test: a broken conflict-detection model must
// be caught by the oracle and shrink to a small replayable schedule.
// ------------------------------------------------------------------

TEST(FaultInjection, MissedReaderConflictIsCaughtAndShrunk)
{
    CheckOptions options = quickOptions();
    options.fault = htm::CheckFault::missReaderConflict;

    // Sweep until the oracle trips (a handful of runs at most: lost
    // reader conflicts corrupt these workloads almost immediately).
    const WorkloadFactory* failingWorkload = nullptr;
    const htm::MachineConfig* failingMachine = nullptr;
    std::uint64_t failingSeed = 0;
    RunOutcome failure;
    for (std::uint64_t seed = 1; seed <= 5 && !failingWorkload;
         ++seed) {
        for (const htm::MachineConfig& machine :
             htm::MachineConfig::all()) {
            for (const WorkloadFactory& workload : allWorkloads()) {
                const RunOutcome outcome = runDifferential(
                    workload, machine, seed, options);
                if (!outcome.ok) {
                    failingWorkload = &workload;
                    failingMachine = &machine;
                    failingSeed = seed;
                    failure = outcome;
                    break;
                }
            }
            if (failingWorkload != nullptr)
                break;
        }
    }
    ASSERT_NE(failingWorkload, nullptr)
        << "oracle failed to catch the injected bug";

    // Shrink to a locally minimal schedule.
    const auto refails = [&](const Schedule& schedule) {
        return !runDifferential(*failingWorkload, *failingMachine,
                                failingSeed, options, &schedule)
                    .ok;
    };
    const ShrinkResult shrunk = shrinkSchedule(refails, failure.fired);
    EXPECT_LE(shrunk.schedule.size(), 10u)
        << "must shrink to a small replayable schedule, got "
        << formatSchedule(shrunk.schedule);

    // The artifact replays: with the fault it still fails...
    const RunOutcome replayed =
        runDifferential(*failingWorkload, *failingMachine,
                        failingSeed, options, &shrunk.schedule);
    EXPECT_FALSE(replayed.ok);
    // ... and the same schedule on the sound model passes, so the
    // failure is the fault's, not the oracle's.
    CheckOptions sound = options;
    sound.fault = htm::CheckFault::none;
    const RunOutcome onSound =
        runDifferential(*failingWorkload, *failingMachine,
                        failingSeed, sound, &shrunk.schedule);
    EXPECT_TRUE(onSound.ok) << onSound.reason;
}

// ------------------------------------------------------------------
// Shrinker unit tests (pure, no simulator)
// ------------------------------------------------------------------

TEST(Shrink, FindsMinimalSubset)
{
    // Failure iff the schedule contains both marker points.
    const PreemptPoint needle1{1, 5, 100};
    const PreemptPoint needle2{2, 9, 200};
    Schedule haystack;
    for (std::uint64_t i = 0; i < 30; ++i)
        haystack.push_back({0, i, 50});
    haystack.insert(haystack.begin() + 7, needle1);
    haystack.insert(haystack.begin() + 20, needle2);

    unsigned calls = 0;
    const auto fails = [&](const Schedule& schedule) {
        ++calls;
        const auto has = [&](const PreemptPoint& p) {
            return std::find(schedule.begin(), schedule.end(), p) !=
                   schedule.end();
        };
        return has(needle1) && has(needle2);
    };
    const ShrinkResult result = shrinkSchedule(fails, haystack);
    ASSERT_EQ(result.schedule.size(), 2u);
    EXPECT_EQ(result.schedule[0], needle1);
    EXPECT_EQ(result.schedule[1], needle2);
    EXPECT_EQ(result.evaluations, calls);
}

TEST(Shrink, EmptyScheduleWhenFailureNeedsNoPreemption)
{
    const auto alwaysFails = [](const Schedule&) { return true; };
    Schedule schedule = {{0, 1, 10}, {1, 2, 20}};
    const ShrinkResult result =
        shrinkSchedule(alwaysFails, schedule);
    EXPECT_TRUE(result.schedule.empty());
    EXPECT_EQ(result.evaluations, 1u);
}

TEST(Shrink, RespectsEvaluationBudget)
{
    Schedule schedule;
    for (std::uint64_t i = 0; i < 64; ++i)
        schedule.push_back({0, i, 1});
    unsigned calls = 0;
    // Fails only with the full set: nothing can be removed.
    const auto fails = [&](const Schedule& s) {
        ++calls;
        return s.size() == 64;
    };
    const ShrinkResult result = shrinkSchedule(fails, schedule, 10);
    EXPECT_EQ(result.schedule.size(), 64u);
    EXPECT_LE(result.evaluations, 10u);
    EXPECT_EQ(calls, result.evaluations);
}

} // namespace
