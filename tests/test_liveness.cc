/**
 * @file
 * Liveness-oracle tests (src/check/liveness.hh).
 *
 * The checker is unit-tested against synthetic event streams whose
 * violations are known by construction, then exercised end-to-end:
 * green under real hazard injection with the hardened policy, and red
 * on the seeded stuck-retry livelock (the oracle's own self-test
 * fault). The event-ring overflow contract of the differential oracle
 * is proven here too: a ring too small for the run must fail loudly,
 * not pass on a truncated trace.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "check/liveness.hh"
#include "check/oracle.hh"
#include "check/trace.hh"
#include "check/workload.hh"
#include "htm/machine.hh"

namespace
{

using namespace htmsim;
using namespace htmsim::check;

htm::TxEvent
event(htm::TxEventKind kind, std::uint16_t tid, sim::Cycles cycles,
      sim::Cycles section_start)
{
    htm::TxEvent result{};
    result.kind = kind;
    result.cause = kind == htm::TxEventKind::abort
                       ? htm::AbortCause::dataConflict
                       : htm::AbortCause::none;
    result.tid = tid;
    result.cycles = cycles;
    result.sectionStart = section_start;
    return result;
}

TEST(LivenessChecker, GreenStreamPassesAndCountsCommits)
{
    LivenessChecker checker(2, {1000, 8});
    checker.onEvent(event(htm::TxEventKind::begin, 0, 10, 10));
    checker.onEvent(event(htm::TxEventKind::begin, 1, 15, 15));
    checker.onEvent(event(htm::TxEventKind::abort, 0, 200, 10));
    checker.onEvent(event(htm::TxEventKind::begin, 0, 300, 300));
    checker.onEvent(event(htm::TxEventKind::commit, 0, 600, 300));
    checker.onEvent(event(htm::TxEventKind::commit, 1, 700, 15));
    EXPECT_EQ(checker.globalCommits(), 2u);
}

TEST(LivenessChecker, CompletionWindowViolationFires)
{
    LivenessChecker checker(2, {1000, 1000});
    // t0 opens a section; the retried attempts keep it open (its
    // clock is the *first* begin's sectionStart).
    checker.onEvent(event(htm::TxEventKind::begin, 0, 0, 0));
    checker.onEvent(event(htm::TxEventKind::abort, 0, 400, 0));
    checker.onEvent(event(htm::TxEventKind::begin, 0, 500, 500));
    // A peer's event past the window must trip the bound even though
    // t0 itself is silent at that point.
    checker.onEvent(event(htm::TxEventKind::begin, 1, 900, 900));
    EXPECT_THROW(
        checker.onEvent(event(htm::TxEventKind::commit, 1, 1200, 900)),
        LivenessViolation);
}

TEST(LivenessChecker, SectionCloseRearmsTheWindow)
{
    LivenessChecker checker(1, {1000, 1000});
    for (sim::Cycles start = 0; start < 10'000; start += 900) {
        checker.onEvent(
            event(htm::TxEventKind::begin, 0, start, start));
        checker.onEvent(
            event(htm::TxEventKind::commit, 0, start + 800, start));
    }
    EXPECT_EQ(checker.globalCommits(), 12u);
}

TEST(LivenessChecker, StarvationBoundFires)
{
    LivenessChecker checker(2, {1'000'000'000, 3});
    checker.onEvent(event(htm::TxEventKind::begin, 0, 0, 0));
    // t1 commits three times while t0's section stays open: at the
    // bound, still legal.
    sim::Cycles now = 10;
    for (int i = 0; i < 3; ++i) {
        checker.onEvent(event(htm::TxEventKind::begin, 1, now, now));
        checker.onEvent(
            event(htm::TxEventKind::commit, 1, now + 5, now));
        now += 10;
    }
    // The fourth peer commit crosses it.
    checker.onEvent(event(htm::TxEventKind::begin, 1, now, now));
    EXPECT_THROW(checker.onEvent(event(htm::TxEventKind::commit, 1,
                                       now + 5, now)),
                 LivenessViolation);
}

TEST(LivenessChecker, ForwardsEveryEventBeforeChecking)
{
    EventRing ring(16);
    LivenessChecker checker(1, {100, 100}, &ring);
    checker.onEvent(event(htm::TxEventKind::begin, 0, 0, 0));
    // The violating event itself must reach the ring before the
    // throw, so the printed trace tail ends at the violation.
    EXPECT_THROW(
        checker.onEvent(event(htm::TxEventKind::abort, 0, 500, 0)),
        LivenessViolation);
    EXPECT_EQ(ring.size(), 2u);
    EXPECT_EQ(ring.events().back().kind, htm::TxEventKind::abort);
}

// ---- end to end -------------------------------------------------------

TEST(RunLiveness, GreenUnderHazardsWithHardenedPolicy)
{
    const WorkloadFactory* workload = findWorkload("hashtable");
    ASSERT_NE(workload, nullptr);
    CheckOptions options;
    options.hazard.enabled = true;
    options.hazard.spuriousAbortProb = 1e-3;
    options.policyKind = htm::RetryPolicyKind::hardened;

    const RunOutcome outcome = runLiveness(
        *workload, htm::MachineConfig::intelCore(), 3, options);
    EXPECT_TRUE(outcome.ok) << outcome.reason;
    EXPECT_EQ(outcome.commits,
              std::uint64_t(options.threads) * options.opsPerThread);
}

TEST(RunLiveness, CatchesTheSeededStuckRetryLivelock)
{
    const WorkloadFactory* workload = findWorkload("hashtable");
    ASSERT_NE(workload, nullptr);
    CheckOptions options;
    // stuck-retry makes the driver ignore the policy's stop decision;
    // pinning t0 gives it an endless spurious-abort stream to be
    // stuck on. Together: a deterministic livelock.
    options.fault = htm::CheckFault::stuckRetry;
    options.hazard.enabled = true;
    options.hazard.pinnedVictim = 0;

    const RunOutcome outcome = runLiveness(
        *workload, htm::MachineConfig::intelCore(), 1, options);
    ASSERT_FALSE(outcome.ok);
    EXPECT_NE(outcome.reason.find("liveness violated"),
              std::string::npos)
        << outcome.reason;
    EXPECT_FALSE(outcome.traceTail.empty());
}

TEST(RunLiveness, RunsTheSelectedBackendAndHybridSettings)
{
    const WorkloadFactory* workload = findWorkload("hashtable");
    ASSERT_NE(workload, nullptr);
    CheckOptions options;
    // The livelock configuration above, but on the hybrid backend's
    // software path: an --stm-only hybrid never begins a hardware
    // transaction, so the pinned hardware hazard has nothing to abort
    // and every section commits in software.
    options.fault = htm::CheckFault::stuckRetry;
    options.hazard.enabled = true;
    options.hazard.pinnedVictim = 0;
    options.backend = htm::BackendKind::hybrid;
    options.hybrid.stmOnly = true;

    const RunOutcome outcome = runLiveness(
        *workload, htm::MachineConfig::intelCore(), 1, options);
    EXPECT_TRUE(outcome.ok) << outcome.reason << "\n"
                            << outcome.traceTail;
    EXPECT_EQ(outcome.commits,
              std::uint64_t(options.threads) * options.opsPerThread);
}

TEST(RunDifferential, RingOverflowFailsLoudly)
{
    const WorkloadFactory* workload = findWorkload("hashtable");
    ASSERT_NE(workload, nullptr);
    CheckOptions options;
    // Far too small for threads * ops lifecycle events: the oracle
    // must refuse to judge a truncated trace.
    options.ringCapacity = 8;

    const RunOutcome outcome = runDifferential(
        *workload, htm::MachineConfig::intelCore(), 1, options);
    ASSERT_FALSE(outcome.ok);
    EXPECT_NE(outcome.reason.find("ring overflowed"),
              std::string::npos)
        << outcome.reason;
    EXPECT_NE(outcome.reason.find("--ring-capacity"),
              std::string::npos)
        << outcome.reason;
}

} // namespace
