/**
 * @file
 * Unit tests for the retry-policy layer in isolation: scripted abort
 * streams drive the policies directly — no Runtime, no Scheduler — and
 * the tests assert the exact decision sequences of the paper's
 * Figure 1 mechanism and Blue Gene/Q's system-software mechanism.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "htm/machine.hh"
#include "htm/retry_policy.hh"
#include "htm/runtime.hh"

namespace
{

using namespace htmsim::htm;

/// One scripted abort and the decision Figure 1 must emit for it.
struct Step
{
    AbortCause cause;
    bool lockHeld;
    bool expectRetry;
};

struct Script
{
    std::string name;
    RetryCounts counts;
    std::vector<Step> steps;
};

void
runScript(RetryPolicy& policy, const Script& script)
{
    policy.beginSection();
    for (std::size_t i = 0; i < script.steps.size(); ++i) {
        const Step& step = script.steps[i];
        EXPECT_EQ(policy.onAbort(step.cause, step.lockHeld),
                  step.expectRetry)
            << script.name << ", abort " << i;
    }
}

TEST(Fig1ThreeCounterPolicy, EmitsExactFigure1DecisionSequences)
{
    const AbortCause data = AbortCause::dataConflict;
    const AbortCause lock = AbortCause::lockConflict;
    const AbortCause capacity = AbortCause::capacityOverflow;
    const AbortCause way = AbortCause::wayConflict;

    const std::vector<Script> scripts = {
        // Figure 1 line 13: the lock counter allows lockRetries
        // attempts in total (the budget counts attempts, not retries).
        {"pure lock-conflict stream",
         {4, 1, 8},
         {{lock, true, true},
          {lock, true, true},
          {lock, true, true},
          {lock, true, false}}},
        // A data conflict observed with the lock held is charged to
        // the lock counter (the driver classifies by inspecting the
        // lock, not the hardware cause).
        {"data conflicts misattributed to the lock",
         {2, 1, 8},
         {{data, true, true}, {data, true, false}}},
        // The default persistent budget of one means the second
        // persistent abort gives up at once.
        {"persistent aborts exhaust a budget of one",
         {4, 1, 8},
         {{capacity, false, false}}},
        {"way conflicts count as persistent",
         {4, 2, 8},
         {{way, false, true}, {capacity, false, false}}},
        {"transient budget of eight",
         {4, 1, 8},
         {{data, false, true},
          {data, false, true},
          {data, false, true},
          {data, false, true},
          {data, false, true},
          {data, false, true},
          {data, false, true},
          {data, false, false}}},
        // The three counters are independent: draining one leaves the
        // others untouched.
        {"counters are independent",
         {2, 2, 2},
         {{lock, true, true},
          {capacity, false, true},
          {data, false, true},
          {lock, false, false}}},
    };

    for (const Script& script : scripts) {
        Fig1ThreeCounterPolicy policy(script.counts);
        runScript(policy, script);
    }
}

TEST(Fig1ThreeCounterPolicy, BeginSectionRestoresAllBudgets)
{
    Fig1ThreeCounterPolicy policy({2, 1, 2});
    EXPECT_TRUE(policy.onAbort(AbortCause::lockConflict, true));
    EXPECT_FALSE(policy.onAbort(AbortCause::lockConflict, true));

    policy.beginSection();
    EXPECT_TRUE(policy.onAbort(AbortCause::lockConflict, true));
    EXPECT_TRUE(policy.onAbort(AbortCause::dataConflict, false));
    EXPECT_FALSE(policy.onAbort(AbortCause::capacityOverflow, false));
}

TEST(BgqAdaptivePolicy, RetriesExactlyMaxRetriesTimes)
{
    BgqAdaptivePolicy policy(10);
    policy.beginSection();
    for (int i = 0; i < 10; ++i) {
        EXPECT_TRUE(policy.onAbort(AbortCause::dataConflict, false))
            << "abort " << i;
    }
    EXPECT_FALSE(policy.onAbort(AbortCause::dataConflict, false));
}

TEST(BgqAdaptivePolicy, AdaptationSuppressesRetriesAfterFallbacks)
{
    BgqAdaptivePolicy policy(10);

    // Three consecutive fallbacks: score 1.0 -> 1.9 -> 2.71, crossing
    // the 2.5 threshold on the third.
    for (int section = 0; section < 3; ++section) {
        policy.beginSection();
        EXPECT_TRUE(policy.onAbort(AbortCause::dataConflict, false))
            << "section " << section
            << " should still retry before adaptation kicks in";
        policy.onFallback();
    }

    // The next section is not allowed a single retry.
    policy.beginSection();
    EXPECT_FALSE(policy.onAbort(AbortCause::dataConflict, false));
    policy.onFallback();

    // Commits decay the score (3.439 -> 3.095 -> 2.786 -> 2.507 ->
    // 2.256); once it drops below the threshold, retries come back.
    for (int commit = 0; commit < 4; ++commit)
        policy.onCommit();
    policy.beginSection();
    EXPECT_TRUE(policy.onAbort(AbortCause::dataConflict, false));
}

TEST(BoundedRetryPolicy, BudgetCountsTotalAttempts)
{
    BoundedRetryPolicy single(1);
    single.beginSection();
    EXPECT_FALSE(single.onAbort(AbortCause::dataConflict, false));

    BoundedRetryPolicy three(3);
    three.beginSection();
    EXPECT_TRUE(three.onAbort(AbortCause::dataConflict, false));
    EXPECT_TRUE(three.onAbort(AbortCause::capacityOverflow, true));
    EXPECT_FALSE(three.onAbort(AbortCause::dataConflict, false));
}

TEST(NoRetryPolicy, NeverRetries)
{
    NoRetryPolicy policy;
    policy.beginSection();
    EXPECT_FALSE(policy.onAbort(AbortCause::dataConflict, false));
    EXPECT_FALSE(policy.onAbort(AbortCause::lockConflict, true));
}

TEST(BoundedRetryPolicy, ZeroAndNegativeBudgetsClampToOneAttempt)
{
    // A budget of zero attempts would mean "never even try", which no
    // caller can want from an *attempt* bound; the constructor clamps
    // to one attempt so the first abort gives up without ever having
    // underflowed the counter into a ~2^31 retry loop.
    BoundedRetryPolicy zero(0);
    zero.beginSection();
    EXPECT_FALSE(zero.onAbort(AbortCause::dataConflict, false));
    EXPECT_FALSE(zero.onAbort(AbortCause::dataConflict, false));

    BoundedRetryPolicy negative(-7);
    negative.beginSection();
    EXPECT_FALSE(negative.onAbort(AbortCause::lockConflict, true));
}

TEST(Fig1ThreeCounterPolicy, TerminatesUnderAnInfiniteAbortStream)
{
    // Starvation edge: a transaction that aborts forever (adversarial
    // hazard injection, or a pathological conflict pattern) must
    // reach its first "stop, take the fallback" decision in at most
    // lock+persistent+transient aborts -- the counters are
    // independent, so the worst-case adversary drains all three
    // before any single one runs out. The driver escalates at that
    // first false (Runtime::runSection), so this bound IS the number of
    // hardware attempts an infinite abort stream can burn.
    const RetryCounts counts{4, 1, 8};
    const int bound = counts.lockRetries + counts.persistentRetries +
                      counts.transientRetries;

    const AbortCause causes[] = {
        AbortCause::dataConflict, AbortCause::lockConflict,
        AbortCause::capacityOverflow, AbortCause::explicitAbort,
        AbortCause::wayConflict,
    };
    // Several adversarial orderings, including lock-held
    // misattribution, must all hit the bound.
    for (int variant = 0; variant < 5; ++variant) {
        Fig1ThreeCounterPolicy policy(counts);
        policy.beginSection();
        int aborts = 0;
        while (policy.onAbort(causes[(aborts + variant) % 5],
                              (aborts + variant) % 3 == 0)) {
            ++aborts;
            ASSERT_LE(aborts, bound)
                << "variant " << variant
                << " still retrying past the drain bound";
        }
    }
}

TEST(HardenedRetryPolicy, WatchdogBoundsAttemptsWhateverTheBudgets)
{
    // The guaranteed-progress bound: even with effectively unlimited
    // per-cause budgets, the watchdog forces the fallback after
    // watchdogAttempts aborts of *any* mix.
    HardenedRetryPolicy policy({100, 100, 100});
    policy.beginSection();
    for (int i = 0; i < HardenedRetryPolicy::watchdogAttempts - 1; ++i) {
        EXPECT_TRUE(policy.onAbort(AbortCause::dataConflict, false))
            << "abort " << i;
    }
    EXPECT_FALSE(policy.onAbort(AbortCause::dataConflict, false));
    // Permanently false from here on.
    EXPECT_FALSE(policy.onAbort(AbortCause::dataConflict, false));
}

TEST(HardenedRetryPolicy, WatchdogRearmsPerSection)
{
    HardenedRetryPolicy policy({100, 100, 100});
    for (int section = 0; section < 3; ++section) {
        policy.beginSection();
        int retries = 0;
        while (policy.onAbort(AbortCause::dataConflict, false))
            ++retries;
        EXPECT_EQ(retries, HardenedRetryPolicy::watchdogAttempts - 1)
            << "section " << section;
        policy.onFallback();
    }
}

TEST(HardenedRetryPolicy, StormScoreSuppressesTransientRetries)
{
    // Lemming-storm adaptation: repeated fallbacks push the storm
    // score over the threshold, after which a new section's transient
    // budget is clamped to a single attempt -- its first transient
    // abort goes straight to the fallback (bounding the convoy a
    // storm can build) while lock/persistent budgets stay intact.
    HardenedRetryPolicy policy({4, 2, 8});
    for (int section = 0; section < 3; ++section) {
        policy.beginSection();
        policy.onFallback();
    }

    policy.beginSection();
    EXPECT_FALSE(policy.onAbort(AbortCause::dataConflict, false))
        << "transient budget should be clamped under a storm";
    EXPECT_TRUE(policy.onAbort(AbortCause::lockConflict, true))
        << "the lock budget must survive the clamp";

    // Commits decay the score back under the threshold and the full
    // budget returns.
    for (int commit = 0; commit < 8; ++commit)
        policy.onCommit();
    policy.beginSection();
    EXPECT_TRUE(policy.onAbort(AbortCause::dataConflict, false));
    EXPECT_TRUE(policy.onAbort(AbortCause::dataConflict, false));
}

TEST(HardenedRetryPolicy, RequestsDeterministicBackoff)
{
    HardenedRetryPolicy hardened({4, 1, 8});
    EXPECT_TRUE(hardened.deterministicBackoff());

    Fig1ThreeCounterPolicy fig1({4, 1, 8});
    BgqAdaptivePolicy bgq(10);
    EXPECT_FALSE(fig1.deterministicBackoff());
    EXPECT_FALSE(bgq.deterministicBackoff());
}

TEST(MakeRetryPolicy, HardenedKindOverridesEveryMachineDefault)
{
    // policyKind == hardened wins even on Blue Gene/Q, whose default
    // is the adaptive system-software policy.
    for (const MachineConfig& machine : MachineConfig::all()) {
        RuntimeConfig config(machine);
        config.policyKind = RetryPolicyKind::hardened;
        config.retry = {100, 100, 100};
        const std::unique_ptr<RetryPolicy> policy =
            makeRetryPolicy(config);
        EXPECT_TRUE(policy->deterministicBackoff()) << machine.name;
        policy->beginSection();
        int retries = 0;
        while (policy->onAbort(AbortCause::dataConflict, false))
            ++retries;
        EXPECT_EQ(retries, HardenedRetryPolicy::watchdogAttempts - 1)
            << machine.name;
    }
}

TEST(MakeRetryPolicy, SelectsTheMachineMechanism)
{
    // Blue Gene/Q's single counter ignores RetryCounts: maxRetries
    // retries whatever the abort kind.
    RuntimeConfig bgq(MachineConfig::blueGeneQ());
    bgq.retry = {4, 1, 8};
    bgq.bgq.maxRetries = 2;
    const std::unique_ptr<RetryPolicy> bgq_policy = makeRetryPolicy(bgq);
    bgq_policy->beginSection();
    EXPECT_TRUE(bgq_policy->onAbort(AbortCause::capacityOverflow, false));
    EXPECT_TRUE(bgq_policy->onAbort(AbortCause::capacityOverflow, false));
    EXPECT_FALSE(bgq_policy->onAbort(AbortCause::capacityOverflow, false));

    // Figure 1 on the other machines: the persistent budget of one is
    // observable without any simulator.
    RuntimeConfig intel(MachineConfig::intelCore());
    intel.retry = {4, 1, 8};
    const std::unique_ptr<RetryPolicy> fig1 = makeRetryPolicy(intel);
    fig1->beginSection();
    EXPECT_FALSE(fig1->onAbort(AbortCause::capacityOverflow, false));
}

// ---- hybrid escalation (TierPolicy) -----------------------------------

/// A tier policy over Figure 1 with the given budgets.
struct HybridHarness
{
    TierPolicy hybrid;

    explicit HybridHarness(RetryCounts counts,
                           TierPolicy::Tuning tuning = {})
        : hybrid(std::make_unique<Fig1ThreeCounterPolicy>(counts), tuning)
    {
        hybrid.beginSection();
    }
};

TEST(HybridRetryPolicy, PersistentCausesEscalateToStmWithoutDrainingBudgets)
{
    HybridHarness h({4, 1, 8});
    // Capacity and way conflicts go straight to the software path —
    // the hardware said retrying is futile — and do so repeatedly
    // without touching the base persistent budget of one.
    EXPECT_EQ(h.hybrid.onHtmAbort(AbortCause::capacityOverflow, false),
              Tier::software);
    EXPECT_EQ(h.hybrid.onHtmAbort(AbortCause::wayConflict, false),
              Tier::software);
    EXPECT_EQ(h.hybrid.onHtmAbort(AbortCause::capacityOverflow, false),
              Tier::software);
    // The transient budget is untouched by the fast path.
    EXPECT_EQ(h.hybrid.onHtmAbort(AbortCause::dataConflict, false),
              Tier::hardware);
}

TEST(HybridRetryPolicy, TransientExhaustionFallsBackToStmNotLock)
{
    HybridHarness h({4, 1, 8});
    // The base transient budget of eight allows seven retries; the
    // eighth abort exhausts it and lands on the software path, never
    // directly on the lock.
    for (int i = 0; i < 7; ++i) {
        EXPECT_EQ(h.hybrid.onHtmAbort(AbortCause::dataConflict, false),
                  Tier::hardware)
            << "abort " << i;
    }
    EXPECT_EQ(h.hybrid.onHtmAbort(AbortCause::dataConflict, false),
              Tier::software);
}

TEST(HybridRetryPolicy, LockHeldAbortsChargeTheLockCounter)
{
    HybridHarness h({2, 1, 8});
    // With the lock held, even a persistent cause skips the
    // straight-to-software fast path (the software commit would just
    // stall on the same lock) and is charged to the base lock
    // counter: two budgeted attempts, then software.
    EXPECT_EQ(h.hybrid.onHtmAbort(AbortCause::capacityOverflow, true),
              Tier::hardware);
    EXPECT_EQ(h.hybrid.onHtmAbort(AbortCause::capacityOverflow, true),
              Tier::software);
}

TEST(HybridRetryPolicy, StmAttemptsBoundThenLock)
{
    HybridHarness h({4, 1, 8});
    // Default stmAttempts = 3: two software failures re-enter the
    // software path, the third goes irrevocable.
    EXPECT_EQ(h.hybrid.onStmAbort(AbortCause::stmConflict),
              Tier::software);
    EXPECT_EQ(h.hybrid.onStmAbort(AbortCause::stmConflict),
              Tier::software);
    EXPECT_EQ(h.hybrid.onStmAbort(AbortCause::stmConflict),
              Tier::lock);
}

TEST(HybridRetryPolicy, BeginSectionRearmsTheStmBudget)
{
    HybridHarness h({4, 1, 8});
    for (int i = 0; i < 2; ++i)
        h.hybrid.onStmAbort(AbortCause::stmConflict);
    EXPECT_EQ(h.hybrid.onStmAbort(AbortCause::stmConflict),
              Tier::lock);

    h.hybrid.beginSection();
    EXPECT_EQ(h.hybrid.onStmAbort(AbortCause::stmConflict),
              Tier::software);
}

TEST(HybridRetryPolicy, DisabledStmMirrorsTheBasePolicyExactly)
{
    TierPolicy::Tuning tuning;
    tuning.stmEnabled = false;
    HybridHarness h({4, 1, 8}, tuning);
    // With the software path off every decision is the base policy's:
    // persistent budget of one refuses at once, transient exhaustion
    // lands on the lock, never on software.
    EXPECT_EQ(h.hybrid.onHtmAbort(AbortCause::capacityOverflow, false),
              Tier::lock);
    h.hybrid.beginSection();
    for (int i = 0; i < 7; ++i) {
        EXPECT_EQ(h.hybrid.onHtmAbort(AbortCause::dataConflict, false),
                  Tier::hardware)
            << "abort " << i;
    }
    EXPECT_EQ(h.hybrid.onHtmAbort(AbortCause::dataConflict, false),
              Tier::lock);
    EXPECT_EQ(h.hybrid.firstTier(), Tier::hardware);
}

TEST(HybridRetryPolicy, SoftwareFirstOnlyWhenStmOnly)
{
    TierPolicy::Tuning stm_only;
    stm_only.stmOnly = true;
    HybridHarness a({4, 1, 8}, stm_only);
    EXPECT_EQ(a.hybrid.firstTier(), Tier::software);

    // stmOnly without stmEnabled is a contradiction resolved in favor
    // of the master switch: hardware-or-lock only.
    stm_only.stmEnabled = false;
    HybridHarness b({4, 1, 8}, stm_only);
    EXPECT_EQ(b.hybrid.firstTier(), Tier::hardware);
}

TEST(HybridRetryPolicy, HardenedWatchdogStillBoundsHardwareAttempts)
{
    // Layered over the hardened policy, the watchdog bound survives:
    // effectively unlimited budgets still yield at most
    // watchdogAttempts hardware attempts before the section leaves
    // for the software path (not the lock — the hybrid driver owns
    // the ultimate fallback).
    TierPolicy hybrid(
        std::make_unique<HardenedRetryPolicy>(RetryCounts{100, 100, 100}),
        {});
    hybrid.beginSection();
    int retries = 0;
    while (hybrid.onHtmAbort(AbortCause::dataConflict, false) ==
           Tier::hardware)
        ++retries;
    EXPECT_EQ(retries, HardenedRetryPolicy::watchdogAttempts - 1);
    EXPECT_EQ(hybrid.onHtmAbort(AbortCause::dataConflict, false),
              Tier::software);
    // And the hybrid layer forwards the hardened backoff request.
    EXPECT_TRUE(hybrid.deterministicBackoff());
}

} // namespace
