/**
 * @file
 * Hybrid backend tests (src/htm/stm.hh, the software tier of
 * Runtime::runSection).
 *
 * Two properties carry the layer:
 *
 *  1. The software path is real and exact. Whatever mix of hardware,
 *     software and irrevocable commits a configuration produces, a
 *     contended counter must end at exactly threads * iters — under
 *     eager and lazy subscription, stm-only mode, version-clock
 *     wraparound, hash-collision false conflicts, and global-lock
 *     interplay when the software attempt budget runs dry.
 *
 *  2. Orec-table edge cases behave as modeled: wraparound advances
 *     the epoch instead of corrupting validation, a degenerate
 *     one-entry table turns disjoint accesses into (correct) false
 *     conflicts, and software commits doom overlapping hardware
 *     readers under both subscription modes.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "htm/machine.hh"
#include "htm/runtime.hh"
#include "htm/stm.hh"
#include "htm/tx.hh"
#include "sim/scheduler.hh"

namespace
{

using namespace htmsim;
using Subscription = htm::HybridRuntimeConfig::Subscription;

// ---- the software path is real and exact ------------------------------

struct alignas(256) PaddedWord
{
    std::uint64_t value = 0;
};

struct HybridRun
{
    htm::TxStats stats;
    std::uint64_t finalCount = 0;
    std::uint64_t expectedCount = 0;
    std::uint64_t stmClock = 0;
    std::uint64_t stmEpoch = 0;
};

/// N threads x iters increments of a shared counter under the hybrid
/// backend with the given knobs. A tight retry budget pushes contended
/// sections onto the software path quickly; the invariant every test
/// leans on is that the counter still ends at exactly threads * iters.
HybridRun
runHybridCounter(const htm::HybridRuntimeConfig& hybrid,
                 unsigned threads = 4, unsigned iters = 200,
                 unsigned work = 100,
                 htm::RetryCounts retry = {1, 1, 1})
{
    const htm::MachineConfig& machine = htm::MachineConfig::all()[2];
    htm::RuntimeConfig config{machine};
    config.backend = htm::BackendKind::hybrid;
    config.hybrid = hybrid;
    config.retry = retry;

    PaddedWord counter;
    sim::Scheduler scheduler(1);
    htm::Runtime runtime(config, threads);
    static const htm::TxSiteId site = htm::txSite("test.hybridCounter");
    for (unsigned tid = 0; tid < threads; ++tid) {
        scheduler.spawn([&, tid](sim::ThreadContext& ctx) {
            for (unsigned i = 0; i < iters; ++i) {
                runtime.atomic(ctx, site, [&](htm::Tx& tx) {
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

    HybridRun result;
    result.stats = runtime.stats();
    result.finalCount = counter.value;
    result.expectedCount = std::uint64_t(threads) * iters;
    result.stmClock = runtime.stm().clock();
    result.stmEpoch = runtime.stm().epoch();
    return result;
}

std::uint64_t
causeCount(const htm::TxStats& stats, htm::AbortCause cause)
{
    return stats.trueCauseAborts[std::size_t(cause)];
}

TEST(HybridCounter, MixedModeIsExactUnderContentionEager)
{
    htm::HybridRuntimeConfig hybrid;
    hybrid.subscription = Subscription::eager;
    const HybridRun run = runHybridCounter(hybrid);

    EXPECT_EQ(run.finalCount, run.expectedCount);
    // Both tiers must carry real work: software commits exist (the
    // one-retry budget funnels contended sections to the slow path)
    // and hardware commits survive alongside them.
    EXPECT_GT(run.stats.stmCommits, 0u);
    EXPECT_GT(run.stats.htmCommits, 0u);
    // Every commit is exactly one increment, whatever the tier.
    EXPECT_EQ(run.stats.totalCommits(), run.expectedCount);
    // Software commits advance the shared version clock.
    EXPECT_GT(run.stmClock, 0u);
    EXPECT_GT(run.stats.committedStmCycles, 0u);
}

TEST(HybridCounter, MixedModeIsExactUnderContentionLazy)
{
    htm::HybridRuntimeConfig hybrid;
    hybrid.subscription = Subscription::lazy;
    const HybridRun run = runHybridCounter(hybrid);

    EXPECT_EQ(run.finalCount, run.expectedCount);
    EXPECT_GT(run.stats.stmCommits, 0u);
    EXPECT_GT(run.stats.htmCommits, 0u);
    EXPECT_EQ(run.stats.totalCommits(), run.expectedCount);
    EXPECT_GT(run.stmClock, 0u);
}

TEST(HybridCounter, StmOnlyIsExactAndAllSoftware)
{
    htm::HybridRuntimeConfig hybrid;
    hybrid.stmOnly = true;
    const HybridRun run = runHybridCounter(hybrid);

    EXPECT_EQ(run.finalCount, run.expectedCount);
    // No hardware attempts at all: every commit is software or (after
    // the software budget) irrevocable under the global lock.
    EXPECT_EQ(run.stats.htmCommits, 0u);
    EXPECT_GT(run.stats.stmCommits, 0u);
    EXPECT_EQ(run.stats.stmCommits + run.stats.irrevocableCommits,
              run.expectedCount);
    // Contention is real: software validation must have failed
    // somewhere, and the wasted cycles are attributed.
    EXPECT_GT(causeCount(run.stats, htm::AbortCause::stmConflict), 0u);
    EXPECT_GT(run.stats.wastedStmCycles, 0u);
}

// ---- orec-table edge cases --------------------------------------------

TEST(HybridOrecs, ClockWraparoundAdvancesEpochAndStaysExact)
{
    htm::HybridRuntimeConfig hybrid;
    hybrid.stmOnly = true;
    // 800 increments against a wrap limit of 64 forces many epoch
    // resets; in-flight software transactions at each reset must
    // abort (epoch check) rather than validate against zeroed orecs.
    hybrid.clockWrapLimit = 64;
    const HybridRun run = runHybridCounter(hybrid);

    EXPECT_EQ(run.finalCount, run.expectedCount);
    EXPECT_GT(run.stmEpoch, 0u);
    // After a wrap the clock restarts below the limit (plus the
    // commits since); it must never run away past limit + one batch.
    EXPECT_LE(run.stmClock, 64u + 1u);
}

TEST(HybridOrecs, OneEntryTableTurnsDisjointAccessesIntoFalseConflicts)
{
    // Every address hashes to the single orec, so threads writing
    // fully disjoint words still invalidate each other: false
    // conflicts must appear, and must only cost retries, never
    // correctness.
    const htm::MachineConfig& machine = htm::MachineConfig::all()[2];
    htm::RuntimeConfig config{machine};
    config.backend = htm::BackendKind::hybrid;
    config.hybrid.stmOnly = true;
    config.hybrid.orecTableLog2 = 0;

    const unsigned threads = 4;
    const unsigned iters = 200;
    std::vector<PaddedWord> words(threads);
    sim::Scheduler scheduler(1);
    htm::Runtime runtime(config, threads);
    static const htm::TxSiteId site = htm::txSite("test.hybridDisjoint");
    for (unsigned tid = 0; tid < threads; ++tid) {
        scheduler.spawn([&, tid](sim::ThreadContext& ctx) {
            for (unsigned i = 0; i < iters; ++i) {
                runtime.atomic(ctx, site, [&](htm::Tx& tx) {
                    tx.work(50);
                    tx.store(&words[tid].value,
                             tx.load(&words[tid].value) + 1);
                });
                ctx.advance(20 + tid);
            }
        });
    }
    scheduler.run();

    EXPECT_EQ(runtime.stm().orecCount(), 1u);
    for (unsigned tid = 0; tid < threads; ++tid)
        EXPECT_EQ(words[tid].value, iters) << "thread " << tid;
    EXPECT_GT(causeCount(runtime.stats(), htm::AbortCause::stmConflict),
              0u);
}

TEST(HybridOrecs, StmBudgetExhaustionFallsBackToTheGlobalLock)
{
    // A software budget of one means any validation failure goes
    // irrevocable; software commits racing those lock holders must
    // see the lock (stmCommit's lock check) and stand aside, so the
    // counter stays exact with all three commit classes mixed.
    htm::HybridRuntimeConfig hybrid;
    hybrid.stmOnly = true;
    hybrid.stmAttempts = 1;
    const HybridRun run = runHybridCounter(hybrid);

    EXPECT_EQ(run.finalCount, run.expectedCount);
    EXPECT_GT(run.stats.irrevocableCommits, 0u);
    EXPECT_EQ(run.stats.stmCommits + run.stats.irrevocableCommits,
              run.expectedCount);
}

TEST(HybridOrecs, SoftwareCommitsDoomOverlappingHardwareReaders)
{
    // Readers spin transactionally over the writers' words while
    // stm-leaning writers commit under them. Strong isolation demands
    // each hardware reader see either the old or the new value of
    // every word — the differential oracle checks this globally; here
    // the cheap proxy is that reader transactions observe software
    // aborts (they are doomed by software write-back) yet the
    // writers' counts stay exact. Run under both subscription modes.
    for (const Subscription mode :
         {Subscription::eager, Subscription::lazy}) {
        SCOPED_TRACE(mode == Subscription::eager ? "eager" : "lazy");
        const htm::MachineConfig& machine =
            htm::MachineConfig::all()[2];
        htm::RuntimeConfig config{machine};
        config.backend = htm::BackendKind::hybrid;
        config.hybrid.subscription = mode;
        config.retry = {1, 1, 1};

        const unsigned writers = 2;
        const unsigned readers = 2;
        const unsigned iters = 200;
        std::vector<PaddedWord> words(writers);
        std::uint64_t torn_reads = 0;
        sim::Scheduler scheduler(1);
        htm::Runtime runtime(config, writers + readers);
        static const htm::TxSiteId write_site =
            htm::txSite("test.hybridWriter");
        static const htm::TxSiteId read_site =
            htm::txSite("test.hybridReader");
        for (unsigned tid = 0; tid < writers; ++tid) {
            scheduler.spawn([&, tid](sim::ThreadContext& ctx) {
                for (unsigned i = 0; i < iters; ++i) {
                    runtime.atomic(ctx, write_site, [&](htm::Tx& tx) {
                        tx.work(100);
                        // Increment both words in one transaction so
                        // they stay equal in every committed
                        // snapshot: the invariant a torn read breaks.
                        for (unsigned w = 0; w < writers; ++w) {
                            tx.store(&words[w].value,
                                     tx.load(&words[w].value) + 1);
                        }
                    });
                    ctx.advance(20 + tid);
                }
            });
        }
        for (unsigned r = 0; r < readers; ++r) {
            scheduler.spawn([&, r](sim::ThreadContext& ctx) {
                for (unsigned i = 0; i < iters; ++i) {
                    runtime.atomic(ctx, read_site, [&](htm::Tx& tx) {
                        const std::uint64_t a =
                            tx.load(&words[0].value);
                        tx.work(60);
                        const std::uint64_t b =
                            tx.load(&words[1].value);
                        if (a != b)
                            ++torn_reads;
                    });
                    ctx.advance(30 + r);
                }
            });
        }
        scheduler.run();

        // Opacity: a software commit between the two loads dooms the
        // reader (per-address conflict plus clock subscription), so
        // the second load throws before an inconsistent pair can be
        // observed — even on attempts that never commit. A nonzero
        // count here is a strong-isolation violation, whichever tier
        // the reader ran on.
        EXPECT_EQ(torn_reads, 0u);
        EXPECT_EQ(words[0].value, std::uint64_t(writers) * iters);
        EXPECT_EQ(words[1].value, std::uint64_t(writers) * iters);
        const htm::TxStats stats = runtime.stats();
        EXPECT_GT(stats.stmCommits, 0u);
        EXPECT_EQ(stats.totalCommits(),
                  std::uint64_t(writers + readers) * iters);
    }
}

} // namespace
