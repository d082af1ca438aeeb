/**
 * @file
 * Unit tests for the HTM emulation core: transactions, conflict
 * detection, capacity models, retry drivers, and machine quirks.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "htm/runtime.hh"
#include "sim/region.hh"
#include "sim/sim.hh"

namespace
{

using namespace htmsim;
using namespace htmsim::htm;

RuntimeConfig
quietConfig(MachineConfig machine)
{
    // Disable stochastic machine quirks for deterministic unit tests;
    // dedicated tests re-enable them.
    machine.cacheFetchAbortProb = 0.0;
    machine.prefetchConflictProb = 0.0;
    RuntimeConfig config(std::move(machine));
    return config;
}

TEST(HtmBasics, CommitWritesBack)
{
    sim::Scheduler scheduler;
    Runtime runtime(quietConfig(MachineConfig::intelCore()), 1);
    std::uint64_t value = 5;
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        runtime.atomic(ctx, [&](Tx& tx) {
            const auto current = tx.load(&value);
            tx.store(&value, current + 1);
            // Uncommitted stores must not be visible in memory...
            EXPECT_EQ(value, 5u);
            // ...but must be visible to the transaction itself.
            EXPECT_EQ(tx.load(&value), 6u);
        });
    });
    scheduler.run();
    EXPECT_EQ(value, 6u);
    const TxStats stats = runtime.stats();
    EXPECT_EQ(stats.htmCommits, 1u);
    EXPECT_EQ(stats.totalAborts(), 0u);
}

TEST(HtmBasics, MixedTypesRoundTrip)
{
    sim::Scheduler scheduler;
    Runtime runtime(quietConfig(MachineConfig::power8()), 1);
    struct Record
    {
        std::int32_t count;
        float weight;
        double mean;
        std::uint8_t flag;
        void* pointer;
    } record{1, 2.5f, 3.25, 7, nullptr};
    int target = 0;

    scheduler.spawn([&](sim::ThreadContext& ctx) {
        runtime.atomic(ctx, [&](Tx& tx) {
            tx.store(&record.count, tx.load(&record.count) + 1);
            tx.store(&record.weight, tx.load(&record.weight) * 2.0f);
            tx.store(&record.mean, tx.load(&record.mean) + 0.75);
            tx.store<std::uint8_t>(&record.flag, 9);
            tx.store<void*>(&record.pointer, &target);
        });
    });
    scheduler.run();
    EXPECT_EQ(record.count, 2);
    EXPECT_FLOAT_EQ(record.weight, 5.0f);
    EXPECT_DOUBLE_EQ(record.mean, 4.0);
    EXPECT_EQ(record.flag, 9);
    EXPECT_EQ(record.pointer, &target);
}

TEST(HtmBasics, ExplicitAbortRollsBack)
{
    sim::Scheduler scheduler;
    Runtime runtime(quietConfig(MachineConfig::zEC12()), 1);
    std::uint64_t value = 10;
    bool first_attempt = true;
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        runtime.atomic(ctx, [&](Tx& tx) {
            tx.store(&value, std::uint64_t(99));
            if (first_attempt && !tx.isIrrevocable()) {
                first_attempt = false;
                tx.abortTx();
            }
        });
    });
    scheduler.run();
    EXPECT_EQ(value, 99u);
    const TxStats stats = runtime.stats();
    EXPECT_EQ(stats.trueCauseAborts[std::size_t(
                  AbortCause::explicitAbort)], 1u);
}

TEST(HtmBasics, TxAllocFreedOnAbortKeptOnCommit)
{
    sim::Scheduler scheduler;
    Runtime runtime(quietConfig(MachineConfig::intelCore()), 1);
    int* kept = nullptr;
    bool aborted_once = false;
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        runtime.atomic(ctx, [&](Tx& tx) {
            int* node = tx.create<int>(42);
            if (!aborted_once && !tx.isIrrevocable()) {
                aborted_once = true;
                tx.abortTx(); // first allocation must be reclaimed
            }
            kept = node;
        });
    });
    scheduler.run();
    ASSERT_NE(kept, nullptr);
    EXPECT_EQ(*kept, 42);
    // Transactionally created objects live in the region.
    sim::regionFree(kept, sizeof(int));
}

TEST(HtmConflict, WriterAbortsReader)
{
    // Thread 0 reads X then dawdles; thread 1 writes X. Under
    // attacker-wins the reader gets doomed and retried.
    sim::Scheduler scheduler;
    Runtime runtime(quietConfig(MachineConfig::intelCore()), 2);
    alignas(64) std::uint64_t x = 0;
    std::uint64_t reader_attempts = 0;
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        runtime.atomic(ctx, [&](Tx& tx) {
            ++reader_attempts;
            (void)tx.load(&x);
            tx.work(5000); // keep the read set live while T1 writes
        });
    });
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        ctx.step(500); // ensure the reader subscribed first
        runtime.atomic(ctx, [&](Tx& tx) {
            tx.store(&x, std::uint64_t(1));
        });
    });
    scheduler.run();
    EXPECT_EQ(x, 1u);
    EXPECT_GE(reader_attempts, 2u);
    const TxStats stats = runtime.stats();
    EXPECT_GE(stats.reportedAborts[std::size_t(
                  AbortCategory::dataConflict)], 1u);
}

TEST(HtmConflict, ConcurrentIncrementsAreAtomic)
{
    for (const auto& machine : MachineConfig::all()) {
        sim::Scheduler scheduler;
        Runtime runtime(quietConfig(machine), 4);
        alignas(256) std::uint64_t counter = 0;
        constexpr int increments = 200;
        for (unsigned t = 0; t < 4; ++t) {
            scheduler.spawn([&](sim::ThreadContext& ctx) {
                for (int i = 0; i < increments; ++i) {
                    runtime.atomic(ctx, [&](Tx& tx) {
                        tx.store(&counter, tx.load(&counter) + 1);
                    });
                }
            });
        }
        scheduler.run();
        EXPECT_EQ(counter, 4u * increments) << machine.name;
        EXPECT_EQ(runtime.stats().totalCommits(), 4u * increments)
            << machine.name;
    }
}

TEST(HtmConflict, FalseSharingByGranularity)
{
    // Two threads update *different* words. On zEC12 (256-byte lines)
    // words 64 bytes apart collide; on Intel (64-byte lines) they do
    // not. Buffer is 256-byte aligned so the layout is identical.
    struct alignas(256) Buffer
    {
        std::uint64_t a;
        char pad[56];
        std::uint64_t b;
    };

    auto conflicts_for = [](const MachineConfig& machine) {
        sim::Scheduler scheduler;
        Runtime runtime(quietConfig(machine), 2);
        static Buffer buffer;
        buffer = {};
        for (unsigned t = 0; t < 2; ++t) {
            scheduler.spawn([&, t](sim::ThreadContext& ctx) {
                std::uint64_t* word = t == 0 ? &buffer.a : &buffer.b;
                for (int i = 0; i < 100; ++i) {
                    runtime.atomic(ctx, [&](Tx& tx) {
                        tx.store(word, tx.load(word) + 1);
                        tx.work(200);
                    });
                }
            });
        }
        scheduler.run();
        return runtime.stats().totalAborts();
    };

    EXPECT_EQ(conflicts_for(MachineConfig::intelCore()), 0u);
    EXPECT_GT(conflicts_for(MachineConfig::zEC12()), 0u);
}

TEST(HtmCapacity, Power8CombinedBudgetIs64Lines)
{
    // POWER8: 64 TMCAM entries of 128 bytes. Touching 65 distinct
    // lines must raise a capacity abort and eventually serialize.
    sim::Scheduler scheduler;
    Runtime runtime(quietConfig(MachineConfig::power8()), 1);
    std::vector<std::uint64_t> data(65 * 16, 0); // 16 words per line
    bool overflowed_in_htm = false;
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        runtime.atomic(ctx, [&](Tx& tx) {
            for (std::size_t line = 0; line < 65; ++line)
                (void)tx.load(&data[line * 16]);
            if (!tx.isIrrevocable())
                overflowed_in_htm = true;
        });
    });
    scheduler.run();
    EXPECT_FALSE(overflowed_in_htm);
    const TxStats stats = runtime.stats();
    EXPECT_GE(stats.reportedAborts[std::size_t(
                  AbortCategory::capacityOverflow)], 1u);
    EXPECT_EQ(stats.irrevocableCommits, 1u);
}

TEST(HtmCapacity, Power8SixtyThreeLinesFit)
{
    // 63 data lines + the lock-subscription line = the full 64-entry
    // TMCAM; the transaction must still commit in hardware.
    sim::Scheduler scheduler;
    Runtime runtime(quietConfig(MachineConfig::power8()), 1);
    std::vector<std::uint64_t> data(64 * 16, 0);
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        runtime.atomic(ctx, [&](Tx& tx) {
            for (std::size_t line = 0; line < 63; ++line)
                (void)tx.load(&data[line * 16]);
        });
    });
    scheduler.run();
    const TxStats stats = runtime.stats();
    EXPECT_EQ(stats.totalAborts(), 0u);
    EXPECT_EQ(stats.htmCommits, 1u);
}

TEST(HtmCapacity, Zec12StoreCacheLimit)
{
    // zEC12 gathering store cache: 8 KB = 32 lines of 256 bytes.
    sim::Scheduler scheduler;
    Runtime runtime(quietConfig(MachineConfig::zEC12()), 1);
    std::vector<std::uint64_t> data(40 * 32, 0); // 32 words = 256 B
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        runtime.atomic(ctx, [&](Tx& tx) {
            for (std::size_t line = 0; line < 33; ++line)
                tx.store(&data[line * 32], std::uint64_t(line));
        });
    });
    scheduler.run();
    EXPECT_GE(runtime.stats().reportedAborts[std::size_t(
                  AbortCategory::capacityOverflow)], 1u);
}

TEST(HtmCapacity, Zec12LargeReadSetFits)
{
    // The 1 MB LRU-extension load capacity must absorb a 100 KB read
    // set that would overflow POWER8 at once.
    sim::Scheduler scheduler;
    Runtime runtime(quietConfig(MachineConfig::zEC12()), 1);
    std::vector<std::uint64_t> data((100 << 10) / 8, 0);
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        runtime.atomic(ctx, [&](Tx& tx) {
            for (std::size_t i = 0; i < data.size(); i += 32)
                (void)tx.load(&data[i]);
        });
    });
    scheduler.run();
    EXPECT_EQ(runtime.stats().totalAborts(), 0u);
}

TEST(HtmCapacity, IntelWayConflictOnNinthLineInSet)
{
    // 9 store lines mapping to the same L1 set (stride = sets * 64 B)
    // must abort even though 9 lines are far below the 22 KB budget.
    sim::Scheduler scheduler;
    Runtime runtime(quietConfig(MachineConfig::intelCore()), 1);
    constexpr std::size_t stride_words = 64 * 64 / 8; // sets * line / 8
    std::vector<std::uint64_t> data(stride_words * 9 + 8, 0);
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        runtime.atomic(ctx, [&](Tx& tx) {
            for (std::size_t i = 0; i < 9; ++i)
                tx.store(&data[i * stride_words], std::uint64_t(i));
        });
    });
    scheduler.run();
    const TxStats stats = runtime.stats();
    EXPECT_GE(stats.trueCauseAborts[std::size_t(
                  AbortCause::wayConflict)], 1u);
    // Way conflicts are reported in the capacity bucket.
    EXPECT_GE(stats.reportedAborts[std::size_t(
                  AbortCategory::capacityOverflow)], 1u);
}

TEST(HtmCapacity, SmtSharingShrinksBudget)
{
    // POWER8 with 12 threads on 6 cores: two transactional threads
    // share each core's TMCAM, halving the per-thread budget to 32
    // lines. A 40-line read set fits alone but not when sharing.
    MachineConfig machine = MachineConfig::power8();
    sim::Scheduler scheduler;
    RuntimeConfig config = quietConfig(machine);
    config.retry.persistentRetries = 1;
    Runtime runtime(config, 12);
    static std::vector<std::uint64_t> data(12 * 40 * 16, 0);
    sim::Barrier barrier(12);
    for (unsigned t = 0; t < 12; ++t) {
        scheduler.spawn([&, t](sim::ThreadContext& ctx) {
            barrier.arrive(ctx);
            for (int round = 0; round < 5; ++round) {
                runtime.atomic(ctx, [&](Tx& tx) {
                    // Disjoint lines: no data conflicts possible.
                    for (std::size_t line = 0; line < 40; ++line)
                        (void)tx.load(&data[(t * 40 + line) * 16]);
                    tx.work(500);
                });
            }
        });
    }
    scheduler.run();
    EXPECT_GE(runtime.stats().reportedAborts[std::size_t(
                  AbortCategory::capacityOverflow)], 1u);
}

TEST(HtmRetry, FallsBackToLockAndStaysCorrect)
{
    // Force persistent capacity aborts: POWER8 with a footprint far
    // over budget must complete every operation via the global lock.
    sim::Scheduler scheduler;
    Runtime runtime(quietConfig(MachineConfig::power8()), 2);
    static std::vector<std::uint64_t> data(200 * 16, 0);
    for (unsigned t = 0; t < 2; ++t) {
        scheduler.spawn([&](sim::ThreadContext& ctx) {
            for (int i = 0; i < 3; ++i) {
                runtime.atomic(ctx, [&](Tx& tx) {
                    for (std::size_t line = 0; line < 200; ++line) {
                        tx.store(&data[line * 16],
                                 tx.load(&data[line * 16]) + 1);
                    }
                });
            }
        });
    }
    scheduler.run();
    for (std::size_t line = 0; line < 200; ++line)
        EXPECT_EQ(data[line * 16], 6u);
    const TxStats stats = runtime.stats();
    EXPECT_EQ(stats.irrevocableCommits, 6u);
    EXPECT_GT(stats.serializationRatio(), 0.99);
}

TEST(HtmRetry, LockSubscriptionAbortsRunningTx)
{
    // While thread 0 is mid-transaction, thread 1 acquires the global
    // lock (forced via runLocked). Thread 0 must abort and classify
    // the abort as a lock conflict.
    sim::Scheduler scheduler;
    Runtime runtime(quietConfig(MachineConfig::intelCore()), 2);
    alignas(64) std::uint64_t a = 0;
    alignas(64) std::uint64_t b = 0;
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        runtime.atomic(ctx, [&](Tx& tx) {
            (void)tx.load(&a);
            tx.work(4000);
            tx.store(&a, std::uint64_t(1));
        });
    });
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        ctx.step(300);
        runtime.runLocked(ctx, [&](Tx& tx) {
            tx.store(&b, std::uint64_t(1));
            // Hold the lock long enough that the victim inspects it
            // before release (otherwise the abort is legitimately
            // misattributed to a data conflict, as the paper notes).
            tx.work(10000);
        });
    });
    scheduler.run();
    EXPECT_EQ(a, 1u);
    EXPECT_EQ(b, 1u);
    EXPECT_GE(runtime.stats().reportedAborts[std::size_t(
                  AbortCategory::lockConflict)], 1u);
}

TEST(HtmQuirk, Zec12CacheFetchAborts)
{
    MachineConfig machine = MachineConfig::zEC12();
    machine.cacheFetchAbortProb = 0.01;
    RuntimeConfig config(machine);
    sim::Scheduler scheduler;
    Runtime runtime(config, 1);
    std::vector<std::uint64_t> data(64 * 32, 0);
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        for (int i = 0; i < 100; ++i) {
            runtime.atomic(ctx, [&](Tx& tx) {
                for (std::size_t line = 0; line < 20; ++line)
                    (void)tx.load(&data[line * 32]);
            });
        }
    });
    scheduler.run();
    const TxStats stats = runtime.stats();
    EXPECT_GE(stats.trueCauseAborts[std::size_t(
                  AbortCause::cacheFetch)], 1u);
    // Cache-fetch aborts land in the "other" bucket of Figure 3.
    EXPECT_GE(stats.reportedAborts[std::size_t(AbortCategory::other)],
              1u);
}

TEST(HtmQuirk, IntelPrefetchCausesExtraConflicts)
{
    // Two threads update adjacent lines (no true sharing). With the
    // prefetcher on, spurious conflicts appear; off, none.
    auto aborts_with_prefetch = [](bool enabled) {
        MachineConfig machine = MachineConfig::intelCore();
        machine.prefetchConflictProb = 0.5;
        machine.cacheFetchAbortProb = 0.0;
        RuntimeConfig config(machine);
        config.intel.prefetchEnabled = enabled;
        sim::Scheduler scheduler;
        Runtime runtime(config, 2);
        static struct alignas(128) { std::uint64_t words[16]; } data;
        data = {};
        for (unsigned t = 0; t < 2; ++t) {
            scheduler.spawn([&, t](sim::ThreadContext& ctx) {
                std::uint64_t* word = &data.words[t * 8];
                for (int i = 0; i < 300; ++i) {
                    runtime.atomic(ctx, [&](Tx& tx) {
                        tx.store(word, tx.load(word) + 1);
                        tx.work(60);
                    });
                }
            });
        }
        scheduler.run();
        return runtime.stats().totalAborts();
    };

    EXPECT_EQ(aborts_with_prefetch(false), 0u);
    EXPECT_GT(aborts_with_prefetch(true), 0u);
}

TEST(HtmQuirk, BgqAbortsAreUnclassified)
{
    RuntimeConfig config = quietConfig(MachineConfig::blueGeneQ());
    sim::Scheduler scheduler;
    Runtime runtime(config, 2);
    alignas(128) std::uint64_t x = 0;
    for (unsigned t = 0; t < 2; ++t) {
        scheduler.spawn([&](sim::ThreadContext& ctx) {
            for (int i = 0; i < 200; ++i) {
                runtime.atomic(ctx, [&](Tx& tx) {
                    tx.store(&x, tx.load(&x) + 1);
                    tx.work(100);
                });
            }
        });
    }
    scheduler.run();
    EXPECT_EQ(x, 400u);
    const TxStats stats = runtime.stats();
    ASSERT_GT(stats.totalAborts(), 0u);
    EXPECT_EQ(stats.totalAborts(),
              stats.reportedAborts[std::size_t(
                  AbortCategory::unclassified)]);
}

TEST(HtmQuirk, BgqGranularityDependsOnMode)
{
    RuntimeConfig config = quietConfig(MachineConfig::blueGeneQ());
    config.bgq.mode = BgqMode::shortRunning;
    Runtime short_mode(config, 1);
    EXPECT_EQ(short_mode.effectiveGranularity(), 8u);
    config.bgq.mode = BgqMode::longRunning;
    Runtime long_mode(config, 1);
    EXPECT_EQ(long_mode.effectiveGranularity(), 64u);
}

TEST(HtmQuirk, BgqSpeculationIdPressure)
{
    // Many tiny transactions from many threads must trigger spec-ID
    // reclamation passes (the ssca2 bottleneck of Section 5.1).
    RuntimeConfig config = quietConfig(MachineConfig::blueGeneQ());
    sim::Scheduler scheduler;
    Runtime runtime(config, 8);
    static std::vector<std::uint64_t> slots(8 * 16, 0);
    for (unsigned t = 0; t < 8; ++t) {
        scheduler.spawn([&, t](sim::ThreadContext& ctx) {
            for (int i = 0; i < 100; ++i) {
                runtime.atomic(ctx, [&](Tx& tx) {
                    tx.store(&slots[t * 16],
                             tx.load(&slots[t * 16]) + 1);
                });
            }
        });
    }
    scheduler.run();
    const TxStats stats = runtime.stats();
    EXPECT_GT(stats.specIdReclaims, 0u);
    EXPECT_EQ(stats.htmCommits + stats.irrevocableCommits, 800u);
}

TEST(HtmNonTx, StrongIsolationAbortsConflictingTx)
{
    sim::Scheduler scheduler;
    Runtime runtime(quietConfig(MachineConfig::intelCore()), 2);
    alignas(64) std::uint64_t x = 0;
    std::uint64_t tx_attempts = 0;
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        runtime.atomic(ctx, [&](Tx& tx) {
            ++tx_attempts;
            (void)tx.load(&x);
            tx.work(5000);
        });
    });
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        ctx.step(500);
        runtime.nonTxStore(ctx, &x, std::uint64_t(7));
    });
    scheduler.run();
    EXPECT_EQ(x, 7u);
    EXPECT_GE(tx_attempts, 2u);
}

TEST(HtmNonTx, FetchAddDistributesUniqueChunks)
{
    sim::Scheduler scheduler;
    Runtime runtime(quietConfig(MachineConfig::zEC12()), 4);
    std::uint64_t next = 0;
    std::vector<std::uint64_t> seen;
    for (unsigned t = 0; t < 4; ++t) {
        scheduler.spawn([&](sim::ThreadContext& ctx) {
            for (;;) {
                const auto chunk =
                    runtime.nonTxFetchAdd(ctx, &next, std::uint64_t(1));
                if (chunk >= 100)
                    break;
                seen.push_back(chunk);
            }
        });
    }
    scheduler.run();
    EXPECT_EQ(seen.size(), 100u);
    std::sort(seen.begin(), seen.end());
    for (std::uint64_t i = 0; i < 100; ++i)
        EXPECT_EQ(seen[i], i);
}

TEST(HtmConstrained, CommitsWithoutFallback)
{
    sim::Scheduler scheduler;
    Runtime runtime(quietConfig(MachineConfig::zEC12()), 4);
    alignas(256) std::uint64_t counter = 0;
    for (unsigned t = 0; t < 4; ++t) {
        scheduler.spawn([&](sim::ThreadContext& ctx) {
            for (int i = 0; i < 100; ++i) {
                runtime.constrainedAtomic(ctx, [&](Tx& tx) {
                    tx.store(&counter, tx.load(&counter) + 1);
                });
            }
        });
    }
    scheduler.run();
    EXPECT_EQ(counter, 400u);
    const TxStats stats = runtime.stats();
    EXPECT_EQ(stats.constrainedCommits, 400u);
    EXPECT_EQ(stats.irrevocableCommits, 0u);
}

TEST(HtmConstrained, RejectsOversizedBodies)
{
    sim::Scheduler scheduler;
    Runtime runtime(quietConfig(MachineConfig::zEC12()), 1);
    std::vector<std::uint64_t> data(40 * 32, 0);
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        EXPECT_THROW(
            runtime.constrainedAtomic(ctx,
                                      [&](Tx& tx) {
                                          for (int i = 0; i < 40; ++i)
                                              (void)tx.load(
                                                  &data[i * 32]);
                                      }),
            std::logic_error);
    });
    scheduler.run();
}

TEST(HtmConstrained, UnsupportedElsewhere)
{
    sim::Scheduler scheduler;
    Runtime runtime(quietConfig(MachineConfig::intelCore()), 1);
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        EXPECT_THROW(runtime.constrainedAtomic(ctx, [](Tx&) {}),
                     std::logic_error);
    });
    scheduler.run();
}

TEST(HtmPower8, SuspendResumeSkipsTracking)
{
    // A write by thread 1 to a location thread 0 reads only while
    // suspended must NOT abort thread 0.
    sim::Scheduler scheduler;
    Runtime runtime(quietConfig(MachineConfig::power8()), 2);
    alignas(128) std::uint64_t shared_flag = 0;
    alignas(128) std::uint64_t data = 0;
    std::uint64_t attempts = 0;
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        runtime.atomic(ctx, [&](Tx& tx) {
            ++attempts;
            tx.store(&data, std::uint64_t(1));
            tx.suspend();
            ctx.spinUntil([&] { return shared_flag == 1; }, 25);
            tx.resume();
        });
    });
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        ctx.step(2000);
        runtime.nonTxStore(ctx, &shared_flag, std::uint64_t(1));
    });
    scheduler.run();
    EXPECT_EQ(attempts, 1u);
    EXPECT_EQ(data, 1u);
}

TEST(HtmPower8, RollbackOnlyTxBuffersStores)
{
    sim::Scheduler scheduler;
    Runtime runtime(quietConfig(MachineConfig::power8()), 1);
    std::uint64_t value = 3;
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        const bool committed = runtime.rollbackOnly(ctx, [&](Tx& tx) {
            tx.store(&value, std::uint64_t(50));
            EXPECT_EQ(value, 3u);
        });
        EXPECT_TRUE(committed);
        EXPECT_EQ(value, 50u);

        const bool second = runtime.rollbackOnly(ctx, [&](Tx& tx) {
            tx.store(&value, std::uint64_t(99));
            tx.abortTx();
        });
        EXPECT_FALSE(second);
        EXPECT_EQ(value, 50u);
    });
    scheduler.run();
}

TEST(HtmDeterminism, IdenticalRunsIdenticalStats)
{
    auto run_once = [] {
        sim::Scheduler scheduler(7);
        Runtime runtime(RuntimeConfig(MachineConfig::intelCore()), 4);
        static std::vector<std::uint64_t> cells(64, 0);
        cells.assign(64, 0);
        for (unsigned t = 0; t < 4; ++t) {
            scheduler.spawn([&](sim::ThreadContext& ctx) {
                for (int i = 0; i < 200; ++i) {
                    const auto index = ctx.rng().nextRange(8) * 8;
                    runtime.atomic(ctx, [&](Tx& tx) {
                        tx.store(&cells[index],
                                 tx.load(&cells[index]) + 1);
                        tx.work(30);
                    });
                }
            });
        }
        scheduler.run();
        const TxStats stats = runtime.stats();
        return std::make_tuple(scheduler.makespan(), stats.htmCommits,
                               stats.totalAborts(),
                               stats.irrevocableCommits);
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(HtmPolicy, AllPoliciesPreserveAtomicity)
{
    for (const auto policy :
         {ConflictPolicy::attackerWins, ConflictPolicy::attackerLoses,
          ConflictPolicy::olderWins}) {
        RuntimeConfig config = quietConfig(MachineConfig::intelCore());
        config.policy = policy;
        sim::Scheduler scheduler;
        Runtime runtime(config, 4);
        alignas(64) static std::uint64_t counter;
        counter = 0;
        for (unsigned t = 0; t < 4; ++t) {
            scheduler.spawn([&](sim::ThreadContext& ctx) {
                for (int i = 0; i < 150; ++i) {
                    runtime.atomic(ctx, [&](Tx& tx) {
                        tx.store(&counter, tx.load(&counter) + 1);
                        tx.work(40);
                    });
                }
            });
        }
        scheduler.run();
        EXPECT_EQ(counter, 600u) << "policy " << int(policy);
    }
}

TEST(HtmTrace, CollectsFootprints)
{
    RuntimeConfig config = quietConfig(MachineConfig::intelCore());
    config.collectTrace = true;
    config.ignoreCapacity = true;
    sim::Scheduler scheduler;
    Runtime runtime(config, 1);
    std::vector<std::uint64_t> data(100 * 8, 0);
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        runtime.atomic(ctx, [&](Tx& tx) {
            for (int line = 0; line < 10; ++line)
                (void)tx.load(&data[line * 8]);
            for (int line = 0; line < 3; ++line)
                tx.store(&data[(50 + line) * 8], std::uint64_t(1));
        });
    });
    scheduler.run();
    const auto& samples = runtime.trace().samples();
    ASSERT_EQ(samples.size(), 1u);
    // 10 data lines plus the global-lock subscription line.
    EXPECT_EQ(samples[0].loadLines, 11u);
    EXPECT_EQ(samples[0].storeLines, 3u);
    EXPECT_DOUBLE_EQ(
        runtime.trace().loadPercentileBytes(0.9, 64), 11 * 64.0);
}

} // namespace
