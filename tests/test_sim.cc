/**
 * @file
 * Unit tests for the simulation substrate: fibers, scheduler ordering,
 * virtual time, barriers, determinism, and the stack pool's warm
 * slots.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/sim.hh"

namespace
{

using namespace htmsim::sim;

TEST(Fiber, RunsBodyToCompletion)
{
    int state = 0;
    Fiber fiber([&] {
        state = 1;
        Fiber::yieldToOwner();
        state = 2;
    });
    EXPECT_FALSE(fiber.finished());
    fiber.resume();
    EXPECT_EQ(state, 1);
    EXPECT_FALSE(fiber.finished());
    fiber.resume();
    EXPECT_EQ(state, 2);
    EXPECT_TRUE(fiber.finished());
}

TEST(Fiber, PropagatesExceptions)
{
    Fiber fiber([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(fiber.resume(), std::runtime_error);
    EXPECT_TRUE(fiber.finished());
}

TEST(Scheduler, SingleThreadAccumulatesTime)
{
    Scheduler scheduler;
    scheduler.spawn([](ThreadContext& ctx) {
        ctx.step(100);
        ctx.step(50);
    });
    scheduler.run();
    EXPECT_EQ(scheduler.makespan(), 150u);
}

TEST(Scheduler, RunsLowestClockFirst)
{
    // Thread 0 takes big steps, thread 1 small steps; events must
    // interleave in virtual-time order.
    std::vector<std::pair<unsigned, Cycles>> events;
    Scheduler scheduler;
    scheduler.spawn([&](ThreadContext& ctx) {
        for (int i = 0; i < 3; ++i) {
            ctx.step(100);
            events.push_back({0, ctx.now()});
        }
    });
    scheduler.spawn([&](ThreadContext& ctx) {
        for (int i = 0; i < 6; ++i) {
            ctx.step(50);
            events.push_back({1, ctx.now()});
        }
    });
    scheduler.run();
    ASSERT_EQ(events.size(), 9u);
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_LE(events[i - 1].second, events[i].second)
            << "event " << i << " out of virtual-time order";
}

TEST(Scheduler, MakespanIsMaxOfFinishTimes)
{
    Scheduler scheduler;
    scheduler.spawn([](ThreadContext& ctx) { ctx.step(500); });
    scheduler.spawn([](ThreadContext& ctx) { ctx.step(200); });
    scheduler.run();
    EXPECT_EQ(scheduler.makespan(), 500u);
    EXPECT_EQ(scheduler.finishTime(0), 500u);
    EXPECT_EQ(scheduler.finishTime(1), 200u);
}

TEST(Scheduler, BlockAndWake)
{
    Scheduler scheduler;
    bool flag = false;
    unsigned sleeper_tid = 0;
    sleeper_tid = scheduler.spawn([&](ThreadContext& ctx) {
        ctx.block();
        EXPECT_TRUE(flag);
        // Clock must have been pulled up to at least the waker's time.
        EXPECT_GE(ctx.now(), 1000u);
    });
    scheduler.spawn([&](ThreadContext& ctx) {
        ctx.step(1000);
        flag = true;
        ctx.scheduler().wake(sleeper_tid, ctx.now());
    });
    scheduler.run();
}

TEST(Scheduler, DeadlockDetected)
{
    Scheduler scheduler;
    scheduler.spawn([](ThreadContext& ctx) { ctx.block(); });
    EXPECT_THROW(scheduler.run(), SimError);
}

TEST(Scheduler, SpinUntilLivelockGuard)
{
    // A spin on a condition nobody will ever satisfy must error out
    // rather than hang (guard is large; use a tiny custom loop here).
    Scheduler scheduler;
    scheduler.spawn([](ThreadContext& ctx) {
        bool never = false;
        EXPECT_THROW(
            {
                std::uint64_t probes = 0;
                while (!never) {
                    ctx.advance(10);
                    ctx.yieldNow();
                    if (++probes > 1000)
                        throw SimError("livelock");
                }
            },
            SimError);
    });
    scheduler.run();
}

TEST(Scheduler, DeterministicAcrossRuns)
{
    auto run_once = [] {
        std::vector<std::uint64_t> trace;
        Scheduler scheduler(42);
        for (unsigned t = 0; t < 4; ++t) {
            scheduler.spawn([&](ThreadContext& ctx) {
                for (int i = 0; i < 50; ++i) {
                    ctx.step(1 + ctx.rng().nextRange(100));
                    trace.push_back(ctx.id() * 1000000 + ctx.now());
                }
            });
        }
        scheduler.run();
        return trace;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(Scheduler, BatchingPreservesEventOrder)
{
    // Epoch batching elides only provably no-op scheduling points, so
    // the globally visible event order must be identical with the
    // sync() fast path on and off.
    auto run_once = [](bool batch) {
        std::vector<std::uint64_t> trace;
        Scheduler scheduler(42);
        scheduler.setBatching(batch);
        for (unsigned t = 0; t < 4; ++t) {
            scheduler.spawn([&](ThreadContext& ctx) {
                for (int i = 0; i < 50; ++i) {
                    ctx.step(1 + ctx.rng().nextRange(100));
                    trace.push_back(ctx.id() * 1000000 + ctx.now());
                }
            });
        }
        scheduler.run();
        return trace;
    };
    EXPECT_EQ(run_once(true), run_once(false));
}

namespace
{
/// Records every scheduling point it is consulted at (schedule format
/// v2: exactly one draw per point), optionally perturbing the clock.
class RecordingPerturber : public SchedulePerturber
{
  public:
    explicit RecordingPerturber(bool perturb) : perturb_(perturb) {}

    Cycles
    preemptDelay(unsigned tid, Cycles now) override
    {
        points.push_back({tid, now});
        return perturb_ ? (points.size() * 7) % 3 : 0;
    }

    std::vector<std::pair<unsigned, Cycles>> points;

  private:
    bool perturb_;
};
} // namespace

TEST(Scheduler, PerturberDrawsExactlyOncePerSchedulingPoint)
{
    // Two threads, each issuing a known number of scheduling points:
    // 40 step()s (one sync each) plus one explicit yieldNow(). The
    // per-thread draw count must equal the point count exactly — the
    // historical hazard was sync() drawing a second time when the
    // point actually yielded.
    RecordingPerturber perturber(true);
    Scheduler scheduler(7);
    for (unsigned t = 0; t < 2; ++t) {
        scheduler.spawn([&](ThreadContext& ctx) {
            for (int i = 0; i < 40; ++i)
                ctx.step(1 + ctx.rng().nextRange(8));
            ctx.yieldNow();
        });
    }
    scheduler.setPerturber(&perturber);
    scheduler.run();
    scheduler.setPerturber(nullptr);

    std::array<unsigned, 2> draws{};
    for (const auto& [tid, now] : perturber.points)
        draws[tid]++;
    EXPECT_EQ(draws[0], 41u);
    EXPECT_EQ(draws[1], 41u);
}

TEST(Scheduler, PerturberPointIndicesMatchBatchedAndUnbatched)
{
    // A registered perturber disables the lease fast path, so batching
    // must not elide (or reorder) any consulted point: the full
    // (tid, clock) sequence — and with it every per-thread point
    // index — must be identical across the two modes. FuzzScheduler
    // seeds and recorded schedules rely on this.
    auto run_once = [](bool batch) {
        RecordingPerturber perturber(true);
        Scheduler scheduler(7);
        scheduler.setBatching(batch);
        for (unsigned t = 0; t < 3; ++t) {
            scheduler.spawn([&](ThreadContext& ctx) {
                for (int i = 0; i < 30; ++i)
                    ctx.step(1 + ctx.rng().nextRange(16));
            });
        }
        scheduler.setPerturber(&perturber);
        scheduler.run();
        scheduler.setPerturber(nullptr);
        return perturber.points;
    };
    EXPECT_EQ(run_once(true), run_once(false));
}

TEST(Rng, DeterministicStreams)
{
    Rng a(7, 0), b(7, 0), c(7, 1);
    EXPECT_EQ(a.nextU64(), b.nextU64());
    EXPECT_NE(a.nextU64(), c.nextU64());
}

TEST(Rng, RangeAndDoubleBounds)
{
    Rng rng(123);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.nextRange(17), 17u);
        const double value = rng.nextDouble();
        EXPECT_GE(value, 0.0);
        EXPECT_LT(value, 1.0);
    }
}

TEST(Rng, BernoulliRoughlyCalibrated)
{
    Rng rng(99);
    int hits = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        hits += rng.nextBool(0.3) ? 1 : 0;
    EXPECT_NEAR(double(hits) / trials, 0.3, 0.02);
}

TEST(Barrier, AlignsClocks)
{
    Scheduler scheduler;
    Barrier barrier(3);
    std::vector<Cycles> after(3);
    for (unsigned t = 0; t < 3; ++t) {
        scheduler.spawn([&, t](ThreadContext& ctx) {
            ctx.step(100 * (t + 1)); // 100, 200, 300
            barrier.arrive(ctx);
            after[ctx.id()] = ctx.now();
        });
    }
    scheduler.run();
    for (unsigned t = 0; t < 3; ++t)
        EXPECT_EQ(after[t], 300u + Barrier::releaseCost);
}

TEST(Barrier, Reusable)
{
    Scheduler scheduler;
    Barrier barrier(2);
    int phase_sum = 0;
    for (unsigned t = 0; t < 2; ++t) {
        scheduler.spawn([&](ThreadContext& ctx) {
            for (int round = 0; round < 5; ++round) {
                ctx.step(10 + ctx.rng().nextRange(50));
                barrier.arrive(ctx);
                ++phase_sum;
            }
        });
    }
    scheduler.run();
    EXPECT_EQ(phase_sum, 10);
}

TEST(RunThreads, HelperReturnsMakespan)
{
    const Cycles makespan = runThreads(
        3, 1, [](ThreadContext& ctx) { ctx.step(100 * (ctx.id() + 1)); });
    EXPECT_EQ(makespan, 300u);
}

// --- Stack pool: warm slots ------------------------------------------

/// Base slot of the range the next scheduler of @p fibers fibers gets:
/// ranges are first-fit, so reserving and releasing one shows it.
unsigned
nextRangeBase(unsigned fibers)
{
    StackPool& pool = StackPool::instance();
    const unsigned base = pool.reserveRange(fibers);
    pool.releaseRange(base, fibers);
    return base;
}

/// Permissions ("rw-p", "---p", ...) of the mapping holding @p addr,
/// as /proc/self/maps lists them; empty if no mapping does.
std::string
mappingPermissions(const void* addr)
{
    const auto target = reinterpret_cast<std::uintptr_t>(addr);
    std::ifstream maps("/proc/self/maps");
    std::string line;
    while (std::getline(maps, line)) {
        unsigned long start = 0;
        unsigned long end = 0;
        char perms[5] = {};
        if (std::sscanf(line.c_str(), "%lx-%lx %4s", &start, &end,
                        perms) == 3 &&
            start <= target && target < end)
            return perms;
    }
    return "";
}

void
runEmptyFibers(unsigned fibers)
{
    Scheduler scheduler;
    for (unsigned f = 0; f < fibers; ++f)
        scheduler.spawn([](ThreadContext& ctx) { ctx.step(1); });
    scheduler.run();
}

TEST(StackPool, SecondShortRunMakesNoCommit)
{
    StackPool& pool = StackPool::instance();
    ASSERT_LE(nextRangeBase(4) + 4, StackPool::warmSlots);
    runEmptyFibers(4);
    const std::uint64_t commits = pool.commitCount();
    const std::size_t committed = pool.committedStackBytes();
    runEmptyFibers(4);
    EXPECT_EQ(pool.commitCount(), commits);
    EXPECT_EQ(pool.committedStackBytes(), committed);
}

TEST(StackPool, SlotsAtOrAboveTheWarmCapDecommitWhenTheirFiberEnds)
{
    constexpr unsigned kFibers = StackPool::warmSlots + 4;
    StackPool& pool = StackPool::instance();
    const unsigned base = nextRangeBase(kFibers);
    ASSERT_LT(base, StackPool::warmSlots);
    // Every fiber but the last finishes at cycle 1; the last one runs
    // on to cycle 100 and records which of their slots still hold a
    // stack.
    std::vector<int> committed(kFibers, -1);
    Scheduler scheduler;
    for (unsigned f = 0; f + 1 < kFibers; ++f)
        scheduler.spawn([](ThreadContext& ctx) { ctx.step(1); });
    scheduler.spawn([&](ThreadContext& ctx) {
        ctx.step(100);
        for (unsigned f = 0; f < kFibers; ++f)
            committed[f] = pool.committed(base + f) ? 1 : 0;
    });
    scheduler.run();

    for (unsigned f = 0; f + 1 < kFibers; ++f) {
        EXPECT_EQ(committed[f], base + f < StackPool::warmSlots ? 1 : 0)
            << "slot " << base + f;
    }
    EXPECT_EQ(committed[kFibers - 1], 1) << "a live fiber's own slot";
    EXPECT_FALSE(pool.committed(base + kFibers - 1))
        << "the last fiber's cold slot once it finished";
}

TEST(StackPool, WarmSlotShrinksAndGrowsInPlace)
{
    constexpr std::size_t kBig = 256 * 1024;
    constexpr std::size_t kSmall = 64 * 1024;
    StackPool& pool = StackPool::instance();
    const unsigned slot = pool.reserveRange(1);
    ASSERT_LT(slot, StackPool::warmSlots);
    const StackSpan big = pool.commit(slot, kBig);
    char* const top = big.base + big.size;
    ASSERT_EQ(big.base, top - kBig);
    big.base[0] = 1; // dirty the bottom page, which the shrink returns
    pool.retire(slot);
    ASSERT_TRUE(pool.committed(slot)) << "a warm slot keeps its stack";

    // Shrinking returns the bottom 192 KiB: the span is the top 64 KiB
    // and the guard starts directly below it.
    const std::uint64_t commits = pool.commitCount();
    const StackSpan small = pool.commit(slot, kSmall);
    EXPECT_EQ(small.base, top - kSmall);
    EXPECT_EQ(small.size, kSmall);
    EXPECT_EQ(pool.commitCount(), commits);
    EXPECT_EQ(mappingPermissions(small.base), "rw-p");
    EXPECT_EQ(mappingPermissions(top - 1), "rw-p");
    EXPECT_EQ(mappingPermissions(small.base - 1), "---p");
    EXPECT_EQ(mappingPermissions(top - kBig), "---p");

    // Growing back makes the missing pages RW again, zero-filled.
    const StackSpan grown = pool.commit(slot, kBig);
    EXPECT_EQ(grown.base, top - kBig);
    EXPECT_EQ(grown.size, kBig);
    EXPECT_EQ(pool.commitCount(), commits + 1);
    EXPECT_EQ(mappingPermissions(grown.base), "rw-p");
    EXPECT_EQ(mappingPermissions(grown.base - 1), "---p");
    EXPECT_EQ(grown.base[0], 0);
    pool.releaseRange(slot, 1);
}

} // namespace
