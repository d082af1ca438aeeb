/**
 * @file
 * Tests for the TM data-structure library: sequential correctness via
 * DirectContext (including randomized red-black invariant checks) and
 * concurrent linearizability-style checks under the HTM runtime on all
 * four machines.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "htm/context.hh"
#include "htm/runtime.hh"
#include "sim/sim.hh"
#include "tmds/tm_bitmap.hh"
#include "tmds/tm_hashtable.hh"
#include "tmds/tm_heap.hh"
#include "tmds/tm_list.hh"
#include "tmds/tm_queue.hh"
#include "tmds/tm_rbtree.hh"

namespace
{

using namespace htmsim;
using namespace htmsim::htm;
using namespace htmsim::tmds;

RuntimeConfig
quietConfig(MachineConfig machine)
{
    machine.cacheFetchAbortProb = 0.0;
    machine.prefetchConflictProb = 0.0;
    return RuntimeConfig(std::move(machine));
}

// ------------------------------------------------------------------
// Sequential (DirectContext) behaviour
// ------------------------------------------------------------------

TEST(TmListSeq, SortedUniqueInsertFindRemove)
{
    DirectContext c;
    TmList<> list;
    EXPECT_TRUE(list.insert(c, 5, 50));
    EXPECT_TRUE(list.insert(c, 1, 10));
    EXPECT_TRUE(list.insert(c, 9, 90));
    EXPECT_FALSE(list.insert(c, 5, 55)) << "duplicate must fail";
    EXPECT_EQ(list.size(c), 3u);

    std::uint64_t value = 0;
    EXPECT_TRUE(list.find(c, 5, &value));
    EXPECT_EQ(value, 50u);
    EXPECT_FALSE(list.find(c, 2));

    std::vector<std::uint64_t> keys;
    list.forEach(c, [&](std::uint64_t k, std::uint64_t) {
        keys.push_back(k);
    });
    EXPECT_EQ(keys, (std::vector<std::uint64_t>{1, 5, 9}));

    EXPECT_TRUE(list.remove(c, 5));
    EXPECT_FALSE(list.remove(c, 5));
    EXPECT_EQ(list.size(c), 2u);
    EXPECT_FALSE(list.find(c, 5));
}

TEST(TmListSeq, PopFrontDrains)
{
    DirectContext c;
    TmList<> list;
    for (std::uint64_t k : {7, 3, 11, 1})
        list.insert(c, k, k * 2);
    std::uint64_t key = 0, value = 0;
    std::vector<std::uint64_t> order;
    while (list.popFront(c, &key, &value)) {
        order.push_back(key);
        EXPECT_EQ(value, key * 2);
    }
    EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 3, 7, 11}));
    EXPECT_TRUE(list.empty(c));
}

TEST(TmQueueSeq, FifoWithGrowth)
{
    DirectContext c;
    TmQueue queue(2); // forces repeated growth
    for (std::uint64_t i = 0; i < 100; ++i)
        queue.push(c, i);
    EXPECT_EQ(queue.size(c), 100u);
    for (std::uint64_t i = 0; i < 100; ++i) {
        std::uint64_t out = 0;
        ASSERT_TRUE(queue.pop(c, &out));
        EXPECT_EQ(out, i);
    }
    EXPECT_TRUE(queue.empty(c));
    EXPECT_FALSE(queue.pop(c, nullptr));
}

TEST(TmQueueSeq, InterleavedPushPopWrapsAround)
{
    DirectContext c;
    TmQueue queue(4);
    std::uint64_t next_push = 0, next_pop = 0;
    sim::Rng rng(3);
    for (int step = 0; step < 1000; ++step) {
        if (rng.nextBool(0.6) || next_push == next_pop) {
            queue.push(c, next_push++);
        } else {
            std::uint64_t out = 0;
            ASSERT_TRUE(queue.pop(c, &out));
            EXPECT_EQ(out, next_pop++);
        }
    }
    while (next_pop < next_push) {
        std::uint64_t out = 0;
        ASSERT_TRUE(queue.pop(c, &out));
        EXPECT_EQ(out, next_pop++);
    }
}

struct MaxCompare
{
    template <typename Ctx>
    static int
    compare(Ctx&, std::uint64_t a, std::uint64_t b)
    {
        return a < b ? -1 : (a > b ? 1 : 0);
    }
};

TEST(TmHeapSeq, ExtractsInPriorityOrder)
{
    DirectContext c;
    TmHeap<MaxCompare> heap(2);
    sim::Rng rng(11);
    std::vector<std::uint64_t> values;
    for (int i = 0; i < 300; ++i) {
        const std::uint64_t v = rng.nextRange(10000);
        values.push_back(v);
        heap.insert(c, v);
    }
    std::sort(values.rbegin(), values.rend());
    for (std::uint64_t expected : values) {
        std::uint64_t out = 0;
        ASSERT_TRUE(heap.popMax(c, &out));
        EXPECT_EQ(out, expected);
    }
    EXPECT_TRUE(heap.empty(c));
}

TEST(TmBitmapSeq, SetClearCount)
{
    DirectContext c;
    TmBitmap bitmap(200);
    EXPECT_TRUE(bitmap.set(c, 0));
    EXPECT_TRUE(bitmap.set(c, 63));
    EXPECT_TRUE(bitmap.set(c, 64));
    EXPECT_TRUE(bitmap.set(c, 199));
    EXPECT_FALSE(bitmap.set(c, 63)) << "double set must fail";
    EXPECT_EQ(bitmap.countSet(), 4u);
    EXPECT_TRUE(bitmap.isSet(c, 64));
    EXPECT_FALSE(bitmap.isSet(c, 65));
    EXPECT_TRUE(bitmap.clear(c, 64));
    EXPECT_FALSE(bitmap.clear(c, 64));
    EXPECT_EQ(bitmap.countSet(), 3u);
}

TEST(TmHashTableSeq, InsertFindRemoveUpdate)
{
    DirectContext c;
    TmHashTable<> table(64);
    for (std::uint64_t k = 0; k < 500; ++k)
        EXPECT_TRUE(table.insert(c, k * 7919, k));
    EXPECT_EQ(table.size(c), 500u);
    EXPECT_FALSE(table.insert(c, 0, 42)) << "duplicate must fail";

    std::uint64_t value = 0;
    EXPECT_TRUE(table.find(c, 499 * 7919, &value));
    EXPECT_EQ(value, 499u);
    EXPECT_FALSE(table.find(c, 123456789));

    EXPECT_TRUE(table.update(c, 3 * 7919, 999));
    EXPECT_TRUE(table.find(c, 3 * 7919, &value));
    EXPECT_EQ(value, 999u);

    for (std::uint64_t k = 0; k < 250; ++k)
        EXPECT_TRUE(table.remove(c, k * 7919));
    EXPECT_FALSE(table.remove(c, 0));
    EXPECT_EQ(table.size(c), 250u);

    std::size_t visited = 0;
    table.forEach(c, [&](std::uint64_t, std::uint64_t) { ++visited; });
    EXPECT_EQ(visited, 250u);
}

TEST(TmRbTreeSeq, RandomizedOpsKeepInvariantsAndAgreeWithStdMap)
{
    DirectContext c;
    TmRbTree tree;
    std::map<std::uint64_t, std::uint64_t> model;
    sim::Rng rng(5);

    for (int step = 0; step < 4000; ++step) {
        const std::uint64_t key = rng.nextRange(600);
        const int op = int(rng.nextRange(3));
        if (op == 0) {
            const bool inserted = tree.insert(c, key, key * 3);
            EXPECT_EQ(inserted, model.emplace(key, key * 3).second);
        } else if (op == 1) {
            const bool removed = tree.remove(c, key);
            EXPECT_EQ(removed, model.erase(key) == 1);
        } else {
            std::uint64_t value = 0;
            const bool found = tree.find(c, key, &value);
            const auto it = model.find(key);
            EXPECT_EQ(found, it != model.end());
            if (found) {
                EXPECT_EQ(value, it->second);
            }
        }
        if (step % 64 == 0) {
            ASSERT_GE(tree.checkInvariants(), 0)
                << "red-black invariant violated at step " << step;
        }
    }
    ASSERT_GE(tree.checkInvariants(), 0);
    EXPECT_EQ(tree.size(c), model.size());

    std::vector<std::uint64_t> tree_keys;
    tree.forEach(c, [&](std::uint64_t k, std::uint64_t) {
        tree_keys.push_back(k);
    });
    std::vector<std::uint64_t> model_keys;
    for (const auto& [k, v] : model)
        model_keys.push_back(k);
    EXPECT_EQ(tree_keys, model_keys);
}

TEST(TmRbTreeSeq, CeilingQueries)
{
    DirectContext c;
    TmRbTree tree;
    for (std::uint64_t k : {10, 20, 30, 40})
        tree.insert(c, k, k);
    std::uint64_t key = 0;
    EXPECT_TRUE(tree.findCeiling(c, 15, &key));
    EXPECT_EQ(key, 20u);
    EXPECT_TRUE(tree.findCeiling(c, 20, &key));
    EXPECT_EQ(key, 20u);
    EXPECT_TRUE(tree.findCeiling(c, 1, &key));
    EXPECT_EQ(key, 10u);
    EXPECT_FALSE(tree.findCeiling(c, 41, &key));
}

// ------------------------------------------------------------------
// Concurrent behaviour under the HTM runtime, on all four machines
// ------------------------------------------------------------------

class TmdsConcurrent
    : public ::testing::TestWithParam<unsigned>
{
  protected:
    const MachineConfig& machine() const
    {
        return MachineConfig::all()[GetParam()];
    }
};

TEST_P(TmdsConcurrent, HashTableDisjointInserts)
{
    sim::Scheduler scheduler;
    Runtime runtime(quietConfig(machine()), 4);
    TmHashTable<> table(256);
    constexpr std::uint64_t per_thread = 200;
    for (unsigned t = 0; t < 4; ++t) {
        scheduler.spawn([&, t](sim::ThreadContext& ctx) {
            for (std::uint64_t i = 0; i < per_thread; ++i) {
                const std::uint64_t key = t * per_thread + i;
                runtime.atomic(ctx, [&](Tx& tx) {
                    table.insert(tx, key, key + 1);
                });
            }
        });
    }
    scheduler.run();
    DirectContext c;
    EXPECT_EQ(table.size(c), 4 * per_thread);
    for (std::uint64_t key = 0; key < 4 * per_thread; ++key) {
        std::uint64_t value = 0;
        ASSERT_TRUE(table.find(c, key, &value)) << "key " << key;
        EXPECT_EQ(value, key + 1);
    }
}

TEST_P(TmdsConcurrent, HashTableContendedMixedOps)
{
    sim::Scheduler scheduler;
    Runtime runtime(quietConfig(machine()), 4);
    TmHashTable<> table(32);
    // Pre-populate.
    DirectContext direct;
    for (std::uint64_t k = 0; k < 50; ++k)
        table.insert(direct, k, 0);

    std::array<std::int64_t, 4> net_inserts{};
    for (unsigned t = 0; t < 4; ++t) {
        scheduler.spawn([&, t](sim::ThreadContext& ctx) {
            for (int i = 0; i < 150; ++i) {
                const std::uint64_t key = ctx.rng().nextRange(100);
                const bool do_insert = ctx.rng().nextBool(0.5);
                // Record the outcome idempotently: the body may run
                // several times (retries), so it must only overwrite.
                bool changed = false;
                runtime.atomic(ctx, [&](Tx& tx) {
                    changed = do_insert ? table.insert(tx, key, key)
                                        : table.remove(tx, key);
                });
                if (changed)
                    net_inserts[t] += do_insert ? 1 : -1;
            }
        });
    }
    scheduler.run();
    const std::int64_t net = net_inserts[0] + net_inserts[1] +
                             net_inserts[2] + net_inserts[3];
    EXPECT_EQ(std::int64_t(table.size(direct)), 50 + net);
}

TEST_P(TmdsConcurrent, RbTreeContendedMixedOpsKeepInvariants)
{
    sim::Scheduler scheduler;
    Runtime runtime(quietConfig(machine()), 4);
    TmRbTree tree;
    DirectContext direct;
    for (std::uint64_t k = 0; k < 100; k += 2)
        tree.insert(direct, k, k);

    for (unsigned t = 0; t < 4; ++t) {
        scheduler.spawn([&](sim::ThreadContext& ctx) {
            for (int i = 0; i < 120; ++i) {
                const std::uint64_t key = ctx.rng().nextRange(150);
                const bool do_insert = ctx.rng().nextBool(0.5);
                runtime.atomic(ctx, [&](Tx& tx) {
                    if (do_insert)
                        tree.insert(tx, key, key);
                    else
                        tree.remove(tx, key);
                });
            }
        });
    }
    scheduler.run();
    EXPECT_GE(tree.checkInvariants(), 0);
}

TEST_P(TmdsConcurrent, QueueProducersConsumers)
{
    sim::Scheduler scheduler;
    Runtime runtime(quietConfig(machine()), 4);
    TmQueue queue(16);
    constexpr std::uint64_t items_per_producer = 150;
    std::vector<std::uint64_t> consumed;
    std::uint64_t producers_done = 0;

    for (unsigned t = 0; t < 2; ++t) {
        scheduler.spawn([&, t](sim::ThreadContext& ctx) {
            for (std::uint64_t i = 0; i < items_per_producer; ++i) {
                const std::uint64_t item =
                    t * items_per_producer + i + 1;
                runtime.atomic(ctx, [&](Tx& tx) {
                    queue.push(tx, item);
                });
            }
            runtime.nonTxFetchAdd(ctx, &producers_done,
                                  std::uint64_t(1));
        });
    }
    for (unsigned t = 0; t < 2; ++t) {
        scheduler.spawn([&](sim::ThreadContext& ctx) {
            for (;;) {
                std::uint64_t item = 0;
                bool got = false;
                runtime.atomic(ctx, [&](Tx& tx) {
                    got = queue.pop(tx, &item);
                });
                if (got) {
                    consumed.push_back(item);
                } else if (runtime.nonTxLoad(ctx, &producers_done) ==
                           2) {
                    break;
                } else {
                    ctx.step(200);
                }
            }
        });
    }
    scheduler.run();
    EXPECT_EQ(consumed.size(), 2 * items_per_producer);
    std::sort(consumed.begin(), consumed.end());
    EXPECT_TRUE(std::adjacent_find(consumed.begin(), consumed.end()) ==
                consumed.end())
        << "duplicate consumption";
}

TEST_P(TmdsConcurrent, HeapConcurrentInsertPop)
{
    sim::Scheduler scheduler;
    Runtime runtime(quietConfig(machine()), 4);
    TmHeap<MaxCompare> heap(16);
    std::uint64_t popped_count = 0;
    constexpr int per_thread = 80;

    for (unsigned t = 0; t < 4; ++t) {
        scheduler.spawn([&](sim::ThreadContext& ctx) {
            for (int i = 0; i < per_thread; ++i) {
                const std::uint64_t v = 1 + ctx.rng().nextRange(1000);
                runtime.atomic(ctx, [&](Tx& tx) {
                    heap.insert(tx, v);
                });
                if (i % 2 == 1) {
                    bool popped = false;
                    runtime.atomic(ctx, [&](Tx& tx) {
                        std::uint64_t out = 0;
                        popped = heap.popMax(tx, &out);
                    });
                    if (popped)
                        ++popped_count;
                }
            }
        });
    }
    scheduler.run();
    DirectContext c;
    EXPECT_EQ(heap.size(c) + popped_count, 4u * per_thread);
    // Remaining elements still drain in priority order.
    std::uint64_t previous = ~std::uint64_t(0);
    std::uint64_t out = 0;
    while (heap.popMax(c, &out)) {
        EXPECT_LE(out, previous);
        previous = out;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllMachines, TmdsConcurrent, ::testing::Range(0u, 4u),
    [](const ::testing::TestParamInfo<unsigned>& info) {
        switch (info.param) {
          case 0: return "BlueGeneQ";
          case 1: return "zEC12";
          case 2: return "IntelCore";
          default: return "POWER8";
        }
    });

} // namespace
