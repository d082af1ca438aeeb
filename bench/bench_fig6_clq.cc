/**
 * @file
 * Figure 6: relative execution time of TM variants of the concurrent
 * linked queue versus the lock-free baseline, on zEC12 with 1-16
 * threads. Each thread alternately enqueues and dequeues.
 *
 * Variants: NoRetryTM (single attempt, then lock-free fallback),
 * OptRetryTM (tuned retry count), ConstrainedTM (zEC12 constrained
 * transactions — guaranteed commit, no handler).
 */

#include <cstdio>

#include "clq/concurrent_queue.hh"
#include "sim/region.hh"
#include "sim/sim.hh"

using namespace htmsim;
using namespace htmsim::clq;
using htm::MachineConfig;
using htm::RuntimeConfig;

namespace
{

sim::Cycles
runQueue(QueueMode mode, unsigned threads, int retries,
         std::uint64_t seed)
{
    RuntimeConfig config{MachineConfig::zEC12()};
    sim::RunScope run;
    sim::Scheduler scheduler(seed);
    htm::Runtime runtime(config, threads);
    const auto queue = sim::make<ConcurrentQueue>();
    sim::Barrier barrier(threads);
    sim::Cycles start = 0;
    sim::Cycles finish = 0;
    constexpr unsigned total_pairs = 1600;

    for (unsigned t = 0; t < threads; ++t) {
        scheduler.spawn([&, threads](sim::ThreadContext& ctx) {
            const unsigned share = total_pairs / threads;
            barrier.arrive(ctx);
            if (ctx.id() == 0)
                start = ctx.now();
            for (unsigned i = 0; i < share; ++i) {
                queue->enqueue(runtime, ctx, ctx.id() * 1000 + i, mode,
                               retries);
                std::uint64_t out = 0;
                queue->dequeue(runtime, ctx, &out, mode, retries);
            }
            barrier.arrive(ctx);
            if (ctx.id() == 0)
                finish = ctx.now();
        });
    }
    scheduler.run();
    return finish - start;
}

} // namespace

int
main()
{
    std::printf("Figure 6: ConcurrentLinkedQueue on zEC12 — execution "
                "time relative to the\nlock-free baseline (lower is "
                "better)\n");
    std::printf("%-8s %12s %12s %14s\n", "threads", "NoRetryTM",
                "OptRetryTM", "ConstrainedTM");

    for (const unsigned threads : {1u, 2u, 4u, 8u, 16u}) {
        const sim::Cycles base =
            runQueue(QueueMode::lockFree, threads, 0, 1);

        const sim::Cycles no_retry =
            runQueue(QueueMode::noRetryTm, threads, 1, 1);

        // OptRetryTM: pick the best retry count (the paper tunes it).
        sim::Cycles opt_retry = ~sim::Cycles(0);
        for (const int retries : {2, 4, 8, 16}) {
            opt_retry = std::min(
                opt_retry,
                runQueue(QueueMode::optRetryTm, threads, retries, 1));
        }

        const sim::Cycles constrained =
            runQueue(QueueMode::constrainedTm, threads, 0, 1);

        std::printf("%-8u %12.2f %12.2f %14.2f\n", threads,
                    double(no_retry) / double(base),
                    double(opt_retry) / double(base),
                    double(constrained) / double(base));
    }
    std::printf(
        "\nPaper shape: TM variants beat the lock-free baseline below "
        "~4 threads\n(shorter path); NoRetryTM degrades beyond 2 "
        "threads; ConstrainedTM tracks\nOptRetryTM without any "
        "fallback code or tuning.\n");
    return 0;
}
