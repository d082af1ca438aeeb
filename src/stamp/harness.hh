/**
 * @file
 * Measurement harness for STAMP runs.
 *
 * Mirrors the paper's methodology: setup and verification are untimed;
 * the timed region is the parallel phase between two barriers. The
 * speed-up ratio of a configuration is the sequential baseline's
 * virtual time divided by the transactional run's virtual time on the
 * same machine model.
 */

#ifndef HTMSIM_STAMP_HARNESS_HH
#define HTMSIM_STAMP_HARNESS_HH

#include <cstdint>

#include "exec.hh"
#include "htm/runtime.hh"
#include "sim/region.hh"
#include "sim/sim.hh"

namespace htmsim::stamp
{

/** Outcome of one timed run. */
struct RunResult
{
    /** Virtual cycles spent in the timed parallel region. */
    sim::Cycles cycles = 0;
    /** Aggregated transaction statistics (empty for baseline runs). */
    htm::TxStats stats;
    /** Application self-check outcome. */
    bool valid = false;
    /** Per-transaction footprints (when tracing was enabled). */
    htm::TraceCollector trace;
};

/**
 * Run an app transactionally on @p threads simulated threads, in one
 * run of the simulated heap (sim/region.hh). @p app must be freshly
 * constructed: simulated state kept from an earlier run belongs to
 * that run's region.
 *
 * App concept:
 *   void setup();                         // untimed, host speed
 *   template <typename Exec> void worker(Exec&); // timed region
 *   bool verify();                        // untimed, host speed
 */
template <typename App>
RunResult
runTransactional(App& app, const htm::RuntimeConfig& config,
                 unsigned threads, std::uint64_t seed)
{
    sim::RunScope run;
    app.setup();
    sim::Scheduler scheduler(seed);
    scheduler.setBatching(config.batchEpoch);
    htm::Runtime runtime(config, threads);
    sim::Barrier barrier(threads);
    sim::Cycles start = 0;
    sim::Cycles finish = 0;
    for (unsigned t = 0; t < threads; ++t) {
        scheduler.spawn([&](sim::ThreadContext& ctx) {
            ctx.setTimeScale(config.machine.threadTimeScale(
                ctx.id(), threads));
            TmExec exec(runtime, ctx, barrier, threads);
            barrier.arrive(ctx);
            if (ctx.id() == 0)
                start = ctx.now();
            app.worker(exec);
            barrier.arrive(ctx);
            if (ctx.id() == 0)
                finish = ctx.now();
        });
    }
    scheduler.run();

    RunResult result;
    result.cycles = finish - start;
    result.stats = runtime.stats();
    result.valid = app.verify();
    if (config.collectTrace)
        result.trace = runtime.trace();
    return result;
}

/** Run the sequential non-HTM baseline of an app, in one run of the
 *  simulated heap. */
template <typename App>
RunResult
runSequential(App& app, const htm::MachineConfig& machine,
              std::uint64_t seed, bool batch_epoch = true)
{
    sim::RunScope run;
    app.setup();
    sim::Scheduler scheduler(seed);
    scheduler.setBatching(batch_epoch);
    sim::Cycles start = 0;
    sim::Cycles finish = 0;
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        SeqExec exec(ctx, machine);
        start = ctx.now();
        app.worker(exec);
        finish = ctx.now();
    });
    scheduler.run();

    RunResult result;
    result.cycles = finish - start;
    result.valid = app.verify();
    return result;
}

/** Speed-up of a transactional run over the sequential baseline. */
struct Speedup
{
    double ratio = 0.0;
    RunResult tm;
    RunResult seq;
};

/**
 * Measure the speed-up for one (machine, app, threads) cell over
 * @p seq, the app's sequential run on the same machine and seed. The
 * factory must return a freshly constructed app.
 */
template <typename AppFactory>
Speedup
measureSpeedup(AppFactory&& make_app, const htm::RuntimeConfig& config,
               unsigned threads, const RunResult& seq,
               std::uint64_t seed = 1)
{
    Speedup result;
    result.seq = seq;
    {
        auto app = make_app();
        result.tm = runTransactional(app, config, threads, seed);
    }
    result.ratio = result.tm.cycles == 0
                       ? 0.0
                       : double(result.seq.cycles) /
                             double(result.tm.cycles);
    return result;
}

} // namespace htmsim::stamp

#endif // HTMSIM_STAMP_HARNESS_HH
