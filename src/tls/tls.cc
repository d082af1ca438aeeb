#include "tls.hh"

#include <algorithm>

#include "sim/random.hh"

namespace htmsim::tls
{

using htm::AbortCause;
using htm::Runtime;
using htm::Tx;
using sim::Cycles;
using sim::ThreadContext;

TlsParams
TlsParams::milcLike()
{
    TlsParams params;
    params.iterations = 360;
    params.iterWork = 900;
    params.depProb = 0.35;
    params.sharedSlots = 16;
    // Mostly line-exclusive outputs with occasional stragglers (a
    // 112-byte stride on 128-byte lines): the residual false
    // conflicts that suspend/resume cannot remove (83 % -> 10 % in
    // the paper, not zero).
    params.resultStrideWords = 14;
    // 433.milc spends roughly half its time in the TLS loops.
    params.loopFraction = 0.45;
    return params;
}

TlsParams
TlsParams::sphinxLike()
{
    TlsParams params;
    params.iterations = 480;
    params.iterWork = 650;
    params.depProb = 0.03;
    params.sharedSlots = 32;
    params.resultStrideWords = 32; // line-disjoint outputs
    // 482.sphinx3's TLS loops cover ~a quarter of its runtime.
    params.loopFraction = 0.25;
    return params;
}

sim::Ptr<TlsKernel::State>
TlsKernel::makeState()
{
    sim::Rng rng(params_.seed);
    deps_.assign(params_.iterations, -1);
    for (unsigned i = 0; i < params_.iterations; ++i) {
        if (rng.nextBool(params_.depProb))
            deps_[i] = int(rng.nextRange(params_.sharedSlots));
    }
    const std::size_t shared_words =
        std::size_t(params_.sharedSlots) * slotStride;
    const std::size_t result_words =
        std::size_t(params_.iterations) * params_.resultStrideWords;
    auto state = sim::make<State>();
    state->shared.assign(shared_words, 0);
    state->results.assign(result_words, 0);

    // Reference result via untimed ordered execution.
    htm::DirectContext direct;
    for (unsigned i = 0; i < params_.iterations; ++i)
        executeIteration(direct, *state, i);
    reference_.assign(state->results.begin(), state->results.end());

    state->shared.assign(shared_words, 0);
    state->results.assign(result_words, 0);
    return state;
}

Cycles
TlsKernel::serialRegionCycles() const
{
    // Serial region sized so the loop is `loopFraction` of the app.
    const double loop_nominal =
        double(params_.iterations) * double(params_.iterWork + 60);
    const double fraction =
        std::min(1.0, std::max(0.01, params_.loopFraction));
    return Cycles(loop_nominal * (1.0 - fraction) / fraction);
}

Cycles
TlsKernel::runSequential(const htm::MachineConfig& machine,
                         std::uint64_t seed)
{
    sim::RunScope run;
    const sim::Ptr<State> state = makeState();
    sim::Scheduler scheduler(seed);
    Cycles start = 0;
    Cycles finish = 0;
    scheduler.spawn([&](ThreadContext& ctx) {
        htm::SeqContext seq(ctx, machine);
        start = ctx.now();
        ctx.advance(serialRegionCycles());
        for (unsigned i = 0; i < params_.iterations; ++i)
            executeIteration(seq, *state, i);
        finish = ctx.now();
    });
    scheduler.run();
    return finish - start;
}

void
TlsKernel::tlsWorker(Runtime& runtime, ThreadContext& ctx, State& state,
                     unsigned threads, bool use_suspend_resume)
{
    std::uint64_t* next_iter = &state.nextIterToCommit;
    for (unsigned i = ctx.id(); i < params_.iterations; i += threads) {
        for (;;) {
            if (runtime.nonTxLoad(ctx, next_iter) == i) {
                // Our turn already: run non-speculatively.
                runtime.runNonSpeculative(ctx, [&](Tx& tx) {
                    executeIteration(tx, state, i);
                });
                runtime.nonTxStore(ctx, next_iter, std::uint64_t(i) + 1);
                break;
            }

            static const htm::TxSiteId specSite =
                htm::txSite("tls.speculativeIteration");
            const AbortCause cause =
                runtime.tryOnce(ctx, specSite, [&](Tx& tx) {
                executeIteration(tx, state, i);
                if (use_suspend_resume) {
                    // Figure 8(b), light grey: wait for our turn
                    // outside transactional tracking.
                    tx.suspend();
                    ctx.spinUntil([&] { return *next_iter == i; }, 30);
                    tx.resume();
                } else {
                    // Figure 8(b), dark grey: abort until our turn.
                    if (tx.load(next_iter) != i)
                        tx.abortTx();
                }
                tx.store(next_iter, std::uint64_t(i) + 1);
            });
            if (cause == AbortCause::none)
                break;
            ctx.step(50); // abort recovery before re-speculating
        }
    }
}

TlsResult
TlsKernel::runTls(const htm::RuntimeConfig& config, unsigned threads,
                  bool use_suspend_resume, std::uint64_t seed)
{
    if (use_suspend_resume && !config.machine.hasSuspendResume) {
        throw std::logic_error(
            "suspend/resume TLS needs POWER8-style support");
    }
    sim::RunScope run;
    const sim::Ptr<State> state = makeState();
    sim::Scheduler scheduler(seed);
    Runtime runtime(config, threads);
    sim::Barrier barrier(threads);
    Cycles start = 0;
    Cycles finish = 0;
    for (unsigned t = 0; t < threads; ++t) {
        scheduler.spawn([&, threads](ThreadContext& ctx) {
            ctx.setTimeScale(config.machine.threadTimeScale(
                ctx.id(), threads));
            barrier.arrive(ctx);
            if (ctx.id() == 0) {
                start = ctx.now();
                ctx.advance(serialRegionCycles()); // Amdahl region
            }
            barrier.arrive(ctx);
            tlsWorker(runtime, ctx, *state, threads, use_suspend_resume);
            barrier.arrive(ctx);
            if (ctx.id() == 0)
                finish = ctx.now();
        });
    }
    scheduler.run();

    TlsResult result;
    result.cycles = finish - start;
    result.stats = runtime.stats();
    result.abortRatio = result.stats.abortRatio();
    result.valid = std::equal(state->results.begin(),
                              state->results.end(), reference_.begin(),
                              reference_.end()) &&
                   state->nextIterToCommit == params_.iterations;
    return result;
}

} // namespace htmsim::tls
