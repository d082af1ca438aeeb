/**
 * @file
 * Per-thread executors for STAMP kernels.
 *
 * A kernel is written once as `template <typename Exec> void
 * worker(Exec&)` and instantiated twice: TmExec runs atomic sections
 * through the HTM runtime, under whichever backend its config names
 * (backend.hh); SeqExec runs them inline with ordinary timed accesses
 * — the paper's sequential non-HTM baseline.
 */

#ifndef HTMSIM_STAMP_EXEC_HH
#define HTMSIM_STAMP_EXEC_HH

#include "htm/context.hh"
#include "htm/runtime.hh"
#include "sim/sim.hh"

namespace htmsim::stamp
{

/** Transactional executor: atomic sections become HTM transactions. */
class TmExec
{
  public:
    TmExec(htm::Runtime& runtime, sim::ThreadContext& ctx,
           sim::Barrier& barrier, unsigned num_threads)
        : runtime_(&runtime), ctx_(&ctx), barrier_(&barrier),
          numThreads_(num_threads)
    {
    }

    /** Execute @p body atomically (Runtime::atomic). */
    template <typename F>
    void
    atomic(F&& body)
    {
        runtime_->atomic(*ctx_, std::forward<F>(body));
    }

    /** atomic() tagged with a static site id (txprof attribution). */
    template <typename F>
    void
    atomic(htm::TxSiteId site, F&& body)
    {
        runtime_->atomic(*ctx_, site, std::forward<F>(body));
    }

    /** Rendezvous with all worker threads. */
    void barrier() { barrier_->arrive(*ctx_); }

    /** Non-transactional compute time. */
    void work(sim::Cycles cycles) { ctx_->step(cycles); }

    template <typename T>
    T
    sharedLoad(const T* addr)
    {
        return runtime_->nonTxLoad(*ctx_, addr);
    }

    template <typename T>
    T
    fetchAdd(T* addr, T delta)
    {
        return runtime_->nonTxFetchAdd(*ctx_, addr, delta);
    }

    unsigned tid() const { return ctx_->id(); }
    unsigned numThreads() const { return numThreads_; }
    sim::Rng& rng() { return ctx_->rng(); }

  private:
    htm::Runtime* runtime_;
    sim::ThreadContext* ctx_;
    sim::Barrier* barrier_;
    unsigned numThreads_;
};

/** Sequential baseline executor: atomic sections run inline. */
class SeqExec
{
  public:
    SeqExec(sim::ThreadContext& ctx, const htm::MachineConfig& machine)
        : ctx_(&ctx), seq_(ctx, machine)
    {
    }

    template <typename F>
    void
    atomic(F&& body)
    {
        body(seq_);
    }

    /** Site ids are a profiling concept; sequential runs ignore them. */
    template <typename F>
    void
    atomic(htm::TxSiteId, F&& body)
    {
        body(seq_);
    }

    void barrier() {}
    void work(sim::Cycles cycles) { ctx_->advance(cycles); }

    template <typename T>
    T
    sharedLoad(const T* addr)
    {
        return seq_.load(addr);
    }

    template <typename T>
    T
    fetchAdd(T* addr, T delta)
    {
        const T previous = seq_.load(addr);
        seq_.store(addr, T(previous + delta));
        return previous;
    }

    unsigned tid() const { return 0; }
    unsigned numThreads() const { return 1; }
    sim::Rng& rng() { return ctx_->rng(); }

  private:
    sim::ThreadContext* ctx_;
    htm::SeqContext seq_;
};

} // namespace htmsim::stamp

#endif // HTMSIM_STAMP_EXEC_HH
