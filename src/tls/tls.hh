/**
 * @file
 * Thread-Level Speculation on HTM (paper Sections 2.4, 6.3).
 *
 * A loop's iterations run speculatively on multiple threads but must
 * commit in order. The commit order is enforced through a shared
 * NextIterToCommit word. Two variants, as in the paper's Figure 8:
 *
 *  - without suspend/resume: the transaction reads the order word
 *    transactionally and aborts until its turn comes — every
 *    predecessor commit aborts all waiting successors;
 *  - with suspend/resume (POWER8): the transaction suspends, spins on
 *    the order word outside transactional tracking, and resumes —
 *    only true data dependences abort.
 *
 * The two kernels mirror the paper's SPEC CPU2006 subjects: milc-like
 * (heavier iterations, frequent cross-iteration touches) and
 * sphinx3-like (rare dependences, where suspend/resume cuts the abort
 * ratio from ~69 % to ~0.1 %).
 */

#ifndef HTMSIM_TLS_TLS_HH
#define HTMSIM_TLS_TLS_HH

#include <cstdint>
#include <vector>

#include "htm/context.hh"
#include "htm/runtime.hh"
#include "sim/region.hh"
#include "sim/sim.hh"

namespace htmsim::tls
{

struct TlsParams
{
    unsigned iterations = 480;
    sim::Cycles iterWork = 700;
    /** Shared accumulator slots touched by dependent iterations. */
    unsigned sharedSlots = 32;
    /** Probability an iteration reads+writes a shared slot. */
    double depProb = 0.05;
    /** Words between consecutive iterations' private outputs. A
     *  small stride packs several iterations into one cache line,
     *  reproducing milc's residual false conflicts; a full-line
     *  stride (16 words) keeps outputs conflict-free like sphinx3. */
    unsigned resultStrideWords = 16;
    /** Fraction of the whole application spent in the TLS loop; the
     *  rest is a serial region (Amdahl), so overall speed-ups match
     *  the paper's whole-program Figure 9 axis. */
    double loopFraction = 1.0;
    std::uint64_t seed = 2014;

    /** 433.milc-like: heavy iterations, frequent shared touches. */
    static TlsParams milcLike();
    /** 482.sphinx3-like: rare dependences. */
    static TlsParams sphinxLike();
};

/** Outcome of one TLS run. */
struct TlsResult
{
    sim::Cycles cycles = 0;
    htm::TxStats stats;
    bool valid = false;
    double abortRatio = 0.0;
};

/**
 * The parallelized loop kernel. Each iteration combines private
 * output with an optional read-modify-write of one shared slot; the
 * dependence pattern is fixed at setup so ordered execution must
 * reproduce the sequential result bit-for-bit.
 */
class TlsKernel
{
  public:
    explicit TlsKernel(TlsParams params) : params_(params) {}

    /** Sequential reference execution (also the timed baseline). */
    sim::Cycles runSequential(const htm::MachineConfig& machine,
                              std::uint64_t seed);

    /** TLS execution on @p threads simulated threads. */
    TlsResult runTls(const htm::RuntimeConfig& config, unsigned threads,
                     bool use_suspend_resume, std::uint64_t seed);

  private:
    /** One run's simulated state, built in the run's region. */
    struct State
    {
        sim::Vector<std::uint64_t> shared;
        sim::Vector<std::uint64_t> results;
        alignas(sim::regionLineBytes) std::uint64_t nextIterToCommit = 0;
    };

    /** Fresh state for a run (and the reference results). */
    sim::Ptr<State> makeState();

    /** The iteration body, written once against the context. */
    template <typename Ctx>
    void
    executeIteration(Ctx& c, State& state, unsigned i)
    {
        c.work(params_.iterWork);
        std::uint64_t value =
            std::uint64_t(i) * 0x9e3779b97f4a7c15ULL;
        const int dep = deps_[i];
        if (dep >= 0) {
            std::uint64_t* slot =
                &state.shared[unsigned(dep) * slotStride];
            const std::uint64_t shared_value = c.load(slot);
            value ^= shared_value;
            c.store(slot, shared_value + i + 1);
        }
        c.store(
            &state.results[std::size_t(i) * params_.resultStrideWords],
            value);
    }

    /** Whole-loop driver for one TLS worker thread. */
    void tlsWorker(htm::Runtime& runtime, sim::ThreadContext& ctx,
                   State& state, unsigned threads,
                   bool use_suspend_resume);

    /** Cycles of the serial (non-TLS) application region. */
    sim::Cycles serialRegionCycles() const;

    /** One slot per 256-byte line so only true dependences collide. */
    static constexpr unsigned slotStride = 32;

    TlsParams params_;
    std::vector<int> deps_;
    std::vector<std::uint64_t> reference_;
};

} // namespace htmsim::tls

#endif // HTMSIM_TLS_TLS_HH
