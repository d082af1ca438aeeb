#include "probes.hh"

#include <algorithm>
#include <cstdint>

#include "htm/runtime.hh"
#include "sim/sim.hh"
#include "trace.hh"

namespace htmsim::perfbench
{

namespace
{

/** Timed batches per probe; each probe reports their median. */
constexpr int batches = 7;
/** Untimed calls before each timed batch. */
constexpr unsigned warmCalls = 64;

double
median(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    const std::size_t mid = samples.size() / 2;
    return samples.size() % 2 == 1
               ? samples[mid]
               : (samples[mid - 1] + samples[mid]) / 2.0;
}

htm::RuntimeConfig
intelConfig()
{
    return htm::RuntimeConfig(htm::MachineConfig::intelCore());
}

htm::RuntimeConfig
stmOnlyConfig()
{
    htm::RuntimeConfig config = intelConfig();
    config.backend = htm::BackendKind::hybrid;
    config.hybrid.stmOnly = true;
    return config;
}

/**
 * Host ns per call of @p op(runtime, ctx): each batch builds a fresh
 * one-thread Runtime, warms it, then times @p calls calls inside one
 * fiber. @p check(runtime) validates the path taken after each batch.
 */
template <typename Op, typename Check>
double
perCallNs(const htm::RuntimeConfig& config, unsigned calls, Op&& op,
          Check&& check, bool& ok)
{
    std::vector<double> samples;
    for (int b = 0; b < batches; ++b) {
        sim::Scheduler scheduler(1);
        htm::Runtime runtime(config, 1);
        double ns = 0.0;
        scheduler.spawn([&](sim::ThreadContext& ctx) {
            for (unsigned i = 0; i < warmCalls; ++i)
                op(runtime, ctx);
            const std::int64_t start = hostNs();
            for (unsigned i = 0; i < calls; ++i)
                op(runtime, ctx);
            ns = double(hostNs() - start) / double(calls);
        });
        scheduler.run();
        ok = ok && check(runtime.stats(), warmCalls + calls);
        samples.push_back(ns);
    }
    return median(samples);
}

/** Lines padded past every machine's conflict and capacity line. */
struct alignas(256) PaddedLine
{
    std::uint64_t word = 1;
};

/** Empty-body transactions committed in hardware, every one. */
bool
allHtmCommits(const htm::TxStats& stats, unsigned calls)
{
    return stats.htmCommits == calls && stats.totalAborts() == 0;
}

bool
allStmCommits(const htm::TxStats& stats, unsigned calls)
{
    return stats.stmCommits == calls;
}

class CountingObserver final : public htm::TxObserver
{
  public:
    void onEvent(const htm::TxEvent&) override { ++events; }
    std::uint64_t events = 0;
};

} // namespace

ProbeResults
runProbes()
{
    ProbeResults results;
    bool& ok = results.ok;
    auto add = [&results](const char* name, double value) {
        results.values.emplace_back(name, value);
    };
    std::uint64_t sink = 0;

    // ---- htm: begin/commit, per-access bookkeeping -------------------
    const auto empty_commit = [](htm::Runtime& runtime,
                                 sim::ThreadContext& ctx) {
        runtime.atomic(ctx, [](htm::Tx&) {});
    };
    const double empty_ns =
        perCallNs(intelConfig(), 20000, empty_commit, allHtmCommits, ok);
    add("htm.empty_commit_ns", empty_ns);

    constexpr unsigned accessesPerTx = 256;
    PaddedLine same_line;
    add("htm.access_memo_hit_ns",
        perCallNs(
            intelConfig(), 1000,
            [&](htm::Runtime& runtime, sim::ThreadContext& ctx) {
                runtime.atomic(ctx, [&](htm::Tx& tx) {
                    for (unsigned a = 0; a < accessesPerTx; ++a)
                        sink += tx.load(&same_line.word);
                });
            },
            allHtmCommits, ok) /
            accessesPerTx);

    std::vector<PaddedLine> lines(accessesPerTx);
    add("htm.access_new_line_ns",
        perCallNs(
            intelConfig(), 500,
            [&](htm::Runtime& runtime, sim::ThreadContext& ctx) {
                runtime.atomic(ctx, [&](htm::Tx& tx) {
                    for (PaddedLine& line : lines)
                        sink += tx.load(&line.word);
                });
            },
            allHtmCommits, ok) /
            accessesPerTx);

    // ---- htm: commit cost after the thread's largest transaction -----
    {
        constexpr unsigned largeLines = 4096;
        constexpr unsigned calls = 2000;
        std::vector<PaddedLine> large(largeLines);
        std::vector<double> samples;
        for (int b = 0; b < batches; ++b) {
            sim::Scheduler scheduler(1);
            htm::Runtime runtime(intelConfig(), 1);
            double ns = 0.0;
            scheduler.spawn([&](sim::ThreadContext& ctx) {
                runtime.atomic(ctx, [&](htm::Tx& tx) {
                    for (PaddedLine& line : large)
                        sink += tx.load(&line.word);
                });
                const std::int64_t start = hostNs();
                for (unsigned i = 0; i < calls; ++i) {
                    runtime.atomic(ctx, [&](htm::Tx& tx) {
                        sink += tx.load(&same_line.word);
                    });
                }
                ns = double(hostNs() - start) / double(calls);
            });
            scheduler.run();
            ok = ok && allHtmCommits(runtime.stats(), calls + 1);
            samples.push_back(ns);
        }
        add("htm.commit_after_large_tx_ns", median(samples));
    }

    // ---- htm: abort unwind and the global-lock path ------------------
    add("htm.abort_round_trip_ns",
        perCallNs(
            intelConfig(), 4000,
            [](htm::Runtime& runtime, sim::ThreadContext& ctx) {
                htm::NoRetryPolicy policy;
                runtime.tryAtomic(ctx, policy,
                                  [](htm::Tx& tx) { tx.abortTx(); });
            },
            [](const htm::TxStats& stats, unsigned calls) {
                return stats.totalAborts() == calls;
            },
            ok));
    add("htm.lock_fallback_ns",
        perCallNs(
            intelConfig(), 20000,
            [](htm::Runtime& runtime, sim::ThreadContext& ctx) {
                runtime.runLocked(ctx, [](htm::Tx&) {});
            },
            [](const htm::TxStats& stats, unsigned calls) {
                return stats.irrevocableCommits == calls;
            },
            ok));

    // ---- htm: the STM slow path (hybrid, software only) --------------
    constexpr unsigned stmLoadsPerTx = 64;
    std::vector<std::uint64_t> words(stmLoadsPerTx, 1);
    add("htm.stm_load_ns",
        perCallNs(
            stmOnlyConfig(), 1000,
            [&](htm::Runtime& runtime, sim::ThreadContext& ctx) {
                runtime.atomic(ctx, [&](htm::Tx& tx) {
                    for (std::uint64_t& word : words)
                        sink += tx.load(&word);
                });
            },
            allStmCommits, ok) /
            stmLoadsPerTx);
    add("htm.stm_commit_ns",
        perCallNs(
            stmOnlyConfig(), 20000,
            [&](htm::Runtime& runtime, sim::ThreadContext& ctx) {
                runtime.atomic(ctx, [&](htm::Tx& tx) {
                    tx.store(&words[0], std::uint64_t(7));
                });
            },
            allStmCommits, ok));

    // ---- htm: observer hook cost, per delivered event ----------------
    {
        CountingObserver counter;
        htm::RuntimeConfig observed = intelConfig();
        observed.observer = &counter;
        constexpr unsigned calls = 20000;
        const double on_ns =
            perCallNs(observed, calls, empty_commit, allHtmCommits, ok);
        const double off_ns =
            perCallNs(intelConfig(), calls, empty_commit, allHtmCommits, ok);
        const double events_per_call =
            double(counter.events) /
            (double(batches) * double(warmCalls + calls));
        add("htm.observer_event_ns", (on_ns - off_ns) / events_per_call);
    }

    // ---- htm: per-run set-up (the oracle builds two runtimes a run) --
    {
        constexpr unsigned runtimes = 200;
        std::vector<double> samples;
        for (int b = 0; b < batches; ++b) {
            const std::int64_t start = hostNs();
            for (unsigned i = 0; i < runtimes; ++i) {
                htm::Runtime runtime(intelConfig(), 4);
                sink += runtime.effectiveGranularity();
            }
            samples.push_back(double(hostNs() - start) / 1e3 / runtimes);
        }
        add("htm.runtime_setup_us", median(samples));
    }

    // ---- sim: fiber switch, lease expiry, run set-up -----------------
    {
        constexpr unsigned yields = 50000;
        std::vector<double> samples;
        for (int b = 0; b < batches; ++b) {
            sim::Scheduler scheduler(1);
            for (int f = 0; f < 2; ++f) {
                scheduler.spawn([](sim::ThreadContext& ctx) {
                    for (unsigned i = 0; i < yields; ++i) {
                        ctx.advance(1);
                        ctx.yieldNow();
                    }
                });
            }
            const std::int64_t start = hostNs();
            scheduler.run();
            samples.push_back(double(hostNs() - start) / (2.0 * yields));
        }
        add("sim.fiber_switch_ns", median(samples));
    }
    {
        constexpr unsigned steps = 200000;
        std::vector<double> samples;
        for (int b = 0; b < batches; ++b) {
            sim::Scheduler scheduler(1);
            // A one-cycle lease bound expires at every step, so each
            // sync() takes the slow path; the parked peer far ahead in
            // virtual time keeps every slow path a scan with no switch.
            scheduler.setBatching(true, 1);
            double ns = 0.0;
            scheduler.spawn([&](sim::ThreadContext& ctx) {
                ctx.step(1);
                const std::int64_t start = hostNs();
                for (unsigned i = 0; i < steps; ++i)
                    ctx.step(1);
                ns = double(hostNs() - start) / steps;
            });
            scheduler.spawn([](sim::ThreadContext& ctx) {
                ctx.advance(sim::Cycles(1) << 40);
                ctx.yieldNow();
            });
            scheduler.run();
            samples.push_back(ns);
        }
        add("sim.sync_slow_ns", median(samples));
    }
    {
        constexpr unsigned fibers = 256;
        constexpr unsigned schedulers = 4;
        std::vector<double> samples;
        for (int b = 0; b < batches; ++b) {
            const std::int64_t start = hostNs();
            for (unsigned s = 0; s < schedulers; ++s) {
                sim::Scheduler scheduler(1);
                for (unsigned f = 0; f < fibers; ++f)
                    scheduler.spawn([](sim::ThreadContext&) {});
                scheduler.run();
            }
            samples.push_back(double(hostNs() - start) / 1e3 /
                              (fibers * schedulers));
        }
        add("sim.run_setup_us", median(samples));
    }

    // Keep the loaded values observable so no load is optimised away.
    ok = ok && sink != 0;
    return results;
}

} // namespace htmsim::perfbench
