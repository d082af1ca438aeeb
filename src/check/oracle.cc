#include "oracle.hh"

#include <cstdio>
#include <vector>

#include "check/trace.hh"
#include "htm/backend.hh"
#include "htm/context.hh"
#include "htm/tx.hh"
#include "sim/region.hh"
#include "sim/scheduler.hh"

namespace htmsim::check
{

namespace
{

std::string
hex(std::uint64_t value)
{
    char buffer[24];
    std::snprintf(buffer, sizeof(buffer), "0x%llx",
                  (unsigned long long) value);
    return buffer;
}

/** Records the event ring plus the global commit order. Observer
 *  callbacks fire in virtual-time order, so the sequence of
 *  commit/fallbackCommit events IS the serialization order the HTM
 *  model claims for this run. */
class CheckObserver final : public htm::TxObserver
{
  public:
    explicit CheckObserver(std::size_t ring_capacity)
        : ring(ring_capacity)
    {
    }

    void
    onEvent(const htm::TxEvent& event) override
    {
        ring.onEvent(event);
        if (event.kind == htm::TxEventKind::commit ||
            event.kind == htm::TxEventKind::fallbackCommit ||
            event.kind == htm::TxEventKind::nonSpecCommit) {
            commitOrder.push_back(event.tid);
        }
    }

    EventRing ring;
    std::vector<unsigned> commitOrder;
};

} // namespace

ConcurrentRun::ConcurrentRun(const WorkloadFactory& factory,
                             const htm::MachineConfig& machine,
                             std::uint64_t seed,
                             const CheckOptions& options,
                             const Schedule* replay)
    : threads(options.threads), ops(options.opsPerThread),
      // Decouple the workload's op streams from the fuzzing seed so a
      // seed sweep varies the interleaving *and* the op mix.
      workloadSeed(seed * 0x9e3779b97f4a7c15ULL + 0x51),
      workload(factory.make(workloadSeed, threads, ops)),
      scheduler(seed),
      fuzz(replay != nullptr ? FuzzScheduler(*replay)
                             : FuzzScheduler(seed, options.fuzz)),
      runtime(
          [&] {
              htm::RuntimeConfig config(machine);
              config.checkFault = options.fault;
              config.hazard = options.hazard;
              config.policyKind = options.policyKind;
              config.backend = options.backend;
              config.hybrid = options.hybrid;
              return config;
          }(),
          threads)
{
    scheduler.setPerturber(&fuzz);
}

void
ConcurrentRun::run(std::vector<std::vector<std::uint64_t>>* results)
{
    const bool selfDriven = workload->selfDriven();
    for (unsigned tid = 0; tid < threads; ++tid) {
        scheduler.spawn([this, results, selfDriven,
                         tid](sim::ThreadContext& ctx) {
            for (unsigned i = 0; i < ops; ++i) {
                std::uint64_t result = 0;
                if (selfDriven) {
                    // The workload stages its own atomic sections
                    // (lock-elision protocols); each op's closing
                    // event is its serialization point.
                    result = workload->applyDirect(runtime, ctx, tid, i);
                } else {
                    static const htm::TxSiteId opSite =
                        htm::txSite("check.concurrentOp");
                    runtime.atomic(ctx, opSite, [&](htm::Tx& tx) {
                        result = workload->apply(tx, tid, i);
                    });
                }
                if (results != nullptr)
                    (*results)[tid][i] = result;
            }
        });
    }
    scheduler.run();
}

RunOutcome
runDifferential(const WorkloadFactory& workload,
                const htm::MachineConfig& machine, std::uint64_t seed,
                const CheckOptions& options, const Schedule* replay)
{
    // --- Phase 1: concurrent run under the fuzzed HTM model. ---
    // Both phases share one run of the simulated heap.
    ConcurrentRun concurrent(workload, machine, seed, options, replay);
    const unsigned threads = concurrent.threads;
    const unsigned ops = concurrent.ops;
    CheckObserver observer(options.ringCapacity);
    concurrent.runtime.setObserver(&observer);

    RunOutcome outcome;
    // The trace tail is rendered here and only here: a passing run
    // formats no diagnostics.
    const auto fail = [&outcome, &observer](std::string reason) {
        outcome.ok = false;
        outcome.reason = std::move(reason);
        outcome.traceTail = formatTrace(observer.ring.events());
        return outcome;
    };

    std::vector<std::vector<std::uint64_t>> results(
        threads, std::vector<std::uint64_t>(ops, 0));
    try {
        concurrent.run(&results);
    } catch (const std::exception& error) {
        outcome.fired = concurrent.fuzz.fired();
        return fail(std::string("concurrent run raised: ") +
                    error.what());
    }

    outcome.fired = concurrent.fuzz.fired();
    outcome.commits = observer.commitOrder.size();

    // --- Phase 2: in-flight invariants over the event trace. ---
    if (observer.ring.dropped() != 0) {
        // A wrapped ring means the invariants would only see a
        // truncated trace; silently "passing" on it would be a hole in
        // the oracle, so overflow is itself a failure.
        return fail(
            "event ring overflowed: " +
            std::to_string(observer.ring.dropped()) +
            " of " +
            std::to_string(observer.ring.dropped() +
                           observer.ring.size()) +
            " events dropped, so the trace invariants cannot be "
            "checked; raise --ring-capacity (currently " +
            std::to_string(options.ringCapacity) + ")");
    }
    {
        const std::string error =
            checkTraceInvariants(observer.ring.history(), threads);
        if (!error.empty())
            return fail("trace invariant violated: " + error);
    }

    // --- Phase 3: exactly-once completeness. ---
    if (observer.commitOrder.size() !=
        std::uint64_t(threads) * ops) {
        return fail(
            "commit count mismatch: observed " +
            std::to_string(observer.commitOrder.size()) +
            " commits for " + std::to_string(threads) + "x" +
            std::to_string(ops) + " operations");
    }
    std::vector<unsigned> per_thread(threads, 0);
    for (const unsigned tid : observer.commitOrder) {
        if (tid >= threads)
            return fail("commit attributed to unknown thread t" +
                        std::to_string(tid));
        ++per_thread[tid];
    }
    for (unsigned tid = 0; tid < threads; ++tid) {
        if (per_thread[tid] != ops) {
            return fail("t" + std::to_string(tid) + " committed " +
                        std::to_string(per_thread[tid]) + " of " +
                        std::to_string(ops) + " operations");
        }
    }

    // --- Phase 4: serial replay in the observed commit order. ---
    sim::Ptr<CheckWorkload> reference =
        workload.make(concurrent.workloadSeed, threads, ops);
    const bool selfDriven = reference->selfDriven();
    htm::RuntimeConfig lock_config(machine);
    lock_config.backend = htm::BackendKind::globalLock;
    htm::Runtime lock_runtime(lock_config, 1);
    sim::Scheduler serial(seed + 1);
    std::vector<unsigned> cursor(threads, 0);
    std::string divergence;
    serial.spawn([&](sim::ThreadContext& ctx) {
        for (const unsigned tid : observer.commitOrder) {
            const unsigned i = cursor[tid]++;
            std::uint64_t result = 0;
            if (selfDriven) {
                // Single-threaded, so the lock protocols trivially
                // succeed; only the op's semantic effect matters. The
                // workload indexes its op streams by (tid, i) but must
                // address the runtime through ctx (one replay thread).
                result = reference->applyDirect(lock_runtime, ctx,
                                                tid, i);
            } else {
                static const htm::TxSiteId replaySite =
                    htm::txSite("check.serialReplay");
                lock_runtime.atomic(ctx, replaySite, [&](htm::Tx& tx) {
                    result = reference->apply(tx, tid, i);
                });
            }
            if (divergence.empty() && result != results[tid][i]) {
                divergence = "t" + std::to_string(tid) + " op " +
                             std::to_string(i) +
                             " returned " + hex(results[tid][i]) +
                             " concurrently but " + hex(result) +
                             " in the serial replay";
            }
        }
    });
    serial.run();
    if (!divergence.empty())
        return fail("serializability violated: " + divergence);

    // --- Phase 5: final states must be identical. ---
    const std::uint64_t got = concurrent.workload->fingerprint();
    const std::uint64_t want = reference->fingerprint();
    if (got != want) {
        return fail("final-state fingerprint mismatch: concurrent " +
                    hex(got) + " vs serial replay " + hex(want));
    }

    return outcome;
}

} // namespace htmsim::check
