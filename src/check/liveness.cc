#include "liveness.hh"

#include <memory>
#include <string>
#include <vector>

#include "check/trace.hh"
#include "htm/context.hh"
#include "htm/tx.hh"
#include "sim/region.hh"

namespace htmsim::check
{

void
LivenessChecker::onEvent(const htm::TxEvent& event)
{
    if (forward_ != nullptr)
        forward_->onEvent(event);

    ThreadProgress& self = threads_.at(event.tid);
    switch (event.kind) {
    case htm::TxEventKind::begin:
        if (!self.open) {
            self.open = true;
            self.openSince = event.sectionStart;
            self.commitsAtOpen = globalCommits_;
        }
        break;
    case htm::TxEventKind::commit:
    case htm::TxEventKind::fallbackCommit:
    case htm::TxEventKind::nonSpecCommit:
        self.open = false;
        ++globalCommits_;
        break;
    case htm::TxEventKind::abort:
    case htm::TxEventKind::lockAcquired:
    case htm::TxEventKind::lockReleased:
        break;
    }

    // Events arrive in global virtual-time order, so event.cycles is
    // "now" for every open section, not just event.tid's. Checking all
    // of them here is what lets a livelocked thread's bound fire even
    // when the livelocked thread itself stops producing events (e.g.
    // parked on the fallback lock forever).
    const sim::Cycles now = event.cycles;
    for (std::size_t tid = 0; tid < threads_.size(); ++tid) {
        const ThreadProgress& progress = threads_[tid];
        if (!progress.open)
            continue;
        if (now - progress.openSince > options_.maxSectionCycles) {
            throw LivenessViolation(
                "t" + std::to_string(tid) +
                "'s atomic section opened at cycle " +
                std::to_string(progress.openSince) +
                " and is still uncommitted at cycle " +
                std::to_string(now) + " (bound " +
                std::to_string(options_.maxSectionCycles) +
                " cycles): the retry/fallback layer is not making "
                "progress");
        }
        const std::uint64_t peer_commits =
            globalCommits_ - progress.commitsAtOpen;
        if (peer_commits > options_.starvationCommitBound) {
            throw LivenessViolation(
                "t" + std::to_string(tid) + " is starving: peers "
                "committed " + std::to_string(peer_commits) +
                " transactions (bound " +
                std::to_string(options_.starvationCommitBound) +
                ") while its section, open since cycle " +
                std::to_string(progress.openSince) +
                ", made no progress");
        }
    }
}

RunOutcome
runLiveness(const WorkloadFactory& workload,
            const htm::MachineConfig& machine, std::uint64_t seed,
            const CheckOptions& options, const LivenessOptions& liveness,
            const Schedule* replay)
{
    const unsigned threads = options.threads;
    const unsigned ops = options.opsPerThread;
    // Same derivation as runDifferential so a seed reproduces the same
    // op streams under either oracle.
    const std::uint64_t workload_seed =
        seed * 0x9e3779b97f4a7c15ULL + 0x51;

    RunOutcome outcome;
    const auto fail = [&outcome](std::string reason) {
        outcome.ok = false;
        outcome.reason = std::move(reason);
        return outcome;
    };

    sim::RunScope run;
    sim::Ptr<CheckWorkload> concurrent =
        workload.make(workload_seed, threads, ops);

    sim::Scheduler scheduler(seed);
    std::unique_ptr<FuzzScheduler> fuzz;
    if (replay != nullptr)
        fuzz = std::make_unique<FuzzScheduler>(*replay);
    else
        fuzz = std::make_unique<FuzzScheduler>(seed, options.fuzz);
    scheduler.setPerturber(fuzz.get());

    htm::RuntimeConfig config(machine);
    config.checkFault = options.fault;
    config.hazard = options.hazard;
    config.policyKind = options.policyKind;
    htm::Runtime runtime(config, threads);

    // The ring is pure diagnostics here (the checker is online), so
    // unlike the differential oracle a wrapped ring is fine: the tail
    // it retains is exactly the events leading up to a violation.
    EventRing ring(options.ringCapacity);
    LivenessChecker checker(threads, liveness, &ring);
    runtime.setObserver(&checker);

    const bool selfDriven = concurrent->selfDriven();
    for (unsigned tid = 0; tid < threads; ++tid) {
        scheduler.spawn([&, tid](sim::ThreadContext& ctx) {
            for (unsigned i = 0; i < ops; ++i) {
                if (selfDriven) {
                    (void) concurrent->applyDirect(runtime, ctx, tid,
                                                   i);
                } else {
                    static const htm::TxSiteId opSite =
                        htm::txSite("check.concurrentOp");
                    runtime.atomic(ctx, opSite, [&](htm::Tx& tx) {
                        (void) concurrent->apply(tx, tid, i);
                    });
                }
            }
        });
    }
    try {
        scheduler.run();
    } catch (const LivenessViolation& violation) {
        outcome.fired = fuzz->fired();
        outcome.traceTail = formatTrace(ring.events());
        return fail(std::string("liveness violated: ") +
                    violation.what());
    } catch (const std::exception& error) {
        outcome.fired = fuzz->fired();
        outcome.traceTail = formatTrace(ring.events());
        return fail(std::string("concurrent run raised: ") +
                    error.what());
    }

    outcome.fired = fuzz->fired();
    outcome.commits = checker.globalCommits();

    // Completeness: every operation committed (exactly-once at the
    // count level; per-op results are the safety oracle's job).
    if (checker.globalCommits() != std::uint64_t(threads) * ops) {
        outcome.traceTail = formatTrace(ring.events());
        return fail("commit count mismatch: observed " +
                    std::to_string(checker.globalCommits()) +
                    " commits for " + std::to_string(threads) + "x" +
                    std::to_string(ops) + " operations");
    }
    return outcome;
}

} // namespace htmsim::check
