#include "liveness.hh"

#include <string>

#include "check/trace.hh"

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
    RunOutcome outcome;
    const auto fail = [&outcome](std::string reason) {
        outcome.ok = false;
        outcome.reason = std::move(reason);
        return outcome;
    };

    ConcurrentRun concurrent(workload, machine, seed, options, replay);
    // The ring is pure diagnostics here (the checker is online), so
    // unlike the differential oracle a wrapped ring is fine: the tail
    // it retains is exactly the events leading up to a violation.
    EventRing ring(options.ringCapacity);
    LivenessChecker checker(threads, liveness, &ring);
    concurrent.runtime.setObserver(&checker);

    try {
        concurrent.run(nullptr);
    } catch (const std::exception& error) {
        outcome.fired = concurrent.fuzz.fired();
        outcome.traceTail = formatTrace(ring.events());
        const bool violated =
            dynamic_cast<const LivenessViolation*>(&error) != nullptr;
        return fail(std::string(violated ? "liveness violated: "
                                         : "concurrent run raised: ") +
                    error.what());
    }

    outcome.fired = concurrent.fuzz.fired();
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
