#include "runtime.hh"

#include <algorithm>
#include <bit>
#include <csetjmp>
#include <stdexcept>

#include "hle.hh"

namespace htmsim::htm
{

namespace
{

unsigned
log2Exact(std::size_t value)
{
    assert(value > 0 && (value & (value - 1)) == 0 &&
           "granularities must be powers of two");
    return unsigned(std::countr_zero(value));
}

} // namespace

const char*
txEventKindName(TxEventKind kind)
{
    switch (kind) {
      case TxEventKind::begin: return "begin";
      case TxEventKind::commit: return "commit";
      case TxEventKind::abort: return "abort";
      case TxEventKind::lockAcquired: return "lock-acquired";
      case TxEventKind::lockReleased: return "lock-released";
      case TxEventKind::fallbackCommit: return "fallback-commit";
      case TxEventKind::nonSpecCommit: return "nonspec-commit";
    }
    return "?";
}

Runtime::Runtime(RuntimeConfig config, unsigned num_threads)
    : config_(std::move(config))
{
    const MachineConfig& machine = config_.machine;
    if (num_threads < 1 || num_threads > kMaxTxThreads) {
        throw std::invalid_argument(
            "Runtime: " + std::to_string(num_threads) +
            " threads; expected 1.." + std::to_string(kMaxTxThreads));
    }
    const bool bgq = machine.vendor == Vendor::blueGeneQ;
    const bool ideal = config_.backend == BackendKind::idealHtm;

    // Blue Gene/Q refines its worst-case 128-byte granularity by
    // execution mode: 8 bytes short-running, 64 bytes long-running
    // (Section 2.1).
    std::size_t granularity = machine.conflictGranularity;
    if (bgq)
        granularity = config_.bgq.mode == BgqMode::shortRunning ? 8 : 64;
    conflictShift_ = log2Exact(granularity);
    capacityShift_ = log2Exact(machine.capacityLineBytes);
    directory_.attach(num_threads, conflictShift_);

    // Resolve the effective machine parameters once. Blue Gene/Q folds
    // its mode-dependent extras in here (the long-running L1
    // invalidation at begin, the short-running L1-bypass latency per
    // access); the ideal-HTM oracle zeroes every overhead and
    // randomness source so only true data and lock conflicts remain.
    txBeginCost_ = machine.txBeginCost;
    txEndCost_ = machine.txEndCost;
    txAbortCost_ = machine.txAbortCost;
    txLoadCost_ = machine.txLoadCost;
    txStoreCost_ = machine.txStoreCost;
    lazySubscription_ = bgq && config_.bgq.mode == BgqMode::longRunning;
    if (lazySubscription_)
        txBeginCost_ += machine.longModeBeginExtra;
    if (bgq && config_.bgq.mode == BgqMode::shortRunning) {
        txLoadCost_ += machine.shortModeAccessExtra;
        txStoreCost_ += machine.shortModeAccessExtra;
    }
    prefetchProb_ = config_.intel.prefetchEnabled
                        ? machine.prefetchConflictProb
                        : 0.0;
    cacheFetchProb_ = machine.cacheFetchAbortProb;
    specIdPool_ = machine.speculationIds;
    if (ideal) {
        txBeginCost_ = 0;
        txEndCost_ = 0;
        txAbortCost_ = 0;
        prefetchProb_ = 0.0;
        cacheFetchProb_ = 0.0;
        specIdPool_ = 0;
    }

    // Hybrid-backend flags, resolved once: every software-TM hook on
    // the shared hot paths gates on stmEnabled_, so other backends
    // execute the unmodified instruction stream.
    stmEnabled_ = config_.backend == BackendKind::hybrid;
    stmEagerSub_ = config_.hybrid.subscription ==
                   HybridRuntimeConfig::Subscription::eager;

    capacityModel_ =
        makeCapacityModel(machine, config_.ignoreCapacity || ideal);
    // Every backend runs through the same tier policies; only the
    // hybrid backend has a live software tier.
    const TierPolicy::Tuning tuning{stmEnabled_, config_.hybrid.stmOnly,
                                    config_.hybrid.stmAttempts};
    tiers_.reserve(num_threads);
    for (unsigned tid = 0; tid < num_threads; ++tid)
        tiers_.emplace_back(makeRetryPolicy(config_), tuning);
    observer_ = config_.observer;
    hazard_.reset(config_.hazard, num_threads);
    // The orec table is only materialized when the software path is
    // live: every stm_ access on the shared paths is behind the
    // stmEnabled_ gate.
    if (stmEnabled_)
        stm_.reset(config_.hybrid, conflictShift_);
    stats_.resize(num_threads);
    activePerCore_.assign(machine.numCores, 0);
    freeSpecIds_ = specIdPool_;

    txs_.reserve(num_threads);
    for (unsigned tid = 0; tid < num_threads; ++tid) {
        auto tx = std::make_unique<Tx>();
        tx->runtime_ = this;
        tx->tid_ = tid;
        txs_.push_back(std::move(tx));
    }
    if (config_.backend == BackendKind::hle)
        hle_ = std::make_unique<HleLock>();
}

Runtime::~Runtime()
{
    for (const auto& tx : txs_) {
        if (tx->logsConflictLines())
            clearDirectoryMarks(*tx);
    }
    assert(trackedConflictLines() == 0);
}

std::size_t
Runtime::trackedConflictLines() const
{
    // Every shadow mark was made by an attempt that logged its line,
    // and a log lives until the thread's next attempt begins.
    std::vector<std::uintptr_t> marked;
    for (const auto& tx : txs_) {
        if (!tx->logsConflictLines())
            continue;
        for (const std::uintptr_t line_number : tx->touchLog_) {
            if (directory_.markedInShadow(line_number))
                marked.push_back(line_number);
        }
    }
    std::sort(marked.begin(), marked.end());
    const auto distinct = std::unique(marked.begin(), marked.end());
    return std::size_t(distinct - marked.begin()) +
           directory_.markedFallbackLines();
}

TxStats
Runtime::stats() const
{
    TxStats total;
    for (const auto& per_thread : stats_)
        total += per_thread;
    return total;
}

// --------------------------------------------------------------------
// Conflict resolution
// --------------------------------------------------------------------

bool
Runtime::doomTx(unsigned victim_tid, AbortCause cause)
{
    Tx& victim = *txs_[victim_tid];
    if (victim.status_ != TxStatus::active || victim.unkillable_)
        return false;
    victim.status_ = TxStatus::doomed;
    victim.doomCause_ = cause;
    return true;
}

void
Runtime::emitConflict(unsigned attacker_tid, unsigned victim_tid,
                      bool attacker_non_tx, std::uintptr_t line,
                      Cycles cycles)
{
    if (observer_ == nullptr)
        return;
    observer_->onConflict(TxConflictEvent{
        std::uint16_t(attacker_tid), std::uint16_t(victim_tid),
        txs_[attacker_tid]->site_, txs_[victim_tid]->site_,
        attacker_non_tx, line, cycles});
}

void
Runtime::bindSite(unsigned tid, TxSiteId site)
{
    txs_[tid]->site_ = site;
}

void
Runtime::resolveConflict(Tx& attacker, unsigned victim_tid,
                         AbortCause victim_cause, std::uintptr_t line)
{
    Tx& victim = *txs_[victim_tid];
    if (victim.status_ != TxStatus::active)
        return; // already dying; its marks are stale

    // Conflict events name the *winning* side the attacker and the
    // *aborting* side the victim, whichever way arbitration went, so
    // the txprof conflict matrix always pairs survivor with casualty.
    const Cycles now = attacker.ctx_->now();

    if (victim.unkillable_) {
        emitConflict(victim_tid, attacker.tid_, false, line, now);
        attacker.selfAbort(AbortCause::dataConflict);
    }

    switch (config_.policy) {
      case ConflictPolicy::attackerWins:
        if (doomTx(victim_tid, victim_cause))
            emitConflict(attacker.tid_, victim_tid, false, line, now);
        break;
      case ConflictPolicy::attackerLoses:
        emitConflict(victim_tid, attacker.tid_, false, line, now);
        attacker.selfAbort(AbortCause::dataConflict);
        break;
      case ConflictPolicy::olderWins:
        if (victim.startOrder_ < attacker.startOrder_) {
            emitConflict(victim_tid, attacker.tid_, false, line, now);
            attacker.selfAbort(AbortCause::dataConflict);
        } else if (doomTx(victim_tid, victim_cause)) {
            emitConflict(attacker.tid_, victim_tid, false, line, now);
        }
        break;
    }
}

void
Runtime::nonTxConflict(unsigned tid, std::uintptr_t addr, bool is_write,
                       Cycles now)
{
    sim::assertSimulated(reinterpret_cast<const void*>(addr));
    if (stmEnabled_ && is_write) {
        // Hybrid instrumentation gate: every direct store — from
        // irrevocable sections, suspended mode, non-transactional
        // accessors, the lock words, or a software commit's
        // publication — stamps the address's orec, so concurrent
        // software validation observes it. Before the directory
        // early-return: the orec must be stamped even when no hardware
        // transaction is tracking the line.
        stm_.onDirectStore(addr);
    }

    const std::uintptr_t line_number = conflictLineOf(addr);
    const ConflictCell line = directory_.cell(line_number);

    // A non-transactional access wins against any transaction holding
    // the line (strong isolation via cache coherence, Section 2). A
    // doom only sets the victim's status: its marks stay until its
    // own rollback clears them.
    const int writer = line.owner();
    if (writer >= 0 && writer != int(tid)) {
        if (doomTx(unsigned(writer), AbortCause::dataConflict))
            emitConflict(tid, unsigned(writer), true, line_number, now);
    }
    if (is_write) {
        line.forEachReaderExcept(tid, [&](unsigned reader) {
            if (doomTx(reader, AbortCause::dataConflict))
                emitConflict(tid, reader, true, line_number, now);
        });
    }
}

// --------------------------------------------------------------------
// The attempt driver
// --------------------------------------------------------------------

template <TxStatus kind>
AbortCause
Runtime::attempt(Tx& tx, sim::ThreadContext& ctx,
                 FunctionRef<void(Tx&)> body)
{
    // Begin and the commit point return the aborts they decide; an
    // abort raised in the body restores this checkpoint with its cause
    // in tx.raised_. Both reach the one rollback tail below. The
    // checkpoint precedes begin because eager subscription is a
    // transactional load that can itself abort, and it is retired
    // before the commit point, which returns its aborts. An exception
    // leaving any step before the attempt is over discards it on its
    // way out.
    constexpr bool software = kind == TxStatus::software;
    const DiscardOnThrow discard(*this, tx);
    if (setjmp(tx.checkpoint_) == 0) {
        tx.checkpointLive_ = true;
        tx.raised_ = beginAttempt(tx, ctx, kind);
        if (tx.raised_ == AbortCause::none) {
            body(tx);
            tx.checkpointLive_ = false;
            tx.raised_ = software ? softwareCommitPoint(tx, ctx)
                                  : hardwareCommitPoint(tx, ctx);
        }
        tx.checkpointLive_ = false;
    }
    TxStats& stats = stats_[tx.tid_];
    if (tx.raised_ == AbortCause::none) {
        // Commit tail. Past the commit point there is no scheduling
        // point, so all of it is atomic in virtual time. The
        // write-back follows the append-only log: its order matters
        // for overlapping stores.
        for (const std::uintptr_t addr : tx.writeLog_) {
            const Tx::WriteEntry* entry = tx.writeBuffer_.find(addr);
            std::memcpy(reinterpret_cast<void*>(addr), &entry->value,
                        entry->size);
        }
        if (kind == TxStatus::active)
            releaseTracking(tx);
        for (const auto& record : tx.deferredFrees_) {
            stmOnFree(record.ptr, record.bytes);
            sim::regionFree(record.ptr, record.bytes);
        }
        if (config_.collectTrace)
            trace_.record(tx.loadLines_, tx.storeLines_);
        const Cycles cycles = ctx.now() - tx.attemptStart_;
        if (software) {
            ++stats.stmCommits;
            stats.committedStmCycles += cycles;
        } else {
            ++(tx.constrained_ ? stats.constrainedCommits
                               : stats.htmCommits);
            stats.committedTxCycles += cycles;
        }
        tx.status_ = TxStatus::inactive;
        // Emitted after the write-back: the event marks the point at
        // which the transaction's stores became globally visible.
        emitEvent(TxEventKind::commit, tx.tid_, tx.site_, ctx.now(),
                  tx.attemptStart_, AbortCause::none,
                  kind == TxStatus::rollbackOnly);
        return AbortCause::none;
    }

    // Rollback tail. A doom by a peer overrides the raised cause (only
    // a hardware attempt can be doomed).
    const AbortCause cause =
        tx.status_ == TxStatus::doomed ? tx.doomCause_ : tx.raised_;
    assert(cause != AbortCause::none);
    discardAttempt(tx);
    ctx.advance(software ? HybridRuntimeConfig::stmAbortCost
                         : txAbortCost_);
    ctx.sync();
    (software ? stats.wastedStmCycles : stats.wastedTxCycles) +=
        ctx.now() - tx.attemptStart_;
    ++stats.trueCauseAborts[std::size_t(cause)];
    ++stats.reportedAborts[std::size_t(reportedCategory(cause, kind))];
    emitEvent(TxEventKind::abort, tx.tid_, tx.site_, ctx.now(),
              tx.attemptStart_, cause);
    return cause;
}

AbortCause
Runtime::beginAttempt(Tx& tx, sim::ThreadContext& ctx, TxStatus kind)
{
    tx.ctx_ = &ctx;
    tx.resetAttemptState();
    tx.attemptStart_ = ctx.now();
    // Only a hardware attempt takes the hardware tracking resources
    // (speculation id, core slot, directory marks): a software attempt
    // exists to do without them, and a rollback-only one tracks no
    // conflicts.
    const bool hardware = kind == TxStatus::active;
    if (hardware) {
        if (hazard_.enabled())
            hazard_.onAttemptStart(tx.tid_, ctx.now());
        acquireSpecId(tx, ctx);
    }

    ctx.advance(kind == TxStatus::software
                    ? HybridRuntimeConfig::stmBeginCost
                    : txBeginCost_);
    ctx.sync();

    tx.status_ = kind;
    if (hardware) {
        tx.startOrder_ = ++startCounter_;
        ++activePerCore_[config_.machine.coreOf(tx.tid_)];
    } else if (kind == TxStatus::software) {
        tx.stmRv_ = stm_.clock();
    }
    emitEvent(TxEventKind::begin, tx.tid_, tx.site_, ctx.now(),
              tx.attemptStart_, AbortCause::none,
              kind == TxStatus::rollbackOnly);
    // Constrained transactions, like BG/Q's long-running mode, check
    // the lock only at tend.
    if (!hardware || tx.constrained_)
        return AbortCause::none;
    if (!lazySubscription_) {
        // Figure 1, lines 13/26: read the lock word transactionally so
        // a later acquisition aborts us; abort at once if it is held.
        const auto lock = tx.load(lockWord_.get());
        if (lock != 0)
            return AbortCause::lockConflict;
    }
    if (stmEnabled_) {
        if (stmEagerSub_) {
            // Eager subscription: the clock cell joins the read set
            // like the lock word above, so a software commit's
            // publication dooms this transaction on the spot.
            (void)tx.load(stm_.clockCellAddr());
        } else {
            // Lazy subscription: snapshot now, compare at commit.
            tx.stmClockSnap_ = stm_.clockCell();
        }
    }
    return AbortCause::none;
}

AbortCause
Runtime::hardwareCommitPoint(Tx& tx, sim::ThreadContext& ctx)
{
    if (tx.status_ == TxStatus::rollbackOnly) {
        // A rollback-only transaction detects no conflicts, so nothing
        // can kill it at tend.
        ctx.advance(txEndCost_);
        ctx.sync();
        return AbortCause::none;
    }
    Cycles end_cost = txEndCost_;
    if (stmEnabled_) {
        // The hybrid fast path is instrumented: a committing hardware
        // transaction advances the software clock and stamps the orec
        // of every written line so concurrent software validation
        // observes it — the overhead the hybrid-TM bounds literature
        // proves some part of the fast path must pay.
        end_cost += HybridRuntimeConfig::htmInstrumentationCost +
                    HybridRuntimeConfig::htmOrecPublishCost *
                        Cycles(tx.storeLines_);
    }
    ctx.advance(end_cost);
    ctx.sync();
    if (tx.status_ == TxStatus::doomed)
        return tx.doomCause_;

    if (hazard_.enabled()) {
        // Last chance for this attempt's armed hazards: an interrupt
        // or a spurious event hitting between the body's final access
        // and tend still kills the whole attempt.
        const AbortCause hazard =
            hazard_.onCommitPoint(tx.tid_, ctx.now());
        if (hazard != AbortCause::none)
            return hazard;
    }

    if ((lazySubscription_ || tx.constrained_) && *lockWord_ != 0) {
        // Blue Gene/Q long-running mode and constrained transactions
        // subscribe lazily: the lock is checked at the end of the
        // transaction [12].
        return AbortCause::lockConflict;
    }

    if (stmEnabled_ && !stmEagerSub_ && !tx.constrained_ &&
        stm_.clockCell() != tx.stmClockSnap_) {
        // Lazy subscription: a software transaction committed since
        // begin. Any true overlap already doomed us per address during
        // its publication; the clock compare is the conservative
        // NOrec-style belt-and-braces the mode models.
        return AbortCause::stmConflict;
    }

    // Commit point: no scheduling points from here to the commit event,
    // so publication, write-back and directory cleanup are atomic in
    // virtual time.
    if (stmEnabled_ && !tx.writeLog_.empty()) {
        // Hybrid instrumentation: publish this commit's writes to the
        // software validation state (one clock tick, all written
        // lines' orecs). The clock *cell* is left alone — only
        // software commits store to it, so hardware commits never doom
        // fellow hardware transactions through the subscription
        // channel (the Hybrid-NOrec serialize-everything trap). The
        // touch log's first-touch order is as good as any: the bumps
        // are per-line idempotent.
        const std::uint64_t wv = stm_.advanceClock();
        for (const std::uintptr_t line_number : tx.touchLog_) {
            if (directory_.cell(line_number).ownedBy(tx.tid_))
                stm_.bumpOrec(stm_.indexOfLine(line_number), wv);
        }
    }
    return AbortCause::none;
}

void
Runtime::clearDirectoryMarks(const Tx& tx)
{
    // Hardware attempts only: their touch log holds conflict lines. A
    // thread marks a line only after logging it on first touch
    // (prefetched neighbours included), so the log covers every mark.
    // Clearing both kinds is idempotent: a mark the line never had
    // stays absent, and a writer mark already taken over by a peer
    // stays the peer's.
    for (const std::uintptr_t line_number : tx.touchLog_)
        directory_.cell(line_number).clear(tx.tid_);
}

void
Runtime::releaseTracking(Tx& tx)
{
    // The software path's touch log holds orec indices, not lines.
    if (tx.status_ == TxStatus::active ||
        tx.status_ == TxStatus::doomed) {
        clearDirectoryMarks(tx);
        --activePerCore_[config_.machine.coreOf(tx.tid_)];
    }
    releaseSpecId(tx);
}

void
Runtime::discardAttempt(Tx& tx)
{
    releaseTracking(tx);
    for (const auto& record : tx.speculativeAllocs_)
        sim::regionFree(record.ptr, record.bytes);
    tx.status_ = TxStatus::inactive;
    tx.suspended_ = false;
}

AbortCategory
Runtime::reportedCategory(AbortCause cause, TxStatus kind) const
{
    // The software path knows its own abort causes exactly — no
    // laundering through hardware reason codes.
    if (kind == TxStatus::software)
        return categorize(cause);
    if (!config_.machine.hasAbortCodes)
        return AbortCategory::unclassified;
    // The retry driver classifies lock conflicts by inspecting the
    // lock after the abort (Figure 1 line 13); a conflict whose lock
    // was already released again is misattributed to data — exactly as
    // the paper describes.
    if (*lockWord_ != 0 || cause == AbortCause::lockConflict)
        return AbortCategory::lockConflict;
    return categorize(cause);
}

// --------------------------------------------------------------------
// Section drivers
// --------------------------------------------------------------------

void
Runtime::waitToBegin(sim::ThreadContext& ctx)
{
    // Figure 1 line 9: wait for the global lock to be released before
    // beginning, to avoid the lemming effect [8].
    const Cycles wait_start = ctx.now();
    if (*lockWord_ != 0) {
        ctx.spinUntil([this] { return *lockWord_ == 0; }, lockPollCost);
    }
    if (constrainedOwner_ >= 0 && constrainedOwner_ != int(ctx.id())) {
        ctx.spinUntil([this] { return constrainedOwner_ < 0; },
                      lockPollCost);
    }
    stats_[ctx.id()].lockWaitCycles += ctx.now() - wait_start;
}

void
Runtime::backoff(sim::ThreadContext& ctx, unsigned consecutive_aborts,
                 bool deterministic_jitter)
{
    const unsigned shift = std::min(consecutive_aborts, maxBackoffShift);
    const Cycles base = backoffBase << shift;
    Cycles jitter;
    if (deterministic_jitter) {
        // Hardened policy: jitter is a pure hash of (tid, consecutive
        // aborts). The thread's main rng stream is untouched, so a
        // replayed hazard schedule sees the identical retry cadence
        // no matter how many backoffs preceded it.
        std::uint64_t h = (std::uint64_t(ctx.id()) << 32) |
                          consecutive_aborts;
        jitter = Cycles(sim::splitMix64(h) % (base + 1));
    } else {
        jitter = Cycles(double(base) * ctx.rng().nextDouble());
    }
    ctx.advance(base + jitter);
    ctx.sync();
    stats_[ctx.id()].backoffCycles += base + jitter;
}

void
Runtime::acquireGlobalLock(sim::ThreadContext& ctx)
{
    ctx.sync();
    const Cycles wait_start = ctx.now();
    if (*lockWord_ != 0) {
        ctx.spinUntil([this] { return *lockWord_ == 0; }, lockPollCost);
    }
    // No scheduling point between the final probe and the store: the
    // acquisition is atomic in virtual time.
    ctx.advance(config_.machine.nonTxStoreCost);
    nonTxConflict(ctx.id(), std::uintptr_t(lockWord_.get()), true,
                  ctx.now());
    *lockWord_ = 1;
    stats_[ctx.id()].lockWaitCycles += ctx.now() - wait_start;
    lockHoldStart_ = ctx.now();
    emitEvent(TxEventKind::lockAcquired, ctx.id(),
              txs_[ctx.id()]->site_, ctx.now(), wait_start);
}

void
Runtime::releaseGlobalLock(sim::ThreadContext& ctx)
{
    assert(*lockWord_ != 0);
    ctx.advance(config_.machine.nonTxStoreCost);
    nonTxConflict(ctx.id(), std::uintptr_t(lockWord_.get()), true,
                  ctx.now());
    *lockWord_ = 0;
    emitEvent(TxEventKind::lockReleased, ctx.id(),
              txs_[ctx.id()]->site_, ctx.now(), lockHoldStart_);
    ctx.sync();
}

void
Runtime::runIrrevocable(sim::ThreadContext& ctx, Tx& tx,
                        FunctionRef<void(Tx&)> body)
{
    acquireGlobalLock(ctx);
    const Cycles hold_start = ctx.now();
    if (hazard_.enabled()) {
        // Holder preemption: the "OS" schedules the fresh lock holder
        // out. The stall is charged while the lock is held, so every
        // section spinning behind it convoys — the pathology the
        // hardened policy's storm adaptation bounds.
        const Cycles stall = hazard_.lockHolderStall(tx.tid_);
        if (stall != 0) {
            ctx.advance(stall);
            ctx.sync();
            TxStats& stats = stats_[tx.tid_];
            ++stats.hazardPreemptStalls;
            stats.hazardStallCycles += stall;
        }
    }
    {
        IrrevocableScope scope(tx, ctx);
        body(tx);
        ++stats_[tx.tid_].irrevocableCommits;
        // Still under the lock: this is the section's serialization
        // point, which is what the simcheck oracle orders by.
        emitEvent(TxEventKind::fallbackCommit, tx.tid_, tx.site_,
                  ctx.now(), hold_start);
    }
    // The lock release stays success-path-only on purpose: a body that
    // throws out of irrevocable execution is a programming error (it
    // cannot be rolled back), and holding the lock makes the stall
    // visible instead of silently continuing unserialized. The scope
    // guard above still restores the Tx status for the unwind.
    releaseGlobalLock(ctx);
    stats_[tx.tid_].fallbackCycles += ctx.now() - hold_start;
}

void
Runtime::runSection(sim::ThreadContext& ctx, FunctionRef<void(Tx&)> body)
{
    // Figure 1 with the tier policy supplying the decisions. Which
    // counters exist and how lock conflicts are classified live in
    // the thread's RetryPolicy; whether the lock is subscribed lazily
    // is the machine mode's (lazySubscription_).
    Tx& tx = *txs_[ctx.id()];
    if (hle_) [[unlikely]] {
        hle_->execute(*this, ctx, tx.site_, body);
        return;
    }
    TierPolicy& policy = tiers_[ctx.id()];
    policy.beginSection();
    unsigned consecutive = 0;
    // The backend only picks where a section starts.
    Tier tier = config_.backend == BackendKind::globalLock
                    ? Tier::lock
                    : policy.firstTier();
    while (tier != Tier::lock) {
        // Lemming-storm guard (Figure 1 line 9): re-check the lock
        // before every attempt, not just the first — a convoy drains
        // instead of feeding itself doomed attempts, and a software
        // attempt started behind a held lock would only abort at its
        // commit point (stm.cc).
        waitToBegin(ctx);
        const AbortCause cause =
            tier == Tier::hardware
                ? attempt<TxStatus::active>(tx, ctx, body)
                : attempt<TxStatus::software>(tx, ctx, body);
        if (cause == AbortCause::none) {
            policy.onCommit();
            return;
        }
        ++consecutive;
        Tier next = tier == Tier::hardware
                        ? policy.onHtmAbort(cause, *lockWord_ != 0)
                        : policy.onStmAbort(cause);
        // stuckRetry (simcheck self-tests only): model the classic
        // driver bug of ignoring the policy's stop decision — the
        // lock is never taken, so a persistently aborting section
        // livelocks. The liveness oracle must catch this.
        if (tier == Tier::hardware && next == Tier::lock &&
            config_.checkFault == CheckFault::stuckRetry)
            next = Tier::hardware;
        // Retries on the same tier back off; moving on does not.
        if (next == tier)
            backoff(ctx, consecutive, policy.deterministicBackoff());
        tier = next;
    }
    runIrrevocable(ctx, tx, body);
    policy.onFallback();
}

AbortCause
Runtime::runPolicyAttempts(sim::ThreadContext& ctx, RetryPolicy& policy,
                           FunctionRef<void(Tx&)> body)
{
    Tx& tx = *txs_[ctx.id()];
    policy.beginSection();
    for (;;) {
        const AbortCause cause = attempt<TxStatus::active>(tx, ctx, body);
        if (cause == AbortCause::none) {
            policy.onCommit();
            return AbortCause::none;
        }
        if (!policy.onAbort(cause, *lockWord_ != 0))
            return cause;
    }
}

void
Runtime::runConstrained(sim::ThreadContext& ctx,
                        FunctionRef<void(Tx&)> body)
{
    if (!config_.machine.hasConstrainedTx) {
        throw std::logic_error(
            "constrained transactions unsupported on " +
            config_.machine.name);
    }

    Tx& tx = *txs_[ctx.id()];
    // Constrained mode and escalated priority last for the section,
    // also when a limit violation throws out of it.
    class ConstrainedScope
    {
      public:
        ConstrainedScope(Runtime& runtime, Tx& tx)
            : runtime_(runtime), tx_(tx)
        {
            tx_.constrained_ = true;
        }

        ~ConstrainedScope()
        {
            if (runtime_.constrainedOwner_ == int(tx_.tid_))
                runtime_.constrainedOwner_ = -1;
            tx_.unkillable_ = false;
            tx_.constrained_ = false;
        }

        ConstrainedScope(const ConstrainedScope&) = delete;
        ConstrainedScope& operator=(const ConstrainedScope&) = delete;

      private:
        Runtime& runtime_;
        Tx& tx_;
    };
    const ConstrainedScope scope(*this, tx);
    unsigned attempts = 0;

    for (;;) {
        const AbortCause cause = attempt<TxStatus::active>(tx, ctx, body);
        if (cause == AbortCause::none)
            break;

        ++attempts;
        if (attempts >= escalationThreshold && constrainedOwner_ < 0) {
            // Hardware guarantees eventual completion by escalating:
            // model this as exclusive priority that blocks new
            // transactions and survives all conflicts.
            constrainedOwner_ = int(ctx.id());
            tx.unkillable_ = true;
        }
        backoff(ctx, attempts);
    }
}

bool
Runtime::runRollbackOnly(sim::ThreadContext& ctx,
                         FunctionRef<void(Tx&)> body)
{
    if (!config_.machine.hasSuspendResume) {
        throw std::logic_error("rollback-only tx unsupported on " +
                               config_.machine.name);
    }
    return attempt<TxStatus::rollbackOnly>(*txs_[ctx.id()], ctx, body) ==
           AbortCause::none;
}

// --------------------------------------------------------------------
// Machine services
// --------------------------------------------------------------------

void
Runtime::acquireSpecId(Tx& tx, sim::ThreadContext& ctx)
{
    if (specIdPool_ == 0)
        return;

    TxStats& stats = stats_[tx.tid_];
    while (freeSpecIds_ == 0) {
        if (retiredSpecIds_ > 0) {
            // This thread performs the reclamation pass that scrubs
            // the L2 directory and recycles the retired IDs.
            ctx.advance(config_.machine.specIdReclaimCost);
            ctx.sync();
            freeSpecIds_ += retiredSpecIds_;
            retiredSpecIds_ = 0;
            ++stats.specIdReclaims;
        } else {
            ++stats.specIdWaits;
            ctx.spinUntil([this] { return freeSpecIds_ > 0 ||
                                          retiredSpecIds_ > 0; },
                          lockPollCost);
        }
    }
    --freeSpecIds_;
    tx.holdsSpecId_ = true;
}

void
Runtime::releaseSpecId(Tx& tx)
{
    if (!tx.holdsSpecId_)
        return;
    tx.holdsSpecId_ = false;
    // Released IDs are only reusable after a reclamation pass.
    ++retiredSpecIds_;
}

} // namespace htmsim::htm
