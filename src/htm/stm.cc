/**
 * @file
 * The hybrid backend's software slow path: TL2-style software
 * transactions (stm.hh) running through the same Tx context, trace
 * events and statistics as hardware attempts.
 *
 * Everything software-path-specific lives in this translation unit —
 * the begin/commit/rollback drivers on the Runtime and the
 * orec-checked access slow paths on the Tx — so the hardware hot
 * paths in tx.cc / runtime.cc carry nothing but a status dispatch and
 * the stmEnabled_-gated instrumentation hooks.
 *
 * Protocol (TL2 with lazy versioning, adapted to virtual time):
 *
 *  - begin: snapshot the global version clock (the read version, rv)
 *    and the wraparound epoch;
 *  - load: abort unless the address's orec version is <= rv (opacity —
 *    the check and the memory read share one scheduling quantum, so a
 *    stale value can never be *observed*); log the orec as read;
 *  - store: buffer the value in the write buffer, log the orec as
 *    written;
 *  - commit: one scheduling point charges the full commit cost, then
 *    an atomic region (no scheduling points) checks the fallback
 *    lock, revalidates every read orec against rv, takes a new write
 *    version wv from the clock, writes the buffer back — dooming
 *    conflicting hardware transactions through the conflict
 *    directory, per written address, exactly like a
 *    non-transactional store — bumps the written orecs to wv, and
 *    publishes wv to the clock cell hardware transactions subscribe
 *    to.
 *
 * Because the commit region is atomic in virtual time, software
 * commits serialize at their commit events and the differential
 * oracle replays them by that order, the same contract hardware
 * commits satisfy. Software transactions take no speculation id,
 * never appear in the conflict directory and cannot be doomed by
 * peers: every conflict they lose is discovered by validation.
 */

#include "stm.hh"

#include <cstring>

#include "runtime.hh"
#include "tx.hh"

namespace htmsim::htm
{

namespace
{

std::uint64_t
readMemory(const void* addr, std::size_t size)
{
    std::uint64_t word = 0;
    std::memcpy(&word, addr, size);
    return word;
}

} // namespace

// --------------------------------------------------------------------
// Tx access slow paths
// --------------------------------------------------------------------

std::uint64_t
Tx::stmLoadWord(const void* addr, std::size_t size)
{
    const MachineConfig& machine = runtime_->machine();
    const auto uaddr = std::uintptr_t(addr);
    runtime_->stats_[tid_].txLoads++;

    // Software loads bypass the transactional tracking hardware: they
    // pay the plain access cost plus the orec hash/check/log overhead.
    ctx_->advance(machine.nonTxLoadCost +
                  runtime_->config_.hybrid.stmAccessOverhead);
    ctx_->sync();

    // No scheduling points from here to the return: the version check
    // and the memory read are atomic in virtual time (opacity).
    if (!writeBuffer_.empty()) {
        if (const WriteEntry* buffered = writeBuffer_.find(uaddr)) {
            assert(buffered->size == size);
            return buffered->value;
        }
    }

    StmEngine& stm = runtime_->stm_;
    if (stm.epoch() != stmEpoch_) {
        // The clock wrapped since begin: rv belongs to the previous
        // epoch and validates nothing.
        selfAbort(AbortCause::stmConflict);
    }
    const std::size_t index = stm.indexOfAddr(uaddr);
    if (stm.orecVersion(index) > stmRv_) {
        // Someone committed a write to this orec after our snapshot
        // (or a colliding line's write — false conflicts are part of
        // the orec deal).
        selfAbort(AbortCause::stmConflict);
    }
    touchOrec(index, lineRead);
    return readMemory(addr, size);
}

void
Tx::stmStoreWord(void* addr, std::size_t size, std::uint64_t value)
{
    const MachineConfig& machine = runtime_->machine();
    const auto uaddr = std::uintptr_t(addr);
    runtime_->stats_[tid_].txStores++;

    ctx_->advance(machine.nonTxStoreCost +
                  runtime_->config_.hybrid.stmAccessOverhead);
    ctx_->sync();

    StmEngine& stm = runtime_->stm_;
    if (stm.epoch() != stmEpoch_)
        selfAbort(AbortCause::stmConflict);
    // Lazy versioning: the write sits in the buffer until commit; the
    // orec is logged now so commit knows which orecs to bump.
    touchOrec(stm.indexOfAddr(uaddr), lineWritten);
    bufferStore(uaddr, size, value);
}

void
Tx::touchOrec(std::size_t index, std::uint8_t flag)
{
    bool inserted = false;
    stmOrecs_.insertOrFind(index, &inserted) |= flag;
    if (inserted)
        touchLog_.push_back(index);
}

// --------------------------------------------------------------------
// Runtime drivers
// --------------------------------------------------------------------

void
Runtime::stmBegin(Tx& tx, sim::ThreadContext& ctx)
{
    tx.ctx_ = &ctx;
    tx.resetAttemptState();
    tx.attemptStart_ = ctx.now();

    ctx.advance(config_.hybrid.stmBeginCost);
    ctx.sync();

    // No speculation id, no core-occupancy count, no directory
    // presence: the software path uses none of the hardware tracking
    // resources — that is its whole reason to exist.
    tx.status_ = TxStatus::software;
    tx.stmEpoch_ = stm_.epoch();
    tx.stmRv_ = stm_.clock();
    emitEvent(TxEventKind::begin, tx.tid_, tx.site_, ctx.now(),
              tx.attemptStart_);
}

AbortCause
Runtime::stmCommit(Tx& tx, sim::ThreadContext& ctx)
{
    const HybridRuntimeConfig& hybrid = config_.hybrid;

    // Charge the whole commit once, before the atomic region: base fee
    // plus revalidation per tracked orec plus write-back per buffered
    // word.
    ctx.advance(hybrid.stmCommitBase +
                hybrid.stmValidateCost * Cycles(tx.stmOrecs_.size()) +
                config_.machine.nonTxStoreCost *
                    Cycles(tx.writeLog_.size()));
    ctx.sync();

    // Commit point: no scheduling points below, so lock check,
    // validation, write-back and publication are atomic in virtual
    // time — the commit event *is* the serialization point the
    // differential oracle replays by. The aborts decided here are
    // returned, not thrown: no body frame is left to unwind.
    if (*lockWord_ != 0) {
        // An irrevocable section owns memory outright; committing
        // around it would interleave with its direct stores. Aborting
        // here also keeps the trace invariant that no transactional
        // commit happens while the fallback lock is held.
        return AbortCause::lockConflict;
    }
    if (stm_.epoch() != tx.stmEpoch_)
        return AbortCause::stmConflict;

    for (const std::uintptr_t index : tx.touchLog_) {
        if ((*tx.stmOrecs_.find(index) & Tx::lineRead) != 0 &&
            stm_.orecVersion(std::size_t(index)) > tx.stmRv_)
            return AbortCause::stmConflict;
    }

    const Cycles now = ctx.now();
    const std::uint64_t wv = stm_.advanceClock();
    // simcheck self-test fault (CheckFault::missStmSubscription): the
    // write-back "forgets" to doom hardware subscribers — neither the
    // per-address evictions nor the clock-cell publication happen, so
    // a concurrent hardware reader commits a stale snapshot. The orec
    // bumps are kept: software-vs-software stays correct, the bug is
    // purely on the hybrid boundary. Off in all experiments.
    const bool publish =
        config_.checkFault != CheckFault::missStmSubscription;
    for (const std::uintptr_t addr : tx.writeLog_) {
        const Tx::WriteEntry* entry = tx.writeBuffer_.find(addr);
        if (publish) {
            // Strong isolation towards the hardware: every written
            // word evicts conflicting hardware readers and writers
            // through the directory, exactly like a non-transactional
            // store (this call also stamps the orec via the hybrid
            // instrumentation gate; the bump below then pins it to
            // this commit's wv).
            nonTxConflict(tx.tid_, addr, true, now);
        }
        std::memcpy(reinterpret_cast<void*>(addr), &entry->value,
                    entry->size);
        stm_.bumpOrec(stm_.indexOfAddr(addr), wv);
    }
    if (publish) {
        // The subscription channel: dooms every hardware transaction
        // that loaded the clock cell at begin (eager mode), then
        // updates the value lazy-mode hardware commits compare.
        nonTxConflict(tx.tid_, std::uintptr_t(stm_.clockCellAddr()),
                      true, now);
        stm_.publishClock(wv);
    }
    for (const auto& record : tx.deferredFrees_) {
        stm_.onFree(record.ptr, record.bytes);
        sim::regionFree(record.ptr, record.bytes);
    }

    if (config_.collectTrace)
        trace_.record(tx.loadLines_, tx.storeLines_);

    TxStats& stats = stats_[tx.tid_];
    ++stats.stmCommits;
    stats.committedStmCycles += now - tx.attemptStart_;
    tx.status_ = TxStatus::inactive;
    emitEvent(TxEventKind::commit, tx.tid_, tx.site_, now,
              tx.attemptStart_);
    return AbortCause::none;
}

void
Runtime::stmRollback(Tx& tx, sim::ThreadContext& ctx, AbortCause cause)
{
    // Nothing was written and nothing marked in the directory: discard
    // the speculative allocations and the buffers die with the next
    // resetAttemptState.
    for (const auto& record : tx.speculativeAllocs_)
        sim::regionFree(record.ptr, record.bytes);
    tx.status_ = TxStatus::inactive;
    tx.suspended_ = false;

    ctx.advance(config_.hybrid.stmAbortCost);
    ctx.sync();

    TxStats& stats = stats_[tx.tid_];
    stats.wastedStmCycles += ctx.now() - tx.attemptStart_;
    // The software path knows its own abort causes exactly — no
    // reported-category laundering through hardware reason codes.
    ++stats.trueCauseAborts[std::size_t(cause)];
    ++stats.reportedAborts[std::size_t(categorize(cause))];
    emitEvent(TxEventKind::abort, tx.tid_, tx.site_, ctx.now(),
              tx.attemptStart_, cause);
}

AbortCause
Runtime::stmAttempt(Tx& tx, sim::ThreadContext& ctx,
                    FunctionRef<void(Tx&)> body)
{
    AbortCause raised;
    try {
        stmBegin(tx, ctx);
        body(tx);
        raised = stmCommit(tx, ctx);
        if (raised == AbortCause::none)
            return AbortCause::none;
    } catch (const TxAbortException& abort) {
        // Copy only: stmRollback switches fibers (see attempt()).
        raised = abort.cause;
    }
    const AbortCause cause =
        raised == AbortCause::none ? AbortCause::stmConflict : raised;
    stmRollback(tx, ctx, cause);
    return cause;
}

} // namespace htmsim::htm
