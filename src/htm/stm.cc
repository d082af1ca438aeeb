/**
 * @file
 * The hybrid backend's software slow path: TL2-style software
 * transactions (stm.hh). A software attempt is the same transaction
 * lifecycle as a hardware one with different instrumentation, so it
 * runs through Runtime::attempt (runtime.cc) like every other kind,
 * with its checkpoint, begin prolog, commit tail and rollback tail.
 * This translation unit holds only what the software kind does
 * differently: the orec-checked access slow paths on the Tx and the
 * commit point's validation and publication on the Runtime. The
 * hardware hot paths in tx.cc / runtime.cc carry nothing but a status
 * dispatch and the stmEnabled_-gated instrumentation hooks.
 *
 * Protocol (TL2 with lazy versioning, adapted to virtual time):
 *
 *  - begin: snapshot the global version clock (the read version, rv);
 *  - load: abort unless the address's orec version is <= rv (opacity —
 *    the check and the memory read share one scheduling quantum, so a
 *    stale value can never be *observed*); log the orec as read;
 *  - store: buffer the value in the write buffer, log the orec as
 *    written;
 *  - commit: one scheduling point charges the full commit cost, then
 *    an atomic region (no scheduling points) checks the fallback
 *    lock, revalidates every read orec against rv, takes a new write
 *    version wv from the clock, dooms the conflicting hardware
 *    transactions of every buffered word through the conflict
 *    directory, exactly like a non-transactional store, bumps the
 *    written orecs to wv and publishes wv to the clock cell hardware
 *    transactions subscribe to — and only then writes the buffer
 *    back, so an exception thrown by an observer of those conflicts
 *    leaves memory untouched.
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
                  HybridRuntimeConfig::stmAccessOverhead);
    ctx_->sync();

    // No scheduling points from here to the return: the version check
    // and the memory read are atomic in virtual time (opacity).
    if (!writeBuffer_.empty()) {
        if (const WriteEntry* buffered = findBuffered(uaddr, size))
            return buffered->value;
    }

    StmEngine& stm = runtime_->stm_;
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
                  HybridRuntimeConfig::stmAccessOverhead);
    ctx_->sync();

    StmEngine& stm = runtime_->stm_;
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
// The software commit point
// --------------------------------------------------------------------

AbortCause
Runtime::softwareCommitPoint(Tx& tx, sim::ThreadContext& ctx)
{
    // Charge the whole commit once, before the atomic region: base fee
    // plus revalidation per tracked orec plus write-back per buffered
    // word.
    ctx.advance(HybridRuntimeConfig::stmCommitBase +
                HybridRuntimeConfig::stmValidateCost *
                    Cycles(tx.stmOrecs_.size()) +
                config_.machine.nonTxStoreCost *
                    Cycles(tx.writeLog_.size()));
    ctx.sync();

    // Commit point: no scheduling points from here to the commit
    // event, so lock check, validation, publication and write-back are
    // atomic in virtual time — the commit event *is* the serialization
    // point the differential oracle replays by.
    if (*lockWord_ != 0) {
        // An irrevocable section owns memory outright; committing
        // around it would interleave with its direct stores. Aborting
        // here also keeps the trace invariant that no transactional
        // commit happens while the fallback lock is held.
        return AbortCause::lockConflict;
    }

    for (const std::uintptr_t index : tx.touchLog_) {
        if ((*tx.stmOrecs_.find(index) & Tx::lineRead) != 0 &&
            stm_.orecVersion(std::size_t(index)) > tx.stmRv_)
            return AbortCause::stmConflict;
    }

    // Publication, all of it before the commit tail writes the first
    // word back: an exception thrown from a conflict event here leaves
    // memory untouched, and the driver discards the attempt.
    const Cycles now = ctx.now();
    const std::uint64_t wv = stm_.advanceClock();
    // simcheck self-test fault (CheckFault::missStmSubscription): the
    // commit "forgets" to doom hardware subscribers — neither the
    // per-address evictions nor the clock-cell publication happen, so
    // a concurrent hardware reader commits a stale snapshot. The orec
    // bumps are kept: software-vs-software stays correct, the bug is
    // purely on the hybrid boundary. Off in all experiments.
    const bool publish =
        config_.checkFault != CheckFault::missStmSubscription;
    for (const std::uintptr_t addr : tx.writeLog_) {
        if (publish) {
            // Strong isolation towards the hardware: every buffered
            // word evicts conflicting hardware readers and writers
            // through the directory, exactly like a non-transactional
            // store (this call also stamps the orec via the hybrid
            // instrumentation gate; the bump below then pins it to
            // this commit's wv).
            nonTxConflict(tx.tid_, addr, true, now);
        }
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
    return AbortCause::none;
}

} // namespace htmsim::htm
