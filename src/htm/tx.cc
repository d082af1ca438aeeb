#include "tx.hh"

#include <cstdio>
#include <stdexcept>

#include "runtime.hh"

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

void
writeMemory(void* addr, std::size_t size, std::uint64_t word)
{
    std::memcpy(addr, &word, size);
}

[[noreturn]] void
throwMixedWidth(std::uintptr_t uaddr, std::size_t buffered,
                std::size_t size)
{
    char text[128];
    std::snprintf(text, sizeof text,
                  "mixed-width access at %#llx: %zu-byte access to a "
                  "word buffered as %zu bytes",
                  (unsigned long long)uaddr, size, buffered);
    throw std::logic_error(text);
}

} // namespace

void
Tx::checkDoom()
{
    if (status_ == TxStatus::doomed)
        selfAbort(doomCause_);
}

void
Tx::selfAbort(AbortCause cause)
{
    if (!checkpointLive_)
        throw std::logic_error("transaction abort outside an attempt");
    checkpointLive_ = false;
    raised_ = cause;
    std::longjmp(checkpoint_, 1);
}

const Tx::WriteEntry*
Tx::findBuffered(std::uintptr_t uaddr, std::size_t size) const
{
    const WriteEntry* entry = writeBuffer_.find(uaddr);
    if (entry != nullptr && entry->size != size)
        throwMixedWidth(uaddr, entry->size, size);
    return entry;
}

std::uint64_t
Tx::loadWord(const void* addr, std::size_t size)
{
    sim::assertSimulated(addr);
    const MachineConfig& machine = runtime_->machine();
    const auto uaddr = std::uintptr_t(addr);

    if (status_ == TxStatus::irrevocable) {
        ctx_->advance(machine.nonTxLoadCost);
        ctx_->sync();
        runtime_->nonTxConflict(tid_, uaddr, false, ctx_->now());
        return readMemory(addr, size);
    }

    if (suspended_) {
        // POWER8 suspended mode: a plain access that does not grow the
        // transactional footprint. It still behaves like any non-
        // transactional access towards *other* transactions.
        ctx_->advance(machine.nonTxLoadCost);
        ctx_->sync();
        runtime_->nonTxConflict(tid_, uaddr, false, ctx_->now());
        if (const WriteEntry* entry = findBuffered(uaddr, size))
            return entry->value;
        return readMemory(addr, size);
    }

    if (status_ == TxStatus::rollbackOnly) {
        // ROT loads are untracked: no conflict detection at all.
        ctx_->advance(machine.txLoadCost);
        ctx_->sync();
        if (const WriteEntry* entry = findBuffered(uaddr, size))
            return entry->value;
        return readMemory(addr, size);
    }

    if (status_ == TxStatus::software) {
        // Hybrid backend's STM slow path: orec-validated read (stm.cc).
        return stmLoadWord(addr, size);
    }

    assert(status_ == TxStatus::active || status_ == TxStatus::doomed);
    runtime_->stats_[tid_].txLoads++;

    // Effective cost resolved at Runtime construction (Blue Gene/Q
    // short-mode L1 bypass already folded in).
    ctx_->advance(runtime_->txLoadCost_);
    ctx_->sync();
    checkDoom();

    if (constrained_ && ++opCount_ > constrainedMaxOps())
        throw std::logic_error("constrained tx exceeded operation limit");

    if (runtime_->cacheFetchProb_ > 0.0 &&
        rng().nextBool(runtime_->cacheFetchProb_)) {
        selfAbort(AbortCause::cacheFetch);
    }

    if (runtime_->hazard_.enabled()) {
        const AbortCause hazard =
            runtime_->hazard_.onAccess(tid_, ctx_->now());
        if (hazard != AbortCause::none)
            selfAbort(hazard);
    }

    // Read-mostly transactions keep the write buffer empty: one size
    // check skips the guaranteed-miss hash probe.
    if (!writeBuffer_.empty()) {
        if (const WriteEntry* buffered = findBuffered(uaddr, size))
            return buffered->value;
    }

    // Last-line memo: consecutive loads of a line whose read
    // bookkeeping is already complete (the sequential-scan pattern of
    // genome/ssca2/labyrinth) skip the conflict and capacity probes
    // entirely. The skipped calls would early-return anyway, so the
    // model — including the RNG draw order of the prefetcher — is
    // unchanged. The prefetch-probability test is hoisted out of
    // maybePrefetch: zero on three of the four machines.
    const std::uintptr_t conflict_line =
        uaddr >> runtime_->conflictShift_;
    const std::uintptr_t capacity_line =
        uaddr >> runtime_->capacityShift_;
    if (conflict_line == memoReadConflictLine_ &&
        capacity_line == memoReadCapacityLine_) {
        if (runtime_->prefetchProb_ > 0.0)
            maybePrefetch(uaddr);
        checkConstraintFootprint();
        return readMemory(addr, size);
    }

    touchConflictLine(uaddr, false);
    if (runtime_->prefetchProb_ > 0.0)
        maybePrefetch(uaddr);
    touchCapacityLine(uaddr, false);
    checkConstraintFootprint();
    memoReadConflictLine_ = conflict_line;
    memoReadCapacityLine_ = capacity_line;
    return readMemory(addr, size);
}

void
Tx::storeWord(void* addr, std::size_t size, std::uint64_t value)
{
    sim::assertSimulated(addr);
    const MachineConfig& machine = runtime_->machine();
    const auto uaddr = std::uintptr_t(addr);

    if (status_ == TxStatus::irrevocable || suspended_) {
        // Irrevocable and POWER8 suspended stores alike go straight to
        // memory as strongly isolated non-transactional stores.
        ctx_->advance(machine.nonTxStoreCost);
        ctx_->sync();
        runtime_->nonTxConflict(tid_, uaddr, true, ctx_->now());
        writeMemory(addr, size, value);
        return;
    }

    if (status_ == TxStatus::rollbackOnly) {
        // ROT stores are buffered and capacity-bounded (they occupy
        // TMCAM entries) but raise no conflicts.
        ctx_->advance(machine.txStoreCost);
        ctx_->sync();
        bufferStore(uaddr, size, value);
        touchCapacityLine(uaddr, true);
        return;
    }

    if (status_ == TxStatus::software) {
        // Hybrid backend's STM slow path: buffered write with orec
        // logging (stm.cc).
        stmStoreWord(addr, size, value);
        return;
    }

    assert(status_ == TxStatus::active || status_ == TxStatus::doomed);
    runtime_->stats_[tid_].txStores++;

    ctx_->advance(runtime_->txStoreCost_);
    ctx_->sync();
    checkDoom();

    if (constrained_ && ++opCount_ > constrainedMaxOps())
        throw std::logic_error("constrained tx exceeded operation limit");

    if (runtime_->cacheFetchProb_ > 0.0 &&
        rng().nextBool(runtime_->cacheFetchProb_)) {
        selfAbort(AbortCause::cacheFetch);
    }

    if (runtime_->hazard_.enabled()) {
        const AbortCause hazard =
            runtime_->hazard_.onAccess(tid_, ctx_->now());
        if (hazard != AbortCause::none)
            selfAbort(hazard);
    }

    // Same memo as loadWord, for the write flags.
    const std::uintptr_t conflict_line =
        uaddr >> runtime_->conflictShift_;
    const std::uintptr_t capacity_line =
        uaddr >> runtime_->capacityShift_;
    if (conflict_line == memoWriteConflictLine_ &&
        capacity_line == memoWriteCapacityLine_) {
        if (runtime_->prefetchProb_ > 0.0)
            maybePrefetch(uaddr);
        checkConstraintFootprint();
        bufferStore(uaddr, size, value);
        return;
    }

    touchConflictLine(uaddr, true);
    if (runtime_->prefetchProb_ > 0.0)
        maybePrefetch(uaddr);
    touchCapacityLine(uaddr, true);
    checkConstraintFootprint();
    memoWriteConflictLine_ = conflict_line;
    memoWriteCapacityLine_ = capacity_line;
    bufferStore(uaddr, size, value);
}

void
Tx::bufferStore(std::uintptr_t uaddr, std::size_t size,
                std::uint64_t value)
{
    bool inserted = false;
    WriteEntry& entry = writeBuffer_.insertOrFind(uaddr, &inserted);
    if (inserted)
        writeLog_.push_back(uaddr);
    else if (entry.size != size)
        throwMixedWidth(uaddr, entry.size, size);
    entry = WriteEntry{value, std::uint8_t(size)};
}

void
Tx::touchConflictLine(std::uintptr_t addr, bool is_write)
{
    const std::uintptr_t line_number = runtime_->conflictLineOf(addr);
    ConflictCell line = runtime_->directory_.cell(line_number);
    const bool read = line.hasReader(tid_);
    if (line.ownedBy(tid_) || (read && !is_write))
        return;
    if (!read)
        touchLog_.push_back(line_number);

    const int writer = line.owner();
    if (writer >= 0) {
        runtime_->resolveConflict(*this, unsigned(writer),
                                  AbortCause::dataConflict, line_number);
    }
    if (!is_write) {
        line.addReader(tid_);
        return;
    }
    // simcheck self-test fault: skip the reader-doom walk, letting a
    // concurrent reader commit a stale snapshot (runtime.hh,
    // CheckFault::missReaderConflict). Off in all experiments.
    if (runtime_->config_.checkFault != CheckFault::missReaderConflict) {
        line.forEachReaderExcept(tid_, [&](unsigned reader) {
            runtime_->resolveConflict(*this, reader,
                                      AbortCause::dataConflict,
                                      line_number);
        });
    }
    line.setOwner(tid_);
}

void
Tx::maybePrefetch(std::uintptr_t addr)
{
    // Effective probability: zero unless the machine has the
    // prefetcher, it is enabled, and the backend is not ideal. The
    // callers hoist the zero test; this one keeps the function safe
    // to call unconditionally.
    if (runtime_->prefetchProb_ <= 0.0)
        return;
    if (!rng().nextBool(runtime_->prefetchProb_))
        return;

    // The adjacent-line prefetcher pulls the accessed line's 128-byte
    // buddy into the cache; the HTM tracking treats it as
    // transactionally read, so a later peer store to that line raises
    // an unnecessary data conflict (Section 5.1, validated by Intel
    // developers). Structures an odd number of lines long therefore
    // leak conflicts across their boundaries (kmeans' 192-byte
    // clusters).
    const std::uintptr_t neighbour = runtime_->conflictLineOf(addr) ^ 1;
    ConflictCell line = runtime_->directory_.cell(neighbour);
    const int writer = line.owner();
    if (writer >= 0 && writer != int(tid_))
        return; // owned elsewhere: the prefetch is dropped
    if (writer < 0 && !line.hasReader(tid_))
        touchLog_.push_back(neighbour);
    line.addReader(tid_);
}

void
Tx::touchCapacityLine(std::uintptr_t addr, bool is_write)
{
    const std::uintptr_t line_number = addr >> runtime_->capacityShift_;
    std::uint8_t& flags = capacityLines_.insertOrFind(line_number);

    bool new_load = false;
    bool new_store = false;
    if (is_write && !(flags & lineWritten)) {
        flags |= lineWritten;
        ++storeLines_;
        new_store = true;
    } else if (!is_write && !(flags & lineRead)) {
        flags |= lineRead;
        ++loadLines_;
        new_load = true;
    }
    if (!new_load && !new_store)
        return;
    // ROT loads are untracked: they occupy no TMCAM entries.
    if (status_ == TxStatus::rollbackOnly && new_load)
        return;

    // SMT threads share the per-core tracking resources: the budget
    // shrinks with the number of concurrently transactional threads
    // on this core (Section 2, "resource sharing among SMT threads").
    const unsigned sharers = std::max(
        1u, runtime_->activeTxOnCore(runtime_->machine().coreOf(tid_)));

    FootprintAccount account{capacityLines_.size(), loadLines_,
                             storeLines_, &storeSetLines_};
    const AbortCause cause = runtime_->capacityModel_->judgeNewLine(
        line_number, new_store, sharers, account);
    if (cause != AbortCause::none)
        selfAbort(cause);
    if (runtime_->hazard_.enabled() &&
        runtime_->hazard_.capacityExceeded(tid_,
                                           capacityLines_.size())) {
        // Capacity misestimate: the hardware "granted" a tiny buffer
        // this attempt. The abort carries the organic capacity cause —
        // that is the deception the retry policy must survive — and is
        // tallied separately for attribution.
        ++runtime_->stats_[tid_].hazardCapacityAborts;
        selfAbort(AbortCause::capacityOverflow);
    }
}

void
Tx::checkConstraintFootprint()
{
    if (constrained_ && capacityLines_.size() > constrainedMaxLines())
        throw std::logic_error("constrained tx exceeded footprint limit");
}

void
Tx::work(sim::Cycles cycles)
{
    ctx_->step(cycles);
}

void*
Tx::allocBytes(std::size_t bytes)
{
    if (constrained_)
        throw std::logic_error("allocation inside a constrained tx");
    void* memory = sim::regionAlloc(bytes);
    if (status_ == TxStatus::irrevocable)
        return memory;

    // A doomed transaction may still allocate: like loads and stores,
    // the doom is only acted on at the next checkDoom() below.
    assert(status_ == TxStatus::active ||
           status_ == TxStatus::rollbackOnly ||
           status_ == TxStatus::software ||
           status_ == TxStatus::doomed);
    speculativeAllocs_.push_back({memory, bytes});

    if (status_ == TxStatus::software) {
        // The software path constructs objects in place (their memory
        // is private until publication), but the region recycles
        // addresses: a hardware peer may still be tracking the freed
        // object that lived here. Evict such stale readers/writers
        // exactly as a non-transactional store would — the call also
        // stamps the orecs through the hybrid instrumentation gate,
        // so stale software readers revalidate too.
        const MachineConfig& machine = runtime_->machine();
        const auto base = std::uintptr_t(memory);
        for (std::uintptr_t offset = 0; offset < bytes;
             offset += machine.capacityLineBytes) {
            ctx_->advance(machine.nonTxStoreCost +
                          HybridRuntimeConfig::stmAccessOverhead);
            runtime_->nonTxConflict(tid_, base + offset, true,
                                    ctx_->now());
        }
        ctx_->sync();
        return memory;
    }

    // Initializing stores are transactional on real HTM: charge the
    // object's lines to the write footprint and claim them in the
    // conflict directory.
    const MachineConfig& machine = runtime_->machine();
    const auto base = std::uintptr_t(memory);
    for (std::uintptr_t offset = 0; offset < bytes;
         offset += machine.capacityLineBytes) {
        ctx_->advance(machine.txStoreCost);
        if (status_ == TxStatus::active)
            touchConflictLine(base + offset, true);
        touchCapacityLine(base + offset, true);
    }
    ctx_->sync();
    checkDoom();
    return memory;
}

void
Tx::deallocBytes(void* ptr, std::size_t bytes)
{
    if (status_ == TxStatus::irrevocable) {
        runtime_->stmOnFree(ptr, bytes);
        sim::regionFree(ptr, bytes);
        return;
    }
    assert(status_ == TxStatus::active ||
           status_ == TxStatus::rollbackOnly ||
           status_ == TxStatus::software);
    deferredFrees_.push_back({ptr, bytes});
}

void
Tx::abortTx()
{
    if (status_ == TxStatus::irrevocable)
        throw std::logic_error("tabort in irrevocable execution");
    selfAbort(AbortCause::explicitAbort);
}

void
Tx::suspend()
{
    if (!runtime_->machine().hasSuspendResume)
        throw std::logic_error("suspend: machine lacks suspend/resume");
    assert(status_ == TxStatus::active);
    suspended_ = true;
}

void
Tx::resume()
{
    assert(suspended_);
    suspended_ = false;
    checkDoom();
}

void
Tx::resetAttemptState()
{
    // All tables clear by epoch bump: O(1), no frees, no rehashing —
    // aborts on high-retry workloads cost nothing in tracking state.
    writeBuffer_.clear();
    writeLog_.clear();
    touchLog_.clear();
    capacityLines_.clear();
    storeSetLines_.clear();
    stmOrecs_.clear();
    memoReadConflictLine_ = noLine;
    memoReadCapacityLine_ = noLine;
    memoWriteConflictLine_ = noLine;
    memoWriteCapacityLine_ = noLine;
    loadLines_ = 0;
    storeLines_ = 0;
    opCount_ = 0;
    suspended_ = false;
    doomCause_ = AbortCause::none;
    speculativeAllocs_.clear();
    deferredFrees_.clear();
}

} // namespace htmsim::htm
