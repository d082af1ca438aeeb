#include "stack_pool.hh"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace htmsim::sim
{

namespace
{
std::size_t
pageSize()
{
    static const std::size_t size = std::size_t(sysconf(_SC_PAGESIZE));
    return size;
}

std::size_t
roundUpToPage(std::size_t bytes)
{
    const std::size_t page = pageSize();
    return (bytes + page - 1) & ~(page - 1);
}
} // namespace

StackPool&
StackPool::instance()
{
    // Never destroyed: fibers may outlive any particular scheduler and
    // the arena must survive until process exit anyway.
    static StackPool* pool = new StackPool();
    return *pool;
}

StackPool::StackPool()
    : used_(maxSlots, false), committedBytes_(maxSlots, 0)
{
    // MAP_NORESERVE: the arena is address space, not memory — only
    // committed-and-touched stack pages ever become resident.
    void* arena =
        mmap(nullptr, std::size_t(maxSlots) * slotStrideBytes,
             PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
             -1, 0);
    if (arena == MAP_FAILED)
        throw std::runtime_error("StackPool: arena mmap failed");
    arena_ = static_cast<char*>(arena);
}

unsigned
StackPool::reserveRange(unsigned count)
{
    assert(count > 0);
    unsigned run = 0;
    for (unsigned slot = 0; slot < maxSlots; ++slot) {
        run = used_[slot] ? 0 : run + 1;
        if (run == count) {
            const unsigned base = slot + 1 - count;
            for (unsigned i = base; i <= slot; ++i)
                used_[i] = true;
            return base;
        }
    }
    throw std::runtime_error(
        "StackPool: no contiguous range of " + std::to_string(count) +
        " stack slots free (arena capacity " +
        std::to_string(maxSlots) + ")");
}

void
StackPool::releaseRange(unsigned base, unsigned count)
{
    for (unsigned slot = base; slot < base + count; ++slot) {
        assert(used_[slot] && "releasing a slot that was never reserved");
        if (committed(slot))
            decommit(slot);
        used_[slot] = false;
    }
}

StackSpan
StackPool::commit(unsigned slot, std::size_t stack_bytes)
{
    assert(slot < maxSlots && used_[slot]);
    assert(stack_bytes > 0 && stack_bytes <= maxStackBytes);
    const std::size_t bytes = roundUpToPage(stack_bytes);
    if (committedBytes_[slot] != 0) {
        assert(committedBytes_[slot] == bytes &&
               "slot recommitted with a different stack size");
        return StackSpan{slotTop(slot) - bytes, bytes};
    }
    char* base = slotTop(slot) - bytes;
    if (mprotect(base, bytes, PROT_READ | PROT_WRITE) != 0)
        throw std::runtime_error("StackPool: mprotect(RW) failed");
    committedBytes_[slot] = bytes;
    totalCommitted_ += bytes;
    peakCommitted_ = std::max(peakCommitted_, totalCommitted_);
    ++commitCount_;
    return StackSpan{base, bytes};
}

void
StackPool::decommit(unsigned slot)
{
    assert(slot < maxSlots);
    const std::size_t bytes = committedBytes_[slot];
    if (bytes == 0)
        return;
    char* base = slotTop(slot) - bytes;
    // DONTNEED drops the resident pages now; flipping back to
    // PROT_NONE restores the full-slot guard for the next tenant.
    madvise(base, bytes, MADV_DONTNEED);
    mprotect(base, bytes, PROT_NONE);
    committedBytes_[slot] = 0;
    totalCommitted_ -= bytes;
}

} // namespace htmsim::sim
