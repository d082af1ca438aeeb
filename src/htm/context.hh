/**
 * @file
 * Alternative access contexts sharing the Tx interface.
 *
 * Library data structures and STAMP kernels are written once against a
 * duck-typed context concept (load/store/create/destroy/work). Three
 * models satisfy it:
 *
 *  - htm::Tx           transactional, timed (the real thing)
 *  - htm::SeqContext   direct memory, timed with non-transactional
 *                      costs — the paper's sequential non-HTM baseline
 *  - htm::DirectContext direct memory, zero time — setup/verification
 */

#ifndef HTMSIM_HTM_CONTEXT_HH
#define HTMSIM_HTM_CONTEXT_HH

#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>

#include "machine.hh"
#include "sim/region.hh"
#include "sim/scheduler.hh"

namespace htmsim::htm
{

/**
 * Timed direct-memory context: models ordinary (non-transactional)
 * execution on a machine. Used for the sequential baseline runs whose
 * virtual time is the denominator of every speed-up ratio.
 */
class SeqContext
{
  public:
    SeqContext(sim::ThreadContext& ctx, const MachineConfig& machine)
        : ctx_(&ctx), machine_(&machine)
    {
    }

    template <typename T>
    T
    load(const T* addr)
    {
        static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8);
        sim::assertSimulated(addr);
        ctx_->advance(machine_->nonTxLoadCost);
        return *addr;
    }

    template <typename T>
    void
    store(T* addr, T value)
    {
        static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8);
        sim::assertSimulated(addr);
        ctx_->advance(machine_->nonTxStoreCost);
        *addr = value;
    }

    void work(sim::Cycles cycles) { ctx_->advance(cycles); }

    void*
    allocBytes(std::size_t bytes)
    {
        ctx_->advance(machine_->nonTxStoreCost);
        return sim::regionAlloc(bytes);
    }

    void
    deallocBytes(void* ptr, std::size_t bytes)
    {
        sim::regionFree(ptr, bytes);
    }

    template <typename T, typename... Args>
    T*
    create(Args&&... args)
    {
        return ::new (allocBytes(sizeof(T)))
            T(std::forward<Args>(args)...);
    }

    template <typename T>
    void
    destroy(T* ptr)
    {
        deallocBytes(ptr, sizeof(T));
    }

    /** Sequential code is by construction irrevocable. */
    bool isIrrevocable() const { return true; }
    unsigned tid() const { return ctx_->id(); }
    sim::ThreadContext& ctx() { return *ctx_; }
    sim::Rng& rng() { return ctx_->rng(); }

  private:
    sim::ThreadContext* ctx_;
    const MachineConfig* machine_;
};

/**
 * Untimed direct-memory context for setup and verification phases
 * (STAMP does not time them either). Usable outside any scheduler.
 */
class DirectContext
{
  public:
    template <typename T>
    T
    load(const T* addr)
    {
        static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8);
        sim::assertSimulated(addr);
        return *addr;
    }

    template <typename T>
    void
    store(T* addr, T value)
    {
        static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8);
        sim::assertSimulated(addr);
        *addr = value;
    }

    void work(sim::Cycles) {}

    void*
    allocBytes(std::size_t bytes)
    {
        return sim::regionAlloc(bytes);
    }

    void
    deallocBytes(void* ptr, std::size_t bytes)
    {
        sim::regionFree(ptr, bytes);
    }

    template <typename T, typename... Args>
    T*
    create(Args&&... args)
    {
        return ::new (allocBytes(sizeof(T)))
            T(std::forward<Args>(args)...);
    }

    template <typename T>
    void
    destroy(T* ptr)
    {
        deallocBytes(ptr, sizeof(T));
    }

    bool isIrrevocable() const { return true; }
    unsigned tid() const { return 0; }
};

} // namespace htmsim::htm

#endif // HTMSIM_HTM_CONTEXT_HH
