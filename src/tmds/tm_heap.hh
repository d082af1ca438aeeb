/**
 * @file
 * Transactional binary max-heap (STAMP lib/heap equivalent). yada uses
 * it as the shared work queue of bad triangles; the comparator may
 * dereference element payloads through the context, so comparisons
 * contribute to the transactional footprint exactly as in STAMP.
 */

#ifndef HTMSIM_TMDS_TM_HEAP_HH
#define HTMSIM_TMDS_TM_HEAP_HH

#include <cstdint>

#include "sim/region.hh"

namespace htmsim::tmds
{

/**
 * Array-backed max-heap of uint64 payloads ordered by
 * Compare::compare(ctx, a, b) (> 0 means a has higher priority).
 */
template <typename Compare>
class TmHeap
{
  public:
    explicit TmHeap(std::size_t initial_capacity = 16)
        : capacity_(initial_capacity < 2 ? 2 : initial_capacity)
    {
        items_ = static_cast<std::uint64_t*>(
            sim::regionAlloc(capacity_ * sizeof(std::uint64_t)));
    }

    TmHeap(const TmHeap&) = delete;
    TmHeap& operator=(const TmHeap&) = delete;
    ~TmHeap()
    {
        sim::regionFree(items_, capacity_ * sizeof(std::uint64_t));
    }

    template <typename Ctx>
    std::uint64_t
    size(Ctx& c)
    {
        return c.load(&size_);
    }

    template <typename Ctx>
    bool
    empty(Ctx& c)
    {
        return c.load(&size_) == 0;
    }

    template <typename Ctx>
    void
    insert(Ctx& c, std::uint64_t item)
    {
        std::uint64_t size = c.load(&size_);
        if (size + 1 >= c.load(&capacity_))
            grow(c);
        std::uint64_t* items = c.load(&items_);
        c.store(&items[size], item);
        siftUp(c, items, size);
        c.store(&size_, size + 1);
    }

    /** Remove and return the highest-priority item (0 when empty). */
    template <typename Ctx>
    bool
    popMax(Ctx& c, std::uint64_t* out)
    {
        const std::uint64_t size = c.load(&size_);
        if (size == 0)
            return false;
        std::uint64_t* items = c.load(&items_);
        if (out != nullptr)
            *out = c.load(&items[0]);
        const std::uint64_t last = c.load(&items[size - 1]);
        c.store(&items[0], last);
        c.store(&size_, size - 1);
        siftDown(c, items, 0, size - 1);
        return true;
    }

    /** Visit every item in array (heap) order: f(item). */
    template <typename Ctx, typename F>
    void
    forEach(Ctx& c, F&& f)
    {
        const std::uint64_t size = c.load(&size_);
        std::uint64_t* items = c.load(&items_);
        for (std::uint64_t i = 0; i < size; ++i)
            f(c.load(&items[i]));
    }

  private:
    template <typename Ctx>
    void
    grow(Ctx& c)
    {
        const std::uint64_t capacity = c.load(&capacity_);
        const std::uint64_t new_capacity = capacity * 2;
        auto* fresh = static_cast<std::uint64_t*>(
            c.allocBytes(new_capacity * sizeof(std::uint64_t)));
        std::uint64_t* items = c.load(&items_);
        const std::uint64_t size = c.load(&size_);
        for (std::uint64_t i = 0; i < size; ++i)
            c.store(&fresh[i], c.load(&items[i]));
        c.deallocBytes(items, capacity * sizeof(std::uint64_t));
        c.store(&items_, fresh);
        c.store(&capacity_, new_capacity);
    }

    template <typename Ctx>
    void
    siftUp(Ctx& c, std::uint64_t* items, std::uint64_t index)
    {
        while (index > 0) {
            const std::uint64_t parent = (index - 1) / 2;
            const std::uint64_t child_item = c.load(&items[index]);
            const std::uint64_t parent_item = c.load(&items[parent]);
            if (Compare::compare(c, child_item, parent_item) <= 0)
                break;
            c.store(&items[parent], child_item);
            c.store(&items[index], parent_item);
            index = parent;
        }
    }

    template <typename Ctx>
    void
    siftDown(Ctx& c, std::uint64_t* items, std::uint64_t index,
             std::uint64_t size)
    {
        for (;;) {
            const std::uint64_t left = 2 * index + 1;
            if (left >= size)
                break;
            const std::uint64_t right = left + 1;
            std::uint64_t best = left;
            if (right < size &&
                Compare::compare(c, c.load(&items[right]),
                                 c.load(&items[left])) > 0) {
                best = right;
            }
            const std::uint64_t parent_item = c.load(&items[index]);
            const std::uint64_t best_item = c.load(&items[best]);
            if (Compare::compare(c, best_item, parent_item) <= 0)
                break;
            c.store(&items[index], best_item);
            c.store(&items[best], parent_item);
            index = best;
        }
    }

    std::uint64_t* items_ = nullptr;
    std::uint64_t capacity_;
    std::uint64_t size_ = 0;
};

} // namespace htmsim::tmds

#endif // HTMSIM_TMDS_TM_HEAP_HH
