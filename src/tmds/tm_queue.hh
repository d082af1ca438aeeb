/**
 * @file
 * Transactional growable ring-buffer queue (STAMP lib/queue
 * equivalent). Used by intruder for the packet and result streams.
 */

#ifndef HTMSIM_TMDS_TM_QUEUE_HH
#define HTMSIM_TMDS_TM_QUEUE_HH

#include <cstdint>

#include "sim/region.hh"

namespace htmsim::tmds
{

/** FIFO of uint64 payloads (typically pointers). */
class TmQueue
{
  public:
    explicit TmQueue(std::size_t initial_capacity = 8)
        : capacity_(initial_capacity < 2 ? 2 : initial_capacity)
    {
        items_ = static_cast<std::uint64_t*>(
            sim::regionAlloc(capacity_ * sizeof(std::uint64_t)));
    }

    TmQueue(const TmQueue&) = delete;
    TmQueue& operator=(const TmQueue&) = delete;
    ~TmQueue()
    {
        sim::regionFree(items_, capacity_ * sizeof(std::uint64_t));
    }

    template <typename Ctx>
    bool
    empty(Ctx& c)
    {
        return c.load(&head_) == c.load(&tail_);
    }

    template <typename Ctx>
    std::uint64_t
    size(Ctx& c)
    {
        const std::uint64_t head = c.load(&head_);
        const std::uint64_t tail = c.load(&tail_);
        const std::uint64_t capacity = c.load(&capacity_);
        return (tail + capacity - head) % capacity;
    }

    template <typename Ctx>
    void
    push(Ctx& c, std::uint64_t item)
    {
        std::uint64_t head = c.load(&head_);
        std::uint64_t tail = c.load(&tail_);
        std::uint64_t capacity = c.load(&capacity_);
        if ((tail + 1) % capacity == head) {
            grow(c, head, tail, capacity);
            head = 0;
            tail = c.load(&tail_);
            capacity = c.load(&capacity_);
        }
        std::uint64_t* items = c.load(&items_);
        c.store(&items[tail], item);
        c.store(&tail_, (tail + 1) % capacity);
    }

    /** Pop the oldest item; returns false when empty. */
    template <typename Ctx>
    bool
    pop(Ctx& c, std::uint64_t* out)
    {
        const std::uint64_t head = c.load(&head_);
        if (head == c.load(&tail_))
            return false;
        std::uint64_t* items = c.load(&items_);
        if (out != nullptr)
            *out = c.load(&items[head]);
        c.store(&head_, (head + 1) % c.load(&capacity_));
        return true;
    }

    /** Visit every queued item, oldest first: f(item). */
    template <typename Ctx, typename F>
    void
    forEach(Ctx& c, F&& f)
    {
        const std::uint64_t tail = c.load(&tail_);
        const std::uint64_t capacity = c.load(&capacity_);
        std::uint64_t* items = c.load(&items_);
        for (std::uint64_t i = c.load(&head_); i != tail;
             i = (i + 1) % capacity) {
            f(c.load(&items[i]));
        }
    }

  private:
    /** Double the backing array (inside the calling transaction). */
    template <typename Ctx>
    void
    grow(Ctx& c, std::uint64_t head, std::uint64_t tail,
         std::uint64_t capacity)
    {
        const std::uint64_t new_capacity = capacity * 2;
        auto* fresh = static_cast<std::uint64_t*>(
            c.allocBytes(new_capacity * sizeof(std::uint64_t)));
        std::uint64_t* items = c.load(&items_);
        std::uint64_t count = 0;
        for (std::uint64_t i = head; i != tail;
             i = (i + 1) % capacity, ++count) {
            c.store(&fresh[count], c.load(&items[i]));
        }
        c.deallocBytes(items, capacity * sizeof(std::uint64_t));
        c.store(&items_, fresh);
        c.store(&head_, std::uint64_t(0));
        c.store(&tail_, count);
        c.store(&capacity_, new_capacity);
    }

    // Head and tail cursors live on separate lines on every machine;
    // a consumer and a producer of a non-empty queue need not
    // conflict (as in any serious concurrent queue layout).
    std::uint64_t* items_ = nullptr;
    std::uint64_t capacity_;
    alignas(256) std::uint64_t head_ = 0;
    alignas(256) std::uint64_t tail_ = 0;
};

} // namespace htmsim::tmds

#endif // HTMSIM_TMDS_TM_QUEUE_HH
