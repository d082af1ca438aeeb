/**
 * @file
 * Transactional sorted singly-linked list (STAMP lib/list equivalent).
 *
 * Keys are unique and kept in ascending order. All field accesses go
 * through the access context, so the same code runs transactionally,
 * sequentially timed, or untimed.
 */

#ifndef HTMSIM_TMDS_TM_LIST_HH
#define HTMSIM_TMDS_TM_LIST_HH

#include <cstdint>

#include "sim/region.hh"

namespace htmsim::tmds
{

/** Three-way comparison policy over uint64 keys (default numeric). */
struct NumericCompare
{
    template <typename Ctx>
    static int
    compare(Ctx&, std::uint64_t a, std::uint64_t b)
    {
        return a < b ? -1 : (a > b ? 1 : 0);
    }
};

/**
 * Sorted unique-key linked list mapping uint64 keys to uint64 values
 * (values typically hold pointers).
 */
template <typename Compare = NumericCompare>
class TmList
{
  public:
    struct Node
    {
        std::uint64_t key;
        std::uint64_t value;
        Node* next;
        /** Pad to 64 bytes: real allocators hand out line-granular
         *  chunks; without this, scaled-down tables pack many nodes
         *  per line and exaggerate false conflicts. */
        char pad[40];
    };

    TmList() = default;
    /** Capacity hints are accepted (and ignored) so the list is a
     *  drop-in for the other set structures in templated code. */
    explicit TmList(std::size_t) {}
    TmList(const TmList&) = delete;
    TmList& operator=(const TmList&) = delete;

    ~TmList()
    {
        Node* node = head_.next;
        while (node != nullptr) {
            Node* next = node->next;
            sim::regionFree(node, sizeof(Node));
            node = next;
        }
    }

    /** Insert @p key; fails (returns false) if already present. */
    template <typename Ctx>
    bool
    insert(Ctx& c, std::uint64_t key, std::uint64_t value)
    {
        Node* previous = &head_;
        Node* node = c.load(&head_.next);
        while (node != nullptr) {
            const int order = Compare::compare(c, c.load(&node->key),
                                               key);
            if (order == 0)
                return false;
            if (order > 0)
                break;
            previous = node;
            node = c.load(&node->next);
        }
        Node* inserted = c.template create<Node>();
        c.store(&inserted->key, key);
        c.store(&inserted->value, value);
        c.store(&inserted->next, node);
        c.store(&previous->next, inserted);
        c.store(&size_, c.load(&size_) + 1);
        return true;
    }

    /** Remove @p key; returns false if absent. */
    template <typename Ctx>
    bool
    remove(Ctx& c, std::uint64_t key)
    {
        Node* previous = &head_;
        Node* node = c.load(&head_.next);
        while (node != nullptr) {
            const int order = Compare::compare(c, c.load(&node->key),
                                               key);
            if (order == 0) {
                c.store(&previous->next, c.load(&node->next));
                c.template destroy<Node>(node);
                c.store(&size_, c.load(&size_) - 1);
                return true;
            }
            if (order > 0)
                return false;
            previous = node;
            node = c.load(&node->next);
        }
        return false;
    }

    /** Look up @p key; stores the value through @p out when found. */
    template <typename Ctx>
    bool
    find(Ctx& c, std::uint64_t key, std::uint64_t* out = nullptr)
    {
        Node* node = c.load(&head_.next);
        while (node != nullptr) {
            const int order = Compare::compare(c, c.load(&node->key),
                                               key);
            if (order == 0) {
                if (out != nullptr)
                    *out = c.load(&node->value);
                return true;
            }
            if (order > 0)
                return false;
            node = c.load(&node->next);
        }
        return false;
    }

    /** Element count (transactional read of the shared counter). */
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
        return c.load(&head_.next) == nullptr;
    }

    /** In-order visit: f(key, value). */
    template <typename Ctx, typename F>
    void
    forEach(Ctx& c, F&& f)
    {
        Node* node = c.load(&head_.next);
        while (node != nullptr) {
            f(c.load(&node->key), c.load(&node->value));
            node = c.load(&node->next);
        }
    }

    /** First node, for queue-like consumption. */
    template <typename Ctx>
    Node*
    front(Ctx& c)
    {
        return c.load(&head_.next);
    }

    /** Pop the smallest key; returns false when empty. */
    template <typename Ctx>
    bool
    popFront(Ctx& c, std::uint64_t* key_out, std::uint64_t* value_out)
    {
        Node* node = c.load(&head_.next);
        if (node == nullptr)
            return false;
        if (key_out != nullptr)
            *key_out = c.load(&node->key);
        if (value_out != nullptr)
            *value_out = c.load(&node->value);
        c.store(&head_.next, c.load(&node->next));
        c.template destroy<Node>(node);
        c.store(&size_, c.load(&size_) - 1);
        return true;
    }

  private:
    Node head_{0, 0, nullptr, {}};
    std::uint64_t size_ = 0;
};

} // namespace htmsim::tmds

#endif // HTMSIM_TMDS_TM_LIST_HH
