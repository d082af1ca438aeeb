/**
 * @file
 * Transactional chained hash table.
 *
 * This is the structure the paper substitutes for STAMP's red-black
 * trees in intruder and vacation (Section 4): "similar to the
 * concurrent hash table in the Java standard class library" — a fixed
 * bucket array with per-bucket chains, so transactions touching
 * different buckets do not conflict, plus a sharded element counter so
 * size bookkeeping does not become a conflict hotspot.
 */

#ifndef HTMSIM_TMDS_TM_HASHTABLE_HH
#define HTMSIM_TMDS_TM_HASHTABLE_HH

#include <cstdint>

#include "sim/region.hh"

namespace htmsim::tmds
{

/** Key policy for plain numeric keys. */
struct NumericKey
{
    template <typename Ctx>
    static std::uint64_t
    hash(Ctx&, std::uint64_t key)
    {
        // Fibonacci/avalanche mix.
        std::uint64_t h = key * 0x9e3779b97f4a7c15ULL;
        h ^= h >> 32;
        return h;
    }

    template <typename Ctx>
    static bool
    equal(Ctx&, std::uint64_t a, std::uint64_t b)
    {
        return a == b;
    }
};

/**
 * Unordered map of uint64 keys to uint64 values.
 *
 * @tparam KeyPolicy provides hash(ctx, key) and equal(ctx, a, b); a
 * policy may dereference keys through the context (e.g. genome's
 * string segments), in which case hashing contributes to the
 * transactional footprint, exactly as in instrumented STAMP.
 */
template <typename KeyPolicy = NumericKey>
class TmHashTable
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

    /** @param buckets fixed bucket count (rounded up to a power of 2). */
    explicit TmHashTable(std::size_t buckets)
    {
        std::size_t size = 16;
        while (size < buckets)
            size *= 2;
        buckets_.assign(size, nullptr);
        counts_.assign(numCountShards, PaddedCount{});
    }

    TmHashTable(const TmHashTable&) = delete;
    TmHashTable& operator=(const TmHashTable&) = delete;

    ~TmHashTable()
    {
        for (Node* node : buckets_) {
            while (node != nullptr) {
                Node* next = node->next;
                sim::regionFree(node, sizeof(Node));
                node = next;
            }
        }
    }

    /** Insert if absent; returns false if the key already exists. */
    template <typename Ctx>
    bool
    insert(Ctx& c, std::uint64_t key, std::uint64_t value)
    {
        Node** bucket = bucketOf(c, key);
        Node* node = c.load(bucket);
        while (node != nullptr) {
            if (KeyPolicy::equal(c, c.load(&node->key), key))
                return false;
            node = c.load(&node->next);
        }
        Node* inserted = c.template create<Node>();
        c.store(&inserted->key, key);
        c.store(&inserted->value, value);
        c.store(&inserted->next, c.load(bucket));
        c.store(bucket, inserted);
        bumpCount(c, key, 1);
        return true;
    }

    /** Remove a key; returns false if absent. */
    template <typename Ctx>
    bool
    remove(Ctx& c, std::uint64_t key)
    {
        Node** bucket = bucketOf(c, key);
        Node* node = c.load(bucket);
        Node** link = bucket;
        while (node != nullptr) {
            if (KeyPolicy::equal(c, c.load(&node->key), key)) {
                c.store(link, c.load(&node->next));
                c.template destroy<Node>(node);
                bumpCount(c, key, -1);
                return true;
            }
            link = &node->next;
            node = c.load(&node->next);
        }
        return false;
    }

    /** Look up a key; stores the value through @p out when found. */
    template <typename Ctx>
    bool
    find(Ctx& c, std::uint64_t key, std::uint64_t* out = nullptr)
    {
        Node** bucket = bucketOf(c, key);
        Node* node = c.load(bucket);
        while (node != nullptr) {
            if (KeyPolicy::equal(c, c.load(&node->key), key)) {
                if (out != nullptr)
                    *out = c.load(&node->value);
                return true;
            }
            node = c.load(&node->next);
        }
        return false;
    }

    /** Update an existing key's value; returns false if absent. */
    template <typename Ctx>
    bool
    update(Ctx& c, std::uint64_t key, std::uint64_t value)
    {
        Node** bucket = bucketOf(c, key);
        Node* node = c.load(bucket);
        while (node != nullptr) {
            if (KeyPolicy::equal(c, c.load(&node->key), key)) {
                c.store(&node->value, value);
                return true;
            }
            node = c.load(&node->next);
        }
        return false;
    }

    /** Total element count, summing the shards. */
    template <typename Ctx>
    std::uint64_t
    size(Ctx& c)
    {
        std::uint64_t total = 0;
        for (auto& shard : counts_)
            total += c.load(&shard.value);
        return total;
    }

    /** Visit every element (host-friendly; takes any context). */
    template <typename Ctx, typename F>
    void
    forEach(Ctx& c, F&& f)
    {
        for (Node*& head : buckets_) {
            Node* node = c.load(&head);
            while (node != nullptr) {
                f(c.load(&node->key), c.load(&node->value));
                node = c.load(&node->next);
            }
        }
    }

    std::size_t numBuckets() const { return buckets_.size(); }

  private:
    static constexpr std::size_t numCountShards = 16;

    struct alignas(256) PaddedCount
    {
        std::uint64_t value = 0;
    };

    template <typename Ctx>
    Node**
    bucketOf(Ctx& c, std::uint64_t key)
    {
        const std::uint64_t h = KeyPolicy::hash(c, key);
        return &buckets_[h & (buckets_.size() - 1)];
    }

    template <typename Ctx>
    void
    bumpCount(Ctx& c, std::uint64_t key, std::int64_t delta)
    {
        auto& shard =
            counts_[KeyPolicy::hash(c, key) % numCountShards];
        c.store(&shard.value,
                c.load(&shard.value) + std::uint64_t(delta));
    }

    sim::Vector<Node*> buckets_;
    sim::Vector<PaddedCount> counts_;
};

} // namespace htmsim::tmds

#endif // HTMSIM_TMDS_TM_HASHTABLE_HH
