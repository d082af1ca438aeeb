#include "workload.hh"

#include <array>

#include "htm/context.hh"
#include "htm/tx.hh"
#include "server/kv_store.hh"
#include "server/zipf.hh"
#include "sim/random.hh"
#include "stamp/kernels.hh"
#include "tmds/tm_bitmap.hh"
#include "tmds/tm_hashtable.hh"
#include "tmds/tm_heap.hh"
#include "tmds/tm_list.hh"
#include "tmds/tm_queue.hh"
#include "tmds/tm_rbtree.hh"
#include "tmsync/atomic_mutex.hh"
#include "tmsync/atomic_shared_mutex.hh"
#include "tmsync/guard.hh"

namespace htmsim::check
{

namespace
{

/** One precomputed operation: a kind plus two operands. */
struct Op
{
    std::uint32_t kind;
    std::uint64_t a;
    std::uint64_t b;
};

/** Shared op-table plumbing: per-thread streams from (seed, tid). */
class TableWorkload : public CheckWorkload
{
  protected:
    template <typename Gen>
    void
    buildOps(std::uint64_t seed, unsigned threads,
             unsigned ops_per_thread, Gen&& gen)
    {
        ops_.resize(threads);
        for (unsigned tid = 0; tid < threads; ++tid) {
            sim::Rng rng(seed, tid + 1);
            ops_[tid].reserve(ops_per_thread);
            for (unsigned i = 0; i < ops_per_thread; ++i)
                ops_[tid].push_back(gen(rng));
        }
    }

    const Op&
    opAt(unsigned tid, unsigned op) const
    {
        return ops_[tid][op];
    }

  private:
    std::vector<std::vector<Op>> ops_;
};

// Result encodings give each op kind a distinct tag in the top byte so
// a replay mismatch identifies the operation, and fold any loaded
// value into the low bits so stale reads are visible.
constexpr std::uint64_t
tagged(std::uint64_t tag, std::uint64_t value)
{
    return (tag << 56) | (value & 0x00ffffffffffffffULL);
}

/** Mixed insert/remove/find/update over a small, collision-heavy
 *  chained hash table. */
class HashTableWorkload final : public TableWorkload
{
  public:
    HashTableWorkload(std::uint64_t seed, unsigned threads,
                      unsigned ops_per_thread)
        : table_(16)
    {
        htm::DirectContext d;
        for (std::uint64_t key = 0; key < keyRange; key += 2)
            table_.insert(d, key, key * 3 + 1);
        buildOps(seed, threads, ops_per_thread, [](sim::Rng& rng) {
            const std::uint64_t pick = rng.nextRange(100);
            const std::uint64_t key = rng.nextRange(keyRange);
            const std::uint64_t value = rng.nextRange(1000);
            if (pick < 35)
                return Op{0, key, value};
            if (pick < 60)
                return Op{1, key, 0};
            if (pick < 85)
                return Op{2, key, 0};
            return Op{3, key, value};
        });
    }

    std::uint64_t
    apply(htm::Tx& tx, unsigned tid, unsigned op) override
    {
        const Op& o = opAt(tid, op);
        switch (o.kind) {
          case 0:
            return tagged(0x1, table_.insert(tx, o.a, o.b));
          case 1:
            return tagged(0x2, table_.remove(tx, o.a));
          case 2: {
            std::uint64_t value = 0;
            const bool found = table_.find(tx, o.a, &value);
            return tagged(0x3, found ? value + 1 : 0);
          }
          default:
            return tagged(0x4, table_.update(tx, o.a, o.b));
        }
    }

    std::uint64_t
    fingerprint() override
    {
        htm::DirectContext d;
        std::uint64_t h = 0x8a5eedULL;
        table_.forEach(d, [&](std::uint64_t key, std::uint64_t value) {
            h = foldHash(h, key);
            h = foldHash(h, value);
        });
        return foldHash(h, table_.size(d));
    }

  private:
    static constexpr std::uint64_t keyRange = 24;
    tmds::TmHashTable<> table_;
};

/** Mixed ops over the red-black tree, including range queries. */
class RbTreeWorkload final : public TableWorkload
{
  public:
    RbTreeWorkload(std::uint64_t seed, unsigned threads,
                   unsigned ops_per_thread)
    {
        htm::DirectContext d;
        for (std::uint64_t key = 0; key < keyRange; key += 2)
            tree_.insert(d, key, key + 100);
        buildOps(seed, threads, ops_per_thread, [](sim::Rng& rng) {
            const std::uint64_t pick = rng.nextRange(100);
            const std::uint64_t key = rng.nextRange(keyRange);
            const std::uint64_t value = rng.nextRange(1000);
            if (pick < 30)
                return Op{0, key, value};
            if (pick < 55)
                return Op{1, key, 0};
            if (pick < 80)
                return Op{2, key, 0};
            return Op{3, key, 0};
        });
    }

    std::uint64_t
    apply(htm::Tx& tx, unsigned tid, unsigned op) override
    {
        const Op& o = opAt(tid, op);
        switch (o.kind) {
          case 0:
            return tagged(0x1, tree_.insert(tx, o.a, o.b));
          case 1:
            return tagged(0x2, tree_.remove(tx, o.a));
          case 2: {
            std::uint64_t value = 0;
            const bool found = tree_.find(tx, o.a, &value);
            return tagged(0x3, found ? value + 1 : 0);
          }
          default: {
            std::uint64_t key = 0;
            std::uint64_t value = 0;
            const bool found =
                tree_.findCeiling(tx, o.a, &key, &value);
            return tagged(0x4,
                          found ? (key << 16) ^ (value + 1) : 0);
          }
        }
    }

    std::uint64_t
    fingerprint() override
    {
        htm::DirectContext d;
        std::uint64_t h = 0x8a5eedULL;
        tree_.forEach(d, [&](std::uint64_t key, std::uint64_t value) {
            h = foldHash(h, key);
            h = foldHash(h, value);
        });
        return foldHash(h, tree_.size(d));
    }

  private:
    static constexpr std::uint64_t keyRange = 32;
    tmds::TmRbTree tree_;
};

/** Hot sorted list: long shared traversals, frequent structural
 *  updates — the highest-conflict workload in the registry. */
class ListWorkload final : public TableWorkload
{
  public:
    ListWorkload(std::uint64_t seed, unsigned threads,
                 unsigned ops_per_thread)
    {
        htm::DirectContext d;
        for (std::uint64_t key = 0; key < keyRange; key += 2)
            list_.insert(d, key, key + 7);
        buildOps(seed, threads, ops_per_thread, [](sim::Rng& rng) {
            const std::uint64_t pick = rng.nextRange(100);
            const std::uint64_t key = rng.nextRange(keyRange);
            const std::uint64_t value = rng.nextRange(1000);
            if (pick < 30)
                return Op{0, key, value};
            if (pick < 55)
                return Op{1, key, 0};
            if (pick < 85)
                return Op{2, key, 0};
            return Op{3, 0, 0};
        });
    }

    std::uint64_t
    apply(htm::Tx& tx, unsigned tid, unsigned op) override
    {
        const Op& o = opAt(tid, op);
        switch (o.kind) {
          case 0:
            return tagged(0x1, list_.insert(tx, o.a, o.b));
          case 1:
            return tagged(0x2, list_.remove(tx, o.a));
          case 2: {
            std::uint64_t value = 0;
            const bool found = list_.find(tx, o.a, &value);
            return tagged(0x3, found ? value + 1 : 0);
          }
          default: {
            std::uint64_t key = 0;
            std::uint64_t value = 0;
            const bool popped = list_.popFront(tx, &key, &value);
            return tagged(0x4,
                          popped ? (key << 16) ^ (value + 1) : 0);
          }
        }
    }

    std::uint64_t
    fingerprint() override
    {
        htm::DirectContext d;
        std::uint64_t h = 0x8a5eedULL;
        list_.forEach(d, [&](std::uint64_t key, std::uint64_t value) {
            h = foldHash(h, key);
            h = foldHash(h, value);
        });
        return foldHash(h, list_.size(d));
    }

  private:
    static constexpr std::uint64_t keyRange = 12;
    tmds::TmList<> list_;
};

/** Producer/consumer mix over the growable ring queue; the tiny
 *  initial capacity forces in-transaction grows. */
class QueueWorkload final : public TableWorkload
{
  public:
    QueueWorkload(std::uint64_t seed, unsigned threads,
                  unsigned ops_per_thread)
        : queue_(4)
    {
        htm::DirectContext d;
        for (std::uint64_t item = 1; item <= 2; ++item)
            queue_.push(d, item * 11);
        buildOps(seed, threads, ops_per_thread, [](sim::Rng& rng) {
            const std::uint64_t pick = rng.nextRange(100);
            const std::uint64_t value = 1 + rng.nextRange(1000);
            if (pick < 55)
                return Op{0, value, 0};
            return Op{1, 0, 0};
        });
    }

    std::uint64_t
    apply(htm::Tx& tx, unsigned tid, unsigned op) override
    {
        const Op& o = opAt(tid, op);
        if (o.kind == 0) {
            queue_.push(tx, o.a);
            return tagged(0x1, queue_.size(tx));
        }
        std::uint64_t value = 0;
        const bool popped = queue_.pop(tx, &value);
        return tagged(0x2, popped ? value + 1 : 0);
    }

    std::uint64_t
    fingerprint() override
    {
        htm::DirectContext d;
        std::uint64_t h = 0x8a5eedULL;
        queue_.forEach(d,
                       [&](std::uint64_t item) { h = foldHash(h, item); });
        return foldHash(h, queue_.size(d));
    }

  private:
    tmds::TmQueue queue_;
};

/** Priority-queue mix over the array heap. */
class HeapWorkload final : public TableWorkload
{
  public:
    HeapWorkload(std::uint64_t seed, unsigned threads,
                 unsigned ops_per_thread)
        : heap_(4)
    {
        htm::DirectContext d;
        for (std::uint64_t item = 1; item <= 3; ++item)
            heap_.insert(d, item * 17);
        buildOps(seed, threads, ops_per_thread, [](sim::Rng& rng) {
            const std::uint64_t pick = rng.nextRange(100);
            const std::uint64_t value = 1 + rng.nextRange(1000);
            if (pick < 55)
                return Op{0, value, 0};
            return Op{1, 0, 0};
        });
    }

    std::uint64_t
    apply(htm::Tx& tx, unsigned tid, unsigned op) override
    {
        const Op& o = opAt(tid, op);
        if (o.kind == 0) {
            heap_.insert(tx, o.a);
            return tagged(0x1, heap_.size(tx));
        }
        std::uint64_t value = 0;
        const bool popped = heap_.popMax(tx, &value);
        return tagged(0x2, popped ? value + 1 : 0);
    }

    std::uint64_t
    fingerprint() override
    {
        htm::DirectContext d;
        std::uint64_t h = 0x8a5eedULL;
        heap_.forEach(d,
                      [&](std::uint64_t item) { h = foldHash(h, item); });
        return foldHash(h, heap_.size(d));
    }

  private:
    tmds::TmHeap<tmds::NumericCompare> heap_;
};

/** Set/clear/test over a bitmap: many threads collide on the same
 *  backing words even when bit indices differ. */
class BitmapWorkload final : public TableWorkload
{
  public:
    BitmapWorkload(std::uint64_t seed, unsigned threads,
                   unsigned ops_per_thread)
        : bits_(numBits)
    {
        htm::DirectContext d;
        for (std::size_t index = 0; index < numBits; index += 3)
            bits_.set(d, index);
        buildOps(seed, threads, ops_per_thread, [](sim::Rng& rng) {
            const std::uint64_t pick = rng.nextRange(100);
            const std::uint64_t index = rng.nextRange(numBits);
            if (pick < 40)
                return Op{0, index, 0};
            if (pick < 70)
                return Op{1, index, 0};
            return Op{2, index, 0};
        });
    }

    std::uint64_t
    apply(htm::Tx& tx, unsigned tid, unsigned op) override
    {
        const Op& o = opAt(tid, op);
        switch (o.kind) {
          case 0:
            return tagged(0x1, bits_.set(tx, o.a));
          case 1:
            return tagged(0x2, bits_.clear(tx, o.a));
          default:
            return tagged(0x3, bits_.isSet(tx, o.a));
        }
    }

    std::uint64_t
    fingerprint() override
    {
        htm::DirectContext d;
        std::uint64_t h = 0x8a5eedULL;
        for (std::size_t index = 0; index < numBits; ++index)
            h = foldHash(h, bits_.isSet(d, index));
        return h;
    }

  private:
    static constexpr std::size_t numBits = 96;
    tmds::TmBitmap bits_;
};

/** STAMP kmeans accumulator adds into a handful of shared clusters. */
class KmeansWorkload final : public TableWorkload
{
  public:
    KmeansWorkload(std::uint64_t seed, unsigned threads,
                   unsigned ops_per_thread)
        : kernel_(4, dims)
    {
        buildOps(seed, threads, ops_per_thread, [this](sim::Rng& rng) {
            return Op{0, rng.nextRange(kernel_.clusters()),
                      rng.nextU64()};
        });
    }

    std::uint64_t
    apply(htm::Tx& tx, unsigned tid, unsigned op) override
    {
        const Op& o = opAt(tid, op);
        std::uint64_t features[dims];
        for (unsigned d = 0; d < dims; ++d)
            features[d] = (o.b >> (8 * d)) & 0xff;
        return tagged(0x1, kernel_.add(tx, unsigned(o.a), features));
    }

    std::uint64_t
    fingerprint() override
    {
        htm::DirectContext d;
        std::uint64_t h = 0x8a5eedULL;
        kernel_.digest(d,
                       [&](std::uint64_t v) { h = foldHash(h, v); });
        return h;
    }

  private:
    static constexpr unsigned dims = 3;
    stamp::KmeansAccumKernel kernel_;
};

/** STAMP vacation-style reserve/cancel on capacity-bounded
 *  resources — read-test-write races on the occupancy counters. */
class VacationWorkload final : public TableWorkload
{
  public:
    VacationWorkload(std::uint64_t seed, unsigned threads,
                     unsigned ops_per_thread)
        : kernel_(6, 3)
    {
        buildOps(seed, threads, ops_per_thread, [this](sim::Rng& rng) {
            const std::uint64_t pick = rng.nextRange(100);
            const std::uint64_t resource =
                rng.nextRange(kernel_.resources());
            const std::uint64_t price = 1 + rng.nextRange(9);
            return Op{pick < 60 ? 0u : 1u, resource, price};
        });
    }

    std::uint64_t
    apply(htm::Tx& tx, unsigned tid, unsigned op) override
    {
        const Op& o = opAt(tid, op);
        if (o.kind == 0)
            return tagged(0x1,
                          kernel_.reserve(tx, unsigned(o.a), o.b));
        return tagged(0x2, kernel_.cancel(tx, unsigned(o.a), o.b));
    }

    std::uint64_t
    fingerprint() override
    {
        htm::DirectContext d;
        std::uint64_t h = 0x8a5eedULL;
        kernel_.digest(d,
                       [&](std::uint64_t v) { h = foldHash(h, v); });
        return h;
    }

  private:
    stamp::ReservationKernel kernel_;
};

/**
 * The server's KV/OLTP transactions (server/kv_store.hh) under the
 * oracle: Zipfian-skewed point ops, two-structure puts, multi-key
 * transfers and range scans, all precomputed so apply() never draws
 * from an interleaving-dependent stream. Sized small and hot so the
 * quick sweeps hit real conflicts.
 */
class ServerWorkload final : public TableWorkload
{
  public:
    ServerWorkload(std::uint64_t seed, unsigned threads,
                   unsigned ops_per_thread)
        : store_(numKeys, numAccounts, 1000)
    {
        const server::ZipfianGenerator keys(numKeys, 0.85);
        const server::ZipfianGenerator accounts(numAccounts, 0.85);
        buildOps(seed, threads, ops_per_thread,
                 [&](sim::Rng& rng) {
                     const std::uint64_t pick = rng.nextRange(100);
                     if (pick < 30)
                         return Op{0, keys.scrambledNext(rng), 0};
                     if (pick < 55)
                         return Op{1, keys.scrambledNext(rng),
                                   rng.nextU64()};
                     if (pick < 75)
                         return Op{2, keys.scrambledNext(rng),
                                   rng.nextRange(1024) + 1};
                     if (pick < 90)
                         return Op{3, accounts.scrambledNext(rng),
                                   rng.nextRange(100) + 1};
                     return Op{4, keys.scrambledNext(rng), 0};
                 });
    }

    std::uint64_t
    apply(htm::Tx& tx, unsigned tid, unsigned op) override
    {
        const Op& o = opAt(tid, op);
        switch (o.kind) {
          case 0:
            return tagged(0x1, store_.get(tx, o.a));
          case 1:
            return tagged(0x2, store_.put(tx, o.a, o.b));
          case 2:
            return tagged(0x3, store_.rmw(tx, o.a, o.b));
          case 3:
            return tagged(0x4,
                          store_.transfer(tx, o.a, transferSpan,
                                          o.b));
          default:
            return tagged(0x5, store_.scan(tx, o.a, scanLen));
        }
    }

    std::uint64_t
    fingerprint() override
    {
        std::uint64_t h = foldHash(0x8a5eedULL, store_.fingerprint());
        // Fold the host-checkable invariants in, so a conservation
        // or table/index divergence fails even if both phases drift
        // identically.
        h = foldHash(h, store_.balancesConserved() ? 1 : 0);
        return foldHash(h, store_.structuresAgree() ? 1 : 0);
    }

  private:
    static constexpr std::uint64_t numKeys = 48;
    static constexpr std::uint64_t numAccounts = 8;
    static constexpr unsigned transferSpan = 2;
    static constexpr unsigned scanLen = 6;
    server::KvStore store_;
};

/**
 * The tmsync lock-elision protocols under the oracle. Self-driven:
 * every op stages its own guarded section (guard.hh) over striped
 * mutex- and shared-mutex-protected payloads, randomly mixing elided
 * and deliberately non-elided (TATAS) acquisitions so each run
 * exercises both directions of the elision/real mutual-exclusion
 * argument. The serialization order the oracle replays is the order
 * of closing events (commit for elided sections, nonSpecCommit for
 * real-lock sections) — which is correct because sections on the same
 * stripe exclude each other both ways: an elided attempt aborts on a
 * nonzero word, and a real acquisition's CAS dooms every elided
 * subscriber through strong isolation. The condition variable is
 * deliberately absent: precomputed op streams cannot guarantee a
 * waiter is ever notified (covered by test_tmsync.cc and the
 * ping_pong scenario instead).
 */
class SyncWorkload final : public TableWorkload
{
  public:
    SyncWorkload(std::uint64_t seed, unsigned threads,
                 unsigned ops_per_thread)
    {
        buildOps(seed, threads, ops_per_thread, [](sim::Rng& rng) {
            const std::uint64_t pick = rng.nextRange(100);
            // Bit 8 of `a` selects the acquisition mode per op.
            const std::uint64_t elide = rng.nextRange(2) << 8;
            const std::uint64_t value = rng.nextU64() >> 8;
            if (pick < 45)
                return Op{0, (pick % numMutexStripes) | elide, value};
            if (pick < 80)
                return Op{1, (pick % numSharedStripes) | elide, value};
            return Op{2, (pick % numSharedStripes) | elide, value};
        });
    }

    bool selfDriven() const override { return true; }

    std::uint64_t
    applyDirect(htm::Runtime& runtime, sim::ThreadContext& ctx,
                unsigned tid, unsigned op) override
    {
        const Op& o = opAt(tid, op);
        const SyncMode mode = (o.a & 0x100) != 0 ? SyncMode::elided :
                                                   SyncMode::tatas;
        const std::uint64_t stripe = o.a & 0xff;
        std::uint64_t result = 0;
        switch (o.kind) {
          case 0: {
            static const htm::TxSiteId site =
                htm::txSite("check.sync.mutex");
            MutexStripe& s = mutexes_[stripe];
            tmsync::transactional_lock_guard guard(
                runtime, ctx, s.mutex, site, mode, [&](htm::Tx& tx) {
                    result = applyMutexOp(tx, s, o);
                });
            return result;
          }
          case 1: {
            static const htm::TxSiteId site =
                htm::txSite("check.sync.read");
            SharedStripe& s = shared_[stripe];
            tmsync::transactional_shared_lock_guard guard(
                runtime, ctx, s.rw, site, mode, [&](htm::Tx& tx) {
                    result = applyReadOp(tx, s, o);
                });
            return result;
          }
          default: {
            static const htm::TxSiteId site =
                htm::txSite("check.sync.write");
            SharedStripe& s = shared_[stripe];
            tmsync::transactional_lock_guard guard(
                runtime, ctx, s.rw, site, mode, [&](htm::Tx& tx) {
                    result = applyWriteOp(tx, s, o);
                });
            return result;
          }
        }
    }

    /** Bare op semantics (no lock protocol); the oracle never calls
     *  this — applyDirect() is the self-driven entry point. */
    std::uint64_t
    apply(htm::Tx& tx, unsigned tid, unsigned op) override
    {
        const Op& o = opAt(tid, op);
        const std::uint64_t stripe = o.a & 0xff;
        switch (o.kind) {
          case 0:
            return applyMutexOp(tx, mutexes_[stripe], o);
          case 1:
            return applyReadOp(tx, shared_[stripe], o);
          default:
            return applyWriteOp(tx, shared_[stripe], o);
        }
    }

    std::uint64_t
    fingerprint() override
    {
        std::uint64_t h = 0x8a5eedULL;
        for (const MutexStripe& s : mutexes_) {
            h = foldHash(h, s.counter);
            for (const std::uint64_t slot : s.slots)
                h = foldHash(h, slot);
        }
        for (const SharedStripe& s : shared_) {
            h = foldHash(h, s.generation);
            for (const std::uint64_t cell : s.cells)
                h = foldHash(h, cell);
        }
        return h;
    }

  private:
    using SyncMode = tmsync::SyncMode;

    static constexpr std::uint64_t numMutexStripes = 4;
    static constexpr std::uint64_t numSharedStripes = 2;

    struct MutexStripe
    {
        tmsync::atomic_mutex mutex;
        std::uint64_t counter = 0;
        std::array<std::uint64_t, 4> slots{};
    };

    struct SharedStripe
    {
        tmsync::atomic_shared_mutex rw;
        std::uint64_t generation = 0;
        std::array<std::uint64_t, 8> cells{};
    };

    static std::uint64_t
    applyMutexOp(htm::Tx& tx, MutexStripe& s, const Op& o)
    {
        const std::uint64_t count = tx.load(&s.counter) + 1;
        tx.store(&s.counter, count);
        std::uint64_t* slot = &s.slots[o.b % s.slots.size()];
        const std::uint64_t updated = tx.load(slot) + o.b;
        tx.store(slot, updated);
        return tagged(0x1, foldHash(count, updated));
    }

    static std::uint64_t
    applyReadOp(htm::Tx& tx, SharedStripe& s, const Op& o)
    {
        std::uint64_t sum = tx.load(&s.generation);
        for (std::size_t i = 0; i < s.cells.size(); ++i)
            sum = foldHash(sum, tx.load(&s.cells[i]));
        (void) o;
        return tagged(0x2, sum);
    }

    static std::uint64_t
    applyWriteOp(htm::Tx& tx, SharedStripe& s, const Op& o)
    {
        std::uint64_t* cell = &s.cells[o.b % s.cells.size()];
        const std::uint64_t updated = tx.load(cell) + o.b;
        tx.store(cell, updated);
        const std::uint64_t generation = tx.load(&s.generation) + 1;
        tx.store(&s.generation, generation);
        return tagged(0x3, foldHash(generation, updated));
    }

    std::array<MutexStripe, numMutexStripes> mutexes_;
    std::array<SharedStripe, numSharedStripes> shared_;
};

template <typename W>
sim::Ptr<CheckWorkload>
makeWorkload(std::uint64_t seed, unsigned threads,
             unsigned ops_per_thread)
{
    return sim::make<W>(seed, threads, ops_per_thread);
}

} // namespace

const std::vector<WorkloadFactory>&
allWorkloads()
{
    static const std::vector<WorkloadFactory> registry = {
        {"hashtable", &makeWorkload<HashTableWorkload>},
        {"rbtree", &makeWorkload<RbTreeWorkload>},
        {"list", &makeWorkload<ListWorkload>},
        {"queue", &makeWorkload<QueueWorkload>},
        {"heap", &makeWorkload<HeapWorkload>},
        {"bitmap", &makeWorkload<BitmapWorkload>},
        {"kmeans", &makeWorkload<KmeansWorkload>},
        {"vacation", &makeWorkload<VacationWorkload>},
        {"server", &makeWorkload<ServerWorkload>},
        {"sync", &makeWorkload<SyncWorkload>},
    };
    return registry;
}

const WorkloadFactory*
findWorkload(const std::string& name)
{
    for (const WorkloadFactory& factory : allWorkloads()) {
        if (name == factory.name)
            return &factory;
    }
    return nullptr;
}

} // namespace htmsim::check
