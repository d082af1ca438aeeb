/**
 * @file
 * TM-backed in-memory KV/OLTP store — the server's shared state.
 *
 * Three conflict-realistic structures, all from tmds/:
 *
 *  - an *object table* (TmHashTable): point gets/puts/read-modify-
 *    writes land here; different buckets never conflict;
 *  - an *ordered index* (TmRbTree) mirroring the object table's
 *    key -> value mapping: small range scans traverse it, and every
 *    put updates table AND index inside one atomic block (the classic
 *    two-structure transaction whose atomicity the differential
 *    oracle can check);
 *  - an *account array* (padded to line granularity): multi-key
 *    transfer transactions move balance between accounts, preserving
 *    the total — a conserved-sum invariant that any isolation bug
 *    breaks loudly.
 *
 * Every operation is templated over the access context, so the same
 * code runs transactionally (htm::Tx), serially in the oracle's replay
 * (Tx under the lock backend), and at host speed during setup
 * (htm::DirectContext). Operations fold every transactionally loaded
 * value they depend on into their returned result — the oracle
 * workload contract (check/workload.hh).
 */

#ifndef HTMSIM_SERVER_KV_STORE_HH
#define HTMSIM_SERVER_KV_STORE_HH

#include <cstdint>
#include <vector>

#include "check/workload.hh"
#include "htm/context.hh"
#include "sim/region.hh"
#include "tmds/tm_hashtable.hh"
#include "tmds/tm_rbtree.hh"

namespace htmsim::server
{

class KvStore
{
  public:
    /**
     * @param num_keys object-table key space ([0, num_keys))
     * @param num_accounts transferable accounts
     * @param initial_balance starting balance of every account
     */
    KvStore(std::uint64_t num_keys, std::uint64_t num_accounts,
            std::uint64_t initial_balance)
        : numKeys_(num_keys), numAccounts_(num_accounts),
          initialBalance_(initial_balance),
          table_(std::size_t(num_keys / 4 + 16)),
          accounts_(num_accounts)
    {
        htm::DirectContext direct;
        for (std::uint64_t key = 0; key < num_keys; ++key) {
            table_.insert(direct, key, initialValue(key));
            index_.insert(direct, key, initialValue(key));
        }
        for (std::uint64_t account = 0; account < num_accounts;
             ++account)
            accounts_[account].balance = initial_balance;
    }

    KvStore(const KvStore&) = delete;
    KvStore& operator=(const KvStore&) = delete;

    /** Point read; folds the value (and presence) into the result. */
    template <typename Ctx>
    std::uint64_t
    get(Ctx& c, std::uint64_t key)
    {
        std::uint64_t value = 0;
        const bool found = table_.find(c, key, &value);
        return check::foldHash(found ? 1 : 0, value);
    }

    /** Blind write: update object table and ordered index together. */
    template <typename Ctx>
    std::uint64_t
    put(Ctx& c, std::uint64_t key, std::uint64_t value)
    {
        const bool in_table = table_.update(c, key, value);
        const bool in_index = index_.update(c, key, value);
        // Keys are preloaded and never removed, so both must hit; the
        // fold makes a divergence between the structures visible to
        // the oracle's result comparison.
        return check::foldHash(in_table ? 2 : 0, in_index ? 3 : 0);
    }

    /** Read-modify-write: value' = mix(value) + delta; returns the
     *  value read (folded), making lost updates observable. */
    template <typename Ctx>
    std::uint64_t
    rmw(Ctx& c, std::uint64_t key, std::uint64_t delta)
    {
        std::uint64_t value = 0;
        const bool found = table_.find(c, key, &value);
        if (found) {
            const std::uint64_t next = value + delta;
            table_.update(c, key, next);
            index_.update(c, key, next);
        }
        return check::foldHash(found ? 5 : 0, value);
    }

    /**
     * Multi-key transfer: rotate @p amount of balance through
     * @p span accounts starting at @p first (each debited @p amount
     * and the next credited), preserving the global sum. Returns the
     * fold of every balance read.
     */
    template <typename Ctx>
    std::uint64_t
    transfer(Ctx& c, std::uint64_t first, unsigned span,
             std::uint64_t amount)
    {
        std::uint64_t folded = 7;
        for (unsigned hop = 0; hop < span; ++hop) {
            const std::uint64_t from = (first + hop) % numAccounts_;
            const std::uint64_t to = (first + hop + 1) % numAccounts_;
            const std::uint64_t from_balance =
                c.load(&accounts_[from].balance);
            const std::uint64_t to_balance =
                c.load(&accounts_[to].balance);
            c.store(&accounts_[from].balance, from_balance - amount);
            c.store(&accounts_[to].balance, to_balance + amount);
            folded = check::foldHash(folded, from_balance);
            folded = check::foldHash(folded, to_balance);
        }
        return folded;
    }

    /** Small ordered range scan over the index from @p from. */
    template <typename Ctx>
    std::uint64_t
    scan(Ctx& c, std::uint64_t from, unsigned limit)
    {
        std::uint64_t folded = 11;
        index_.rangeEach(c, from, limit,
                         [&](std::uint64_t key, std::uint64_t value) {
                             folded = check::foldHash(folded, key);
                             folded = check::foldHash(folded, value);
                         });
        return folded;
    }

    // --- Host-side verification (post-run, untimed) -----------------

    /** Total account balance equals the conserved initial sum. */
    bool
    balancesConserved()
    {
        std::uint64_t total = 0;
        for (const Account& account : accounts_)
            total += account.balance;
        return total == numAccounts_ * initialBalance_;
    }

    /** Object table and ordered index agree on every key. */
    bool
    structuresAgree()
    {
        htm::DirectContext direct;
        if (table_.size(direct) != numKeys_ ||
            index_.size(direct) != numKeys_)
            return false;
        bool agree = true;
        index_.forEach(direct, [&](std::uint64_t key,
                                   std::uint64_t value) {
            std::uint64_t table_value = 0;
            if (!table_.find(direct, key, &table_value) ||
                table_value != value)
                agree = false;
        });
        return agree;
    }

    /** Order-sensitive digest of the full state (oracle fingerprint). */
    std::uint64_t
    fingerprint()
    {
        htm::DirectContext direct;
        std::uint64_t digest = 13;
        index_.forEach(direct, [&](std::uint64_t key,
                                   std::uint64_t value) {
            digest = check::foldHash(digest, key);
            digest = check::foldHash(digest, value);
        });
        for (const Account& account : accounts_)
            digest = check::foldHash(digest, account.balance);
        return digest;
    }

    std::uint64_t numKeys() const { return numKeys_; }
    std::uint64_t numAccounts() const { return numAccounts_; }

    static std::uint64_t
    initialValue(std::uint64_t key)
    {
        return key * 0x9e3779b97f4a7c15ULL + 1;
    }

  private:
    /** One account per conflict line, like real OLTP row padding. */
    struct alignas(64) Account
    {
        std::uint64_t balance = 0;
    };

    std::uint64_t numKeys_;
    std::uint64_t numAccounts_;
    std::uint64_t initialBalance_;
    tmds::TmHashTable<> table_;
    tmds::TmRbTree index_;
    sim::Vector<Account> accounts_;
};

} // namespace htmsim::server

#endif // HTMSIM_SERVER_KV_STORE_HH
