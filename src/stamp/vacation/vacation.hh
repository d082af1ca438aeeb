/**
 * @file
 * STAMP vacation port: an in-memory travel reservation system.
 *
 * Three relations (cars, flights, rooms) plus a customer table are hit
 * by client transactions: make-reservation (query several random
 * items, then reserve the cheapest available of each kind),
 * delete-customer (release everything a customer holds), and
 * update-tables (add/remove inventory).
 *
 * The table structure is a template parameter: the *original* STAMP
 * code uses red-black trees for these unordered sets; the paper's
 * *modified* version substitutes hash tables (Section 4), shrinking
 * the per-transaction footprint dramatically — the difference that
 * rescues POWER8's 8 KB capacity (Figure 4).
 */

#ifndef HTMSIM_STAMP_VACATION_VACATION_HH
#define HTMSIM_STAMP_VACATION_VACATION_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/region.hh"
#include "stamp/exec.hh"
#include "tmds/tm_hashtable.hh"
#include "tmds/tm_list.hh"
#include "tmds/tm_rbtree.hh"

namespace htmsim::stamp
{

struct VacationParams
{
    /** Rows per relation. */
    unsigned relationSize = 2048;
    /** Customers. */
    unsigned numCustomers = 512;
    /** Total client transactions, split across worker threads. */
    unsigned totalTx = 1200;
    /** Queries inside one make-reservation transaction. */
    unsigned queriesPerTx = 8;
    /** Percent of the id range queries touch (smaller = hotter). */
    unsigned queryRangePct = 60;
    /** Percent of transactions that are make-reservation. */
    unsigned userTxPct = 90;
    std::uint64_t seed = 31337;

    /** STAMP vacation-high: more queries, hotter range, more updates. */
    static VacationParams high();
    /** STAMP vacation-low. */
    static VacationParams low();
};

/** One row of a reservation relation. */
struct alignas(64) Reservation
{
    std::uint64_t id;
    std::uint64_t free;
    std::uint64_t total;
    std::uint64_t price;
};

/** A customer and the reservations they hold. */
struct alignas(64) Customer
{
    std::uint64_t id;
    /** List key encodes (kind, item id); value holds the price. */
    tmds::TmList<>* held;
};

/**
 * The reservation system, parameterized by unordered-set structure.
 * @tparam Table TmRbTree (original) or TmHashTable<> (modified).
 */
template <typename Table>
class VacationAppT
{
  public:
    static constexpr unsigned numKinds = 3; // car, flight, room

    explicit VacationAppT(VacationParams params) : params_(params) {}

    void
    setup()
    {
        htm::DirectContext c;
        // Deliberately under-provisioned buckets: the hash chains a
        // query walks keep the per-transaction footprint in the
        // multi-KB band of the paper's Figure 10 (POWER8's pain).
        for (auto& table : relations_)
            table = sim::make<Table>(params_.relationSize / 6);
        customers_ = sim::make<Table>(params_.numCustomers / 4);

        sim::Rng rng(params_.seed);
        for (unsigned kind = 0; kind < numKinds; ++kind) {
            for (std::uint64_t id = 1; id <= params_.relationSize;
                 ++id) {
                auto* row = c.create<Reservation>(Reservation{
                    id, 3 + rng.nextRange(5), 0,
                    50 + rng.nextRange(450)});
                row->total = row->free;
                relations_[kind]->insert(
                    c, id, reinterpret_cast<std::uint64_t>(row));
            }
        }
        for (std::uint64_t id = 1; id <= params_.numCustomers; ++id) {
            auto* customer = c.create<Customer>(
                Customer{id, c.create<tmds::TmList<>>()});
            customers_->insert(
                c, id, reinterpret_cast<std::uint64_t>(customer));
        }
    }

    template <typename Exec>
    void
    worker(Exec& exec)
    {
        // Fixed total work split across threads (STAMP semantics).
        // All random choices are drawn before each atomic section so
        // the body is idempotent under retries.
        const unsigned threads = exec.numThreads();
        const unsigned share =
            (params_.totalTx + threads - 1) / threads;
        const unsigned begin = exec.tid() * share;
        const unsigned end =
            std::min(params_.totalTx, begin + share);
        for (unsigned i = begin; i < end; ++i) {
            const std::uint64_t dice = exec.rng().nextRange(100);
            if (dice < params_.userTxPct) {
                makeReservation(exec);
            } else if (dice < params_.userTxPct +
                                  (100 - params_.userTxPct) / 2) {
                deleteCustomer(exec);
            } else {
                updateTables(exec);
            }
        }
    }

    /**
     * Conservation check: for every row, the items missing from the
     * free pool are exactly those held by customers, and free never
     * exceeds total.
     */
    bool
    verify()
    {
        htm::DirectContext c;
        // (kind << 32 | id) -> held count across all customers.
        std::unordered_map<std::uint64_t, std::uint64_t> held;
        bool ok = true;
        customers_->forEach(c, [&](std::uint64_t, std::uint64_t raw) {
            auto* customer = reinterpret_cast<Customer*>(raw);
            customer->held->forEach(
                c, [&](std::uint64_t key, std::uint64_t) {
                    ++held[key];
                });
        });
        std::uint64_t rows_checked = 0;
        for (unsigned kind = 0; kind < numKinds; ++kind) {
            relations_[kind]->forEach(
                c, [&](std::uint64_t id, std::uint64_t raw) {
                    auto* row = reinterpret_cast<Reservation*>(raw);
                    ++rows_checked;
                    if (row->free > row->total)
                        ok = false;
                    const std::uint64_t key =
                        std::uint64_t(kind) << 32 | id;
                    const auto it = held.find(key);
                    const std::uint64_t held_count =
                        it == held.end() ? 0 : it->second;
                    if (row->total - row->free != held_count)
                        ok = false;
                });
        }
        return ok && rows_checked == params_.relationSize * numKinds;
    }

  private:
    std::uint64_t
    randomItem(sim::Rng& rng) const
    {
        const std::uint64_t range = std::max<std::uint64_t>(
            1, params_.relationSize * params_.queryRangePct / 100);
        return 1 + rng.nextRange(range);
    }

    template <typename Exec>
    void
    makeReservation(Exec& exec)
    {
        struct Query
        {
            unsigned kind;
            std::uint64_t id;
        };
        std::array<Query, 16> queries;
        const unsigned n =
            std::min<unsigned>(params_.queriesPerTx, 16);
        for (unsigned q = 0; q < n; ++q) {
            queries[q] = {unsigned(exec.rng().nextRange(numKinds)),
                          randomItem(exec.rng())};
        }
        const std::uint64_t customer_id =
            1 + exec.rng().nextRange(params_.numCustomers);

        static const htm::TxSiteId reserveSite =
            htm::txSite("vacation.makeReservation");
        exec.atomic(reserveSite, [&](auto& c) {
            // Find the cheapest available item of each kind among the
            // queried ones, then reserve it for the customer.
            std::array<Reservation*, numKinds> best{};
            std::array<std::uint64_t, numKinds> best_price{};
            for (unsigned q = 0; q < n; ++q) {
                std::uint64_t raw = 0;
                if (!relations_[queries[q].kind]->find(
                        c, queries[q].id, &raw)) {
                    continue;
                }
                auto* row = reinterpret_cast<Reservation*>(raw);
                const std::uint64_t free = c.load(&row->free);
                const std::uint64_t price = c.load(&row->price);
                if (free == 0)
                    continue;
                const unsigned kind = queries[q].kind;
                if (best[kind] == nullptr || price < best_price[kind]) {
                    best[kind] = row;
                    best_price[kind] = price;
                }
                c.work(35); // per-query request processing
            }

            std::uint64_t raw_customer = 0;
            if (!customers_->find(c, customer_id, &raw_customer))
                return;
            auto* customer =
                reinterpret_cast<Customer*>(raw_customer);
            for (unsigned kind = 0; kind < numKinds; ++kind) {
                Reservation* row = best[kind];
                if (row == nullptr)
                    continue;
                const std::uint64_t free = c.load(&row->free);
                if (free == 0)
                    continue;
                const std::uint64_t item_key =
                    std::uint64_t(kind) << 32 | c.load(&row->id);
                if (customer->held->insert(c, item_key,
                                           best_price[kind])) {
                    c.store(&row->free, free - 1);
                }
            }
        });
    }

    template <typename Exec>
    void
    deleteCustomer(Exec& exec)
    {
        const std::uint64_t customer_id =
            1 + exec.rng().nextRange(params_.numCustomers);
        static const htm::TxSiteId deleteSite =
            htm::txSite("vacation.deleteCustomer");
        exec.atomic(deleteSite, [&](auto& c) {
            std::uint64_t raw_customer = 0;
            if (!customers_->find(c, customer_id, &raw_customer))
                return;
            auto* customer =
                reinterpret_cast<Customer*>(raw_customer);
            // Release everything the customer holds.
            std::uint64_t key = 0;
            while (customer->held->popFront(c, &key, nullptr)) {
                const unsigned kind = unsigned(key >> 32);
                const std::uint64_t id = key & 0xffffffffu;
                std::uint64_t raw_row = 0;
                if (relations_[kind]->find(c, id, &raw_row)) {
                    auto* row = reinterpret_cast<Reservation*>(raw_row);
                    c.store(&row->free, c.load(&row->free) + 1);
                }
                c.work(25);
            }
        });
    }

    template <typename Exec>
    void
    updateTables(Exec& exec)
    {
        const unsigned kind = unsigned(exec.rng().nextRange(numKinds));
        const std::uint64_t id = randomItem(exec.rng());
        const bool grow = exec.rng().nextBool(0.5);
        const std::uint64_t delta = 1 + exec.rng().nextRange(3);
        static const htm::TxSiteId updateSite =
            htm::txSite("vacation.updateTables");
        exec.atomic(updateSite, [&](auto& c) {
            std::uint64_t raw = 0;
            if (!relations_[kind]->find(c, id, &raw))
                return;
            auto* row = reinterpret_cast<Reservation*>(raw);
            if (grow) {
                c.store(&row->free, c.load(&row->free) + delta);
                c.store(&row->total, c.load(&row->total) + delta);
            } else {
                const std::uint64_t free = c.load(&row->free);
                const std::uint64_t shrink =
                    std::min<std::uint64_t>(free, delta);
                c.store(&row->free, free - shrink);
                c.store(&row->total, c.load(&row->total) - shrink);
            }
            c.work(40);
        });
    }

    VacationParams params_;
    std::array<sim::Ptr<Table>, numKinds> relations_;
    sim::Ptr<Table> customers_;
};

/** Paper's modified variant (hash tables). */
using VacationApp = VacationAppT<tmds::TmHashTable<>>;
/** Original STAMP variant (red-black trees). */
using VacationAppOriginal = VacationAppT<tmds::TmRbTree>;

} // namespace htmsim::stamp

#endif // HTMSIM_STAMP_VACATION_VACATION_HH
