/**
 * @file
 * STAMP intruder port: signature-based network intrusion detection.
 *
 * Packets (flow fragments) arrive in a shared queue in scrambled
 * order. Worker threads pop a fragment (transaction 1), insert it into
 * the per-flow reassembly state under the flow map (transaction 2,
 * which also assembles the complete flow when its last fragment
 * lands), then run the signature detector on the assembled flow (pure
 * compute) and account the result.
 *
 * Structure variants (paper Section 4):
 *  - original: flow map = red-black tree, fragment sets = sorted
 *    linked lists;
 *  - modified: flow map = hash table, fragment sets = red-black trees.
 */

#ifndef HTMSIM_STAMP_INTRUDER_INTRUDER_HH
#define HTMSIM_STAMP_INTRUDER_INTRUDER_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "sim/region.hh"
#include "stamp/exec.hh"
#include "tmds/tm_hashtable.hh"
#include "tmds/tm_list.hh"
#include "tmds/tm_queue.hh"
#include "tmds/tm_rbtree.hh"

namespace htmsim::stamp
{

struct IntruderParams
{
    unsigned numFlows = 256;
    unsigned minFlowLength = 64;
    unsigned maxFlowLength = 192;
    unsigned maxFragments = 6;
    /** Percent of flows carrying the attack signature. */
    unsigned attackPct = 10;
    std::uint64_t seed = 90210;

    static IntruderParams simDefault() { return {}; }
};

/** The signature the detector scans for. */
constexpr const char* intruderSignature = "ATTACK";

/** One network fragment. */
struct IntruderFragment
{
    std::uint64_t flowId;
    std::uint64_t fragmentId;
    std::uint64_t isLast; ///< carries the fragment count when last
    std::uint64_t length;
    const char* chars;
};

/**
 * Intrusion detector, parameterized on reassembly structures.
 * @tparam FlowMap  unordered flowId -> FlowState (rbtree | hashtable)
 * @tparam FragSet  ordered fragmentId -> fragment (list | rbtree)
 */
template <typename FlowMap, typename FragSet>
class IntruderAppT
{
  public:
    explicit IntruderAppT(IntruderParams params) : params_(params) {}

    void
    setup()
    {
        sim::Rng rng(params_.seed);
        htm::DirectContext c;

        flowMap_ = sim::make<FlowMap>(params_.numFlows / 2);
        inputQueue_ = sim::make<tmds::TmQueue>(
            params_.numFlows * params_.maxFragments + 8);
        flowStates_.clear();
        fragments_.clear();
        charPool_.clear();
        attacksInjected_ = 0;
        flowsCompleted_ = 0;
        attacksFound_ = 0;

        // Generate flow payloads.
        const std::size_t pool_bytes =
            std::size_t(params_.numFlows) * params_.maxFlowLength;
        charPool_.resize(pool_bytes);
        std::vector<std::pair<const char*, unsigned>> flows;
        std::size_t pool_used = 0;
        static const char letters[] = "abcdefghijklmnopqrstuvwxyz";
        const unsigned signature_length =
            unsigned(std::strlen(intruderSignature));
        for (unsigned f = 0; f < params_.numFlows; ++f) {
            const unsigned length =
                params_.minFlowLength +
                unsigned(rng.nextRange(params_.maxFlowLength -
                                       params_.minFlowLength + 1));
            char* chars = charPool_.data() + pool_used;
            pool_used += length;
            for (unsigned i = 0; i < length; ++i)
                chars[i] = letters[rng.nextRange(26)];
            if (rng.nextRange(100) < params_.attackPct) {
                const unsigned at = unsigned(
                    rng.nextRange(length - signature_length));
                std::memcpy(chars + at, intruderSignature,
                            signature_length);
                ++attacksInjected_;
            }
            flows.push_back({chars, length});
        }

        // Pre-allocate flow reassembly states (one per flow).
        flowStates_.reserve(params_.numFlows);
        for (unsigned f = 0; f < params_.numFlows; ++f) {
            flowStates_.push_back(sim::make<FlowState>());
        }

        // Fragment the flows and scramble all fragments into the
        // input queue.
        for (unsigned f = 0; f < params_.numFlows; ++f) {
            const auto [chars, length] = flows[f];
            const unsigned fragments =
                1 + unsigned(rng.nextRange(params_.maxFragments));
            const unsigned base = length / fragments;
            unsigned offset = 0;
            for (unsigned i = 0; i < fragments; ++i) {
                const unsigned fragment_length =
                    i + 1 == fragments ? length - offset : base;
                fragments_.push_back(
                    sim::make<IntruderFragment>(IntruderFragment{
                        f, i, i + 1 == fragments ? fragments : 0,
                        fragment_length, chars + offset}));
                offset += fragment_length;
            }
        }
        // Fisher-Yates scramble of fragment arrival order.
        for (std::size_t i = fragments_.size(); i > 1; --i) {
            const std::size_t j = rng.nextRange(i);
            std::swap(fragments_[i - 1], fragments_[j]);
        }
        for (const auto& fragment : fragments_) {
            inputQueue_->push(
                c, reinterpret_cast<std::uint64_t>(fragment.get()));
        }
        perThreadAttacks_.assign(64, 0);
        perThreadFlows_.assign(64, 0);
    }

    template <typename Exec>
    void
    worker(Exec& exec)
    {
        for (;;) {
            IntruderFragment* fragment = nullptr;
            static const htm::TxSiteId popSite =
                htm::txSite("intruder.popFragment");
            exec.atomic(popSite, [&](auto& c) {
                std::uint64_t raw = 0;
                fragment = inputQueue_->pop(c, &raw)
                               ? reinterpret_cast<IntruderFragment*>(
                                     raw)
                               : nullptr;
            });
            if (fragment == nullptr)
                break;

            char* assembled = nullptr;
            std::uint64_t assembled_length = 0;
            static const htm::TxSiteId assembleSite =
                htm::txSite("intruder.assemble");
            exec.atomic(assembleSite, [&](auto& c) {
                assembled = nullptr;
                assembled_length = 0;
                decode(c, fragment, &assembled, &assembled_length);
            });

            if (assembled != nullptr) {
                const bool attack =
                    detect(exec, assembled, assembled_length);
                ++perThreadFlows_[exec.tid()];
                if (attack)
                    ++perThreadAttacks_[exec.tid()];
                sim::regionFree(assembled, assembled_length + 1);
            }
        }
        exec.barrier();
        if (exec.tid() == 0) {
            for (unsigned t = 0; t < 64; ++t) {
                attacksFound_ += perThreadAttacks_[t];
                flowsCompleted_ += perThreadFlows_[t];
            }
        }
    }

    bool
    verify() const
    {
        htm::DirectContext c;
        if (flowsCompleted_ != params_.numFlows)
            return false;
        if (attacksFound_ != attacksInjected_)
            return false;
        // All flows must have been retired from the map.
        return const_cast<FlowMap&>(*flowMap_).size(c) == 0;
    }

    std::uint64_t attacksInjected() const { return attacksInjected_; }
    std::uint64_t attacksFound() const { return attacksFound_; }

  private:
    struct FlowState
    {
        std::uint64_t arrived = 0;
        std::uint64_t total = 0;
        FragSet fragments;

        FlowState() : fragments(8) {}
    };

    /**
     * Transactional decoder: track the fragment; on completion,
     * assemble the flow into a transactionally allocated buffer and
     * retire the flow from the map.
     */
    template <typename Ctx>
    void
    decode(Ctx& c, IntruderFragment* fragment, char** assembled_out,
           std::uint64_t* length_out)
    {
        const std::uint64_t flow_id = fragment->flowId;
        FlowState* state = flowStates_[flow_id].get();

        std::uint64_t raw_state = 0;
        if (!flowMap_->find(c, flow_id, &raw_state)) {
            flowMap_->insert(
                c, flow_id, reinterpret_cast<std::uint64_t>(state));
        }

        if (!state->fragments.insert(
                c, fragment->fragmentId,
                reinterpret_cast<std::uint64_t>(fragment))) {
            return; // duplicate delivery (cannot happen here)
        }
        const std::uint64_t arrived = c.load(&state->arrived) + 1;
        c.store(&state->arrived, arrived);
        if (fragment->isLast != 0)
            c.store(&state->total, fragment->isLast);

        c.work(60); // header parsing / checksum per fragment
        const std::uint64_t total = c.load(&state->total);
        if (total == 0 || arrived != total)
            return;

        // Complete: assemble in fragment order, reading payload bytes
        // and writing the buffer transactionally (both contribute to
        // the footprint, as in STAMP).
        std::uint64_t length = 0;
        state->fragments.forEach(
            c, [&](std::uint64_t, std::uint64_t raw) {
                length += reinterpret_cast<IntruderFragment*>(raw)
                              ->length;
            });
        char* buffer = static_cast<char*>(c.allocBytes(length + 1));
        std::uint64_t at = 0;
        state->fragments.forEach(
            c, [&](std::uint64_t, std::uint64_t raw) {
                auto* piece =
                    reinterpret_cast<IntruderFragment*>(raw);
                for (std::uint64_t i = 0; i < piece->length; ++i) {
                    c.store(&buffer[at++],
                            c.load(&piece->chars[i]));
                }
                c.work(sim::Cycles(piece->length)); // copy arithmetic
            });
        c.store(&buffer[length], char(0));

        // Retire the flow.
        drainFragments(c, *state);
        c.store(&state->arrived, std::uint64_t(0));
        c.store(&state->total, std::uint64_t(0));
        flowMap_->remove(c, flow_id);

        *assembled_out = buffer;
        *length_out = length;
    }

    template <typename Ctx>
    void
    drainFragments(Ctx& c, FlowState& state)
    {
        // Remove every remaining fragment entry from the set.
        for (;;) {
            std::uint64_t key = ~std::uint64_t(0);
            bool any = false;
            state.fragments.forEach(
                c, [&](std::uint64_t k, std::uint64_t) {
                    if (!any) {
                        key = k;
                        any = true;
                    }
                });
            if (!any)
                break;
            state.fragments.remove(c, key);
        }
    }

    /** Signature scan: host compute, charged as work. */
    template <typename Exec>
    bool
    detect(Exec& exec, const char* chars, std::uint64_t length)
    {
        exec.work(sim::Cycles(length) * 2);
        return std::strstr(chars, intruderSignature) != nullptr;
    }

    IntruderParams params_;
    sim::Ptr<FlowMap> flowMap_;
    sim::Ptr<tmds::TmQueue> inputQueue_;
    std::vector<sim::Ptr<FlowState>> flowStates_;
    std::vector<sim::Ptr<IntruderFragment>> fragments_;
    sim::Vector<char> charPool_;

    std::vector<std::uint64_t> perThreadAttacks_;
    std::vector<std::uint64_t> perThreadFlows_;
    std::uint64_t attacksInjected_ = 0;
    std::uint64_t attacksFound_ = 0;
    std::uint64_t flowsCompleted_ = 0;
};

/** Paper's modified variant. */
using IntruderApp = IntruderAppT<tmds::TmHashTable<>, tmds::TmRbTree>;
/** Original STAMP variant. */
using IntruderAppOriginal =
    IntruderAppT<tmds::TmRbTree, tmds::TmList<>>;

} // namespace htmsim::stamp

#endif // HTMSIM_STAMP_INTRUDER_INTRUDER_HH
