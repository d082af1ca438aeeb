/**
 * @file
 * STAMP bayes port: Bayesian-network structure learning by parallel
 * hill climbing.
 *
 * Threads pop "improve this variable" tasks from a shared list, score
 * candidate parent insertions against the training data (heavy pure
 * compute), then transactionally re-validate the score, check
 * acyclicity, and apply the edge. The paper excludes bayes from its
 * averages because the search order — and therefore the runtime — is
 * highly non-deterministic under concurrency; the same holds here
 * across thread counts (within one seed+thread-count configuration the
 * simulation is still exactly reproducible).
 *
 * The ADtree of the original is replaced by direct counting over the
 * record set (charged as compute work); the transactional profile —
 * task list, adjacency updates, score bookkeeping — is preserved.
 */

#ifndef HTMSIM_STAMP_BAYES_BAYES_HH
#define HTMSIM_STAMP_BAYES_BAYES_HH

#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/region.hh"
#include "stamp/exec.hh"
#include "tmds/tm_list.hh"

namespace htmsim::stamp
{

struct BayesParams
{
    unsigned numVars = 16;
    unsigned numRecords = 256;
    unsigned maxParents = 3;
    /** Edges in the hidden generator network. */
    unsigned generatorEdges = 20;
    /** Minimum log-likelihood gain to accept an insertion. */
    double minGain = 1.0;
    std::uint64_t seed = 1337;

    static BayesParams simDefault() { return {}; }
};

class BayesApp
{
  public:
    explicit BayesApp(BayesParams params) : params_(params) {}

    void setup();

    template <typename Exec>
    void
    worker(Exec& exec)
    {
        for (;;) {
            std::uint64_t var = 0;
            bool have_task = false;
            static const htm::TxSiteId pickSite =
                htm::txSite("bayes.pickTask");
            exec.atomic(pickSite, [&](auto& c) {
                have_task = taskList_->popFront(c, &var, nullptr);
            });
            if (!have_task)
                break;
            processTask(exec, unsigned(var));
        }
    }

    bool verify() const;

    /** Network log-likelihood gain over the empty network. */
    double
    totalGain() const
    {
        double sum = 0.0;
        for (const double gain : totalGainShared_)
            sum += gain;
        return sum;
    }
    unsigned edgeCount() const;

  private:
    template <typename Exec>
    void
    processTask(Exec& exec, unsigned var)
    {
        // Score all candidate parents against a host snapshot of the
        // current parent set (heavy compute, charged as work).
        std::vector<unsigned> parents = parentsOf(var);
        int best_parent = -1;
        double best_gain = params_.minGain;
        const double base = localScore(var, parents);
        for (unsigned candidate = 0; candidate < params_.numVars;
             ++candidate) {
            if (candidate == var || hasParent(parents, candidate))
                continue;
            parents.push_back(candidate);
            const double gain = localScore(var, parents) - base;
            parents.pop_back();
            if (gain > best_gain) {
                best_gain = gain;
                best_parent = int(candidate);
            }
        }
        exec.work(sim::Cycles(params_.numVars) * params_.numRecords /
                  4);
        if (best_parent < 0 ||
            parents.size() >= params_.maxParents) {
            return;
        }

        // Transactionally re-validate and apply.
        bool applied = false;
        static const htm::TxSiteId applySite =
            htm::txSite("bayes.applyDependency");
        exec.atomic(applySite, [&](auto& c) {
            applied = false;
            // The parent set must be unchanged since scoring.
            if (c.load(&parentCount_[var]) !=
                std::uint64_t(parents.size())) {
                return; // someone raced us; task requeued below
            }
            if (c.load(&adjacency_[unsigned(best_parent) * stride_ +
                                   var]) != 0) {
                return;
            }
            // Acyclicity: reject if var reaches best_parent through
            // current edges (reads spread over the adjacency matrix).
            if (reaches(c, var, unsigned(best_parent)))
                return;
            c.store(&adjacency_[unsigned(best_parent) * stride_ + var],
                    std::uint64_t(1));
            c.store(&parentCount_[var],
                    c.load(&parentCount_[var]) + 1);
            applied = true;
        });

        if (applied) {
            totalGainShared_[exec.tid()] += best_gain;
            // Re-queue the variable: more parents may help.
            static const htm::TxSiteId requeueSite =
                htm::txSite("bayes.requeue");
            exec.atomic(requeueSite, [&](auto& c) {
                taskList_->insert(c, var, 0);
            });
        }
    }

    /** DFS reachability over the live adjacency (transactional). */
    template <typename Ctx>
    bool
    reaches(Ctx& c, unsigned from, unsigned to)
    {
        std::vector<unsigned> stack{from};
        std::vector<char> seen(params_.numVars, 0);
        seen[from] = 1;
        while (!stack.empty()) {
            const unsigned at = stack.back();
            stack.pop_back();
            if (at == to)
                return true;
            for (unsigned next = 0; next < params_.numVars; ++next) {
                if (!seen[next] &&
                    c.load(&adjacency_[at * stride_ + next]) != 0) {
                    seen[next] = 1;
                    stack.push_back(next);
                }
            }
        }
        return false;
    }

    std::vector<unsigned> parentsOf(unsigned var) const;
    static bool
    hasParent(const std::vector<unsigned>& parents, unsigned candidate)
    {
        for (const unsigned parent : parents) {
            if (parent == candidate)
                return true;
        }
        return false;
    }

    /** Log-likelihood of var's column given a parent set (host). */
    double localScore(unsigned var,
                      const std::vector<unsigned>& parents) const;

    BayesParams params_;
    unsigned stride_ = 0;
    std::vector<std::uint64_t> records_; ///< one bitmask per record
    sim::Vector<std::uint64_t> adjacency_; ///< row parent, col child
    sim::Vector<std::uint64_t> parentCount_;
    sim::Ptr<tmds::TmList<>> taskList_;
    std::vector<double> totalGainShared_;
    double totalGain_ = 0.0;
};

} // namespace htmsim::stamp

#endif // HTMSIM_STAMP_BAYES_BAYES_HH
