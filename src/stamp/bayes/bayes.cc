#include "bayes.hh"

#include <algorithm>

#include "htm/context.hh"
#include "sim/random.hh"

namespace htmsim::stamp
{

void
BayesApp::setup()
{
    sim::Rng rng(params_.seed);
    const unsigned v = params_.numVars;
    stride_ = v;
    adjacency_.assign(std::size_t(v) * v, 0);
    parentCount_.assign(v, 0);
    totalGainShared_.assign(64, 0.0);
    totalGain_ = 0.0;

    // Hidden generator DAG: random forward edges under a random
    // topological order.
    std::vector<unsigned> order(v);
    for (unsigned i = 0; i < v; ++i)
        order[i] = i;
    for (std::size_t i = v; i > 1; --i)
        std::swap(order[i - 1], order[rng.nextRange(i)]);

    std::vector<std::vector<unsigned>> gen_parents(v);
    for (unsigned e = 0; e < params_.generatorEdges; ++e) {
        const unsigned a = unsigned(rng.nextRange(v));
        const unsigned b = unsigned(rng.nextRange(v));
        if (a == b)
            continue;
        // Edge from earlier to later in the hidden order.
        unsigned pa = a, pb = b;
        for (const unsigned node : order) {
            if (node == a) {
                pa = a;
                pb = b;
                break;
            }
            if (node == b) {
                pa = b;
                pb = a;
                break;
            }
        }
        auto& parents = gen_parents[pb];
        if (parents.size() < params_.maxParents &&
            std::find(parents.begin(), parents.end(), pa) ==
                parents.end()) {
            parents.push_back(pa);
        }
    }

    // Ancestral sampling: each variable is (roughly) the XOR of its
    // parents with 15 % noise — strongly detectable structure.
    records_.assign(params_.numRecords, 0);
    for (auto& record : records_) {
        for (const unsigned node : order) {
            bool value;
            if (gen_parents[node].empty()) {
                value = rng.nextBool(0.5);
            } else {
                bool x = false;
                for (const unsigned parent : gen_parents[node])
                    x ^= ((record >> parent) & 1) != 0;
                value = rng.nextBool(0.15) ? !x : x;
            }
            if (value)
                record |= std::uint64_t(1) << node;
        }
    }

    // Initial tasks: one per variable.
    taskList_ = sim::make<tmds::TmList<>>();
    htm::DirectContext c;
    for (unsigned node = 0; node < v; ++node)
        taskList_->insert(c, node, 0);
}

std::vector<unsigned>
BayesApp::parentsOf(unsigned var) const
{
    std::vector<unsigned> parents;
    for (unsigned p = 0; p < params_.numVars; ++p) {
        if (adjacency_[p * stride_ + var] != 0)
            parents.push_back(p);
    }
    return parents;
}

double
BayesApp::localScore(unsigned var,
                     const std::vector<unsigned>& parents) const
{
    // Log-likelihood with Laplace smoothing, minus a BIC-style
    // complexity penalty per parent configuration.
    const std::size_t configs = std::size_t(1) << parents.size();
    std::vector<std::uint32_t> ones(configs, 0);
    std::vector<std::uint32_t> totals(configs, 0);
    for (const std::uint64_t record : records_) {
        std::size_t config = 0;
        for (std::size_t i = 0; i < parents.size(); ++i)
            config |= ((record >> parents[i]) & 1) << i;
        ++totals[config];
        ones[config] +=
            std::uint32_t((record >> var) & 1);
    }
    double score = 0.0;
    for (std::size_t config = 0; config < configs; ++config) {
        const double n = totals[config];
        const double n1 = ones[config];
        const double p1 = (n1 + 1.0) / (n + 2.0);
        score += n1 * std::log(p1) + (n - n1) * std::log(1.0 - p1);
    }
    score -= 0.5 * std::log(double(params_.numRecords)) *
             double(configs);
    return score;
}

unsigned
BayesApp::edgeCount() const
{
    unsigned count = 0;
    for (const auto cell : adjacency_)
        count += cell != 0 ? 1 : 0;
    return count;
}

bool
BayesApp::verify() const
{
    const unsigned v = params_.numVars;
    // Parent counts must match the adjacency matrix and respect the
    // limit.
    for (unsigned var = 0; var < v; ++var) {
        unsigned parents = 0;
        for (unsigned p = 0; p < v; ++p)
            parents += adjacency_[p * stride_ + var] != 0 ? 1 : 0;
        if (parents != parentCount_[var])
            return false;
        if (parents > params_.maxParents)
            return false;
    }

    // Acyclicity via Kahn's algorithm.
    std::vector<unsigned> indegree(v, 0);
    for (unsigned p = 0; p < v; ++p) {
        for (unsigned child = 0; child < v; ++child)
            indegree[child] += adjacency_[p * stride_ + child] ? 1 : 0;
    }
    std::vector<unsigned> ready;
    for (unsigned node = 0; node < v; ++node) {
        if (indegree[node] == 0)
            ready.push_back(node);
    }
    unsigned removed = 0;
    while (!ready.empty()) {
        const unsigned node = ready.back();
        ready.pop_back();
        ++removed;
        for (unsigned child = 0; child < v; ++child) {
            if (adjacency_[node * stride_ + child] &&
                --indegree[child] == 0) {
                ready.push_back(child);
            }
        }
    }
    if (removed != v)
        return false;

    // Learning must have found some structure.
    return edgeCount() > 0 && totalGain() > 0.0;
}

} // namespace htmsim::stamp
