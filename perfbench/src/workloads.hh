/**
 * @file
 * The benchmark's unit-run lists. Each is a fixed list of unit runs
 * executed back to back, in a fixed order, by one caller on one host
 * thread (a closed loop): the STAMP Figure 2 cells and a
 * differential-oracle sweep, the two timed workloads, and the contended
 * 256-client server cells, whose one traced pass gives the server and
 * prof layer metrics.
 */

#ifndef HTMSIM_PERFBENCH_WORKLOADS_HH
#define HTMSIM_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "htm/stats.hh"
#include "trace.hh"

namespace htmsim::perfbench
{

/** What one unit run produced. */
struct UnitOutcome
{
    /** The program's own check passed and nothing threw. */
    bool ok = false;
    /** Committed atomic sections of every kind. */
    std::uint64_t commits = 0;
    /** Hash of the run's simulated outputs. */
    std::uint64_t digest = 0;
    /** Runtime statistics, where the layer exposes them (hasStats). */
    htm::TxStats stats;
    bool hasStats = false;
    /** Server operations completed (server cells only). */
    std::uint64_t ops = 0;
};

/** A fixed, ordered list of unit runs. */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual std::size_t size() const = 0;

    /** Execute unit run @p index; @p tracer is null when untraced. */
    virtual UnitOutcome run(std::size_t index, Tracer* tracer) = 0;

    /** Per-layer host-time keys ("stamp.app_ms.bayes", ...). */
    const std::vector<std::string>& keys() const { return keys_; }
    /** Host ms charged to each key so far. */
    const std::vector<double>& keyMs() const { return keyMs_; }

    /** Charge a finished unit run's host time to its keys. */
    void chargeUnit(std::size_t index, std::int64_t ns);

    /** Whether charges count (the per-layer figures cover one pass). */
    void setCharging(bool charging) { charging_ = charging; }

  protected:
    /** Register a key; @return its index. */
    unsigned addKey(const std::string& key);
    void charge(unsigned key, std::int64_t ns);

    /** Keys charged with each unit run's host time, by unit index. */
    std::vector<std::vector<unsigned>> unitKeys_;

  private:
    std::vector<std::string> keys_;
    std::vector<double> keyMs_;
    bool charging_ = true;
};

/** Workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string>& workloadNames();

/**
 * Build workload @p name with inputs derived from @p seed; nullptr for
 * an unknown name. Building is the workload's set-up.
 */
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed,
                                       Tracer* tracer);

} // namespace htmsim::perfbench

#endif // HTMSIM_PERFBENCH_WORKLOADS_HH
