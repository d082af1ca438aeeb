/**
 * @file
 * Layer probes: host cost of single htm and sim operations, each timed
 * through the layer's public entry points on a fresh Runtime or
 * Scheduler.
 */

#ifndef HTMSIM_PERFBENCH_PROBES_HH
#define HTMSIM_PERFBENCH_PROBES_HH

#include <string>
#include <utility>
#include <vector>

namespace htmsim::perfbench
{

struct ProbeResults
{
    /** (metric name, value), in report order. */
    std::vector<std::pair<std::string, double>> values;
    /** Every probe ran the path it meant to time (e.g. the empty
     *  transactions committed in hardware, the STM ones in software). */
    bool ok = true;
};

ProbeResults runProbes();

} // namespace htmsim::perfbench

#endif // HTMSIM_PERFBENCH_PROBES_HH
