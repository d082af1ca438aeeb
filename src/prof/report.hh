/**
 * @file
 * txprof exporters: machine-readable JSON profile and a Perfetto /
 * Chrome trace_event file, plus the human-readable text report that
 * stamp_runner --prof prints.
 *
 * The Perfetto export uses the legacy Chrome trace_event JSON format
 * ({"traceEvents": [...]}), which ui.perfetto.dev and chrome://tracing
 * both load directly. One virtual cycle is mapped to one nanosecond.
 */

#ifndef HTMSIM_PROF_REPORT_HH
#define HTMSIM_PROF_REPORT_HH

#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>

#include "htm/stats.hh"
#include "profiler.hh"

namespace htmsim::prof
{

/** Everything about the profiled run that the exporters record. */
struct RunInfo
{
    std::string bench;
    std::string machine;
    std::string backend;
    unsigned threads = 0;
    std::uint64_t seed = 0;
    /** Parallel-region cycles of the profiled (transactional) run. */
    std::uint64_t tmCycles = 0;
    /** Sequential-baseline cycles (0 if not measured). */
    std::uint64_t seqCycles = 0;
    double speedup = 0.0;
    /** Run-wide runtime statistics (cycle attribution included). */
    htm::TxStats stats;
};

/** Escape a string for embedding in a JSON string literal. */
std::string jsonEscape(std::string_view text);

/** Write the aggregated profile as a JSON document. */
void writeProfileJson(std::ostream& out, const RunInfo& info,
                      const ProfileReport& report);

/**
 * Write the captured events as a Chrome trace_event JSON file:
 * one complete ("ph":"X") slice per committed / aborted / fallback
 * section and per lock wait/hold span, one instant event per conflict
 * resolution. Load the file in ui.perfetto.dev.
 */
void writePerfettoTrace(std::ostream& out, const RunInfo& info,
                        const TxProfiler& profiler);

/** Print the human-readable per-site table and top conflict pairs. */
void printReport(std::FILE* out, const RunInfo& info,
                 const ProfileReport& report, std::size_t top_pairs);

} // namespace htmsim::prof

#endif // HTMSIM_PROF_REPORT_HH
