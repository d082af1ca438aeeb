/**
 * @file
 * txprof exporters and the shared serializers: the JSON profile, a
 * Perfetto / Chrome trace_event file, the human-readable text report
 * that stamp_runner --prof prints, and the one serializer of each
 * struct that several reports carry (TxStats, stamp::Speedup,
 * SiteProfile), all in one snake_case vocabulary.
 *
 * Everything here writes into a JsonWriter its caller opened; the
 * report envelope (schema, tool, provenance) is the tool's, in
 * bench/report.hh.
 *
 * The Perfetto export uses the legacy Chrome trace_event JSON format
 * ({"traceEvents": [...]}), which ui.perfetto.dev and chrome://tracing
 * both load directly. One virtual cycle is mapped to one nanosecond.
 */

#ifndef HTMSIM_PROF_REPORT_HH
#define HTMSIM_PROF_REPORT_HH

#include <cstdio>
#include <string>

#include "htm/stats.hh"
#include "json.hh"
#include "profiler.hh"
#include "stamp/harness.hh"

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
    /** The profiled (transactional) run and its sequential baseline
     *  (seq.cycles is 0 if the baseline was not measured). */
    stamp::Speedup result;
};

/** Run-wide statistics as one object: commit and abort totals, the
 *  paper's ratios, cycle attribution, hazards and abort causes. */
void writeJson(JsonWriter& json, const htm::TxStats& stats);

/** A speed-up measurement as one object: the ratio, both runs' cycles,
 *  verification and the transactional run's statistics. */
void writeJson(JsonWriter& json, const stamp::Speedup& speedup);

/** One transaction site's profile as one object. */
void writeJson(JsonWriter& json, const SiteProfile& site);

/** Write the profile as members of @p json's open root object: the
 *  run, the capture counters, the sites and the conflict pairs. */
void writeProfile(JsonWriter& json, const RunInfo& info,
                  const ProfileReport& report);

/**
 * Write the captured events as a Chrome trace_event document (its own
 * root object, no envelope): one complete ("ph":"X") slice per
 * committed / aborted / fallback section and per lock wait/hold span,
 * one instant event per conflict resolution. Load the file in
 * ui.perfetto.dev.
 */
void writePerfettoTrace(JsonWriter& json, const RunInfo& info,
                        const TxProfiler& profiler);

/** Print the human-readable per-site table and top conflict pairs. */
void printReport(std::FILE* out, const RunInfo& info,
                 const ProfileReport& report, std::size_t top_pairs);

} // namespace htmsim::prof

#endif // HTMSIM_PROF_REPORT_HH
