#include "report.hh"

#include <cinttypes>
#include <cstdio>

#include "htm/abort.hh"

namespace htmsim::prof
{

using htm::TxEvent;
using htm::TxEventKind;

namespace
{

/** Microseconds for trace_event "ts"/"dur" (1 cycle = 1 ns). */
double
micros(sim::Cycles cycles)
{
    return double(cycles) / 1000.0;
}

std::string
hexLine(std::uintptr_t line)
{
    char text[32];
    std::snprintf(text, sizeof(text), "0x%" PRIxPTR, line);
    return text;
}

/** Nonzero entries of a per-cause tally, keyed by cause name. */
void
writeCauses(JsonWriter& json,
            const std::array<std::uint64_t, htm::numAbortCauses>& causes)
{
    json.beginObject();
    for (std::size_t cause = 0; cause < causes.size(); ++cause) {
        if (causes[cause] != 0) {
            json.field(htm::abortCauseName(htm::AbortCause(cause)),
                       causes[cause]);
        }
    }
    json.end();
}

} // namespace

void
writeJson(JsonWriter& json, const htm::TxStats& stats)
{
    json.beginObject()
        .field("commits", stats.totalCommits())
        .field("aborts", stats.totalAborts())
        .field("abort_ratio", stats.abortRatio())
        .field("serialization_ratio", stats.serializationRatio())
        .field("wasted_work_ratio", stats.wastedWorkRatio())
        .field("committed_tx_cycles", stats.committedTxCycles)
        .field("wasted_tx_cycles", stats.wastedTxCycles)
        .field("stm_commits", stats.stmCommits)
        .field("committed_stm_cycles", stats.committedStmCycles)
        .field("wasted_stm_cycles", stats.wastedStmCycles)
        .field("fallback_cycles", stats.fallbackCycles)
        .field("lock_wait_cycles", stats.lockWaitCycles)
        .field("backoff_cycles", stats.backoffCycles)
        .field("hazard_aborts", stats.hazardAborts())
        .field("hazard_capacity_aborts", stats.hazardCapacityAborts)
        .field("hazard_preempt_stalls", stats.hazardPreemptStalls)
        .field("hazard_stall_cycles", stats.hazardStallCycles)
        .key("causes");
    writeCauses(json, stats.trueCauseAborts);
    json.end();
}

void
writeJson(JsonWriter& json, const stamp::Speedup& speedup)
{
    json.beginObject()
        .field("speedup", speedup.ratio)
        .field("seq_cycles", speedup.seq.cycles)
        .field("tm_cycles", speedup.tm.cycles)
        .field("valid", speedup.tm.valid)
        .key("stats");
    writeJson(json, speedup.tm.stats);
    json.end();
}

void
writeJson(JsonWriter& json, const SiteProfile& site)
{
    json.beginObject()
        .field("name", site.name)
        .field("attempts", site.attempts)
        .field("commits", site.commits)
        .field("aborts", site.aborts)
        .field("fallback_commits", site.fallbackCommits)
        .field("committed_cycles", site.committedCycles)
        .field("wasted_cycles", site.wastedCycles)
        .field("fallback_cycles", site.fallbackCycles)
        .field("stall_cycles", site.stallCycles)
        .field("lock_wait_cycles", site.lockWaitCycles)
        .field("hazard_aborts", site.hazardAborts)
        .field("hazard_wasted_cycles", site.hazardWastedCycles)
        .field("abort_ratio", site.abortRatio())
        .field("wasted_work_ratio", site.wastedWorkRatio())
        .key("causes");
    writeCauses(json, site.abortCauses);
    json.end();
}

void
writeProfile(JsonWriter& json, const RunInfo& info,
             const ProfileReport& report)
{
    json.key("run")
        .beginObject()
        .field("bench", info.bench)
        .field("machine", info.machine)
        .field("backend", info.backend)
        .field("threads", info.threads)
        .field("seed", info.seed)
        .key("result");
    writeJson(json, info.result);
    json.end()
        .key("capture")
        .beginObject()
        .field("events", report.events)
        .field("dropped_events", report.droppedEvents)
        .field("conflicts", report.conflicts)
        .field("dropped_conflicts", report.droppedConflicts)
        .end();

    json.key("sites").beginArray();
    for (const SiteProfile& site : report.sites)
        writeJson(json, site);
    json.end();

    json.key("conflict_pairs").beginArray();
    for (const ConflictPairProfile& pair : report.pairs) {
        json.beginObject()
            .field("attacker", pair.attackerName)
            .field("victim", pair.victimName)
            .field("conflicts", pair.conflicts)
            .field("non_tx_conflicts", pair.nonTxConflicts)
            .field("distinct_lines", pair.distinctLines)
            .field("hot_line", hexLine(pair.hotLine))
            .field("hot_line_conflicts", pair.hotLineConflicts)
            .end();
    }
    json.end();
}

void
writePerfettoTrace(JsonWriter& json, const RunInfo& info,
                   const TxProfiler& profiler)
{
    const htm::SiteRegistry& registry = htm::SiteRegistry::instance();
    json.beginObject()
        .field("displayTimeUnit", "ns")
        .key("traceEvents")
        .beginArray();

    json.beginObject()
        .field("name", "process_name")
        .field("ph", "M")
        .field("pid", 1)
        .key("args")
        .beginObject()
        .field("name", "htmsim " + info.bench + " on " + info.machine)
        .end()
        .end();

    // One complete ("X") slice; the caller writes its args and closes
    // the args and event objects.
    const auto slice = [&json](std::string_view name,
                               const char* category,
                               const TxEvent& event) -> JsonWriter& {
        return json.beginObject()
            .field("name", name)
            .field("cat", category)
            .field("ph", "X")
            .field("pid", 1)
            .field("tid", event.tid)
            .field("ts", micros(event.sectionStart))
            .field("dur", micros(event.cycles - event.sectionStart))
            .key("args")
            .beginObject();
    };

    for (const TxEvent& event : profiler.events()) {
        const std::string& site = registry.name(event.site);
        switch (event.kind) {
          case TxEventKind::commit:
            slice(site, "tx", event).field("outcome", "commit");
            break;
          case TxEventKind::abort:
            slice(site, "abort", event)
                .field("outcome", "abort")
                .field("cause", htm::abortCauseName(event.cause));
            break;
          case TxEventKind::fallbackCommit:
            slice(site, "fallback", event).field("outcome", "fallback");
            break;
          case TxEventKind::nonSpecCommit:
            slice(site, "fallback", event).field("outcome", "nonspec");
            break;
          case TxEventKind::lockAcquired:
            if (event.cycles <= event.sectionStart)
                continue;
            slice("lock wait", "lock", event).field("site", site);
            break;
          case TxEventKind::lockReleased:
            slice("lock held", "lock", event).field("site", site);
            break;
          case TxEventKind::begin:
            continue;
        }
        json.end().end();
    }

    for (const htm::TxConflictEvent& event : profiler.conflicts()) {
        json.beginObject()
            .field("name", "conflict")
            .field("cat", "conflict")
            .field("ph", "i")
            .field("s", "t")
            .field("pid", 1)
            .field("tid", event.victimTid)
            .field("ts", micros(event.cycles))
            .key("args")
            .beginObject()
            .field("attacker", registry.name(event.attackerSite))
            .field("victim", registry.name(event.victimSite))
            .field("non_tx_attacker", event.attackerNonTx)
            .field("line", hexLine(event.line))
            .end()
            .end();
    }

    json.end().end();
}

void
printReport(std::FILE* out, const RunInfo& info,
            const ProfileReport& report, std::size_t top_pairs)
{
    std::fprintf(out,
                 "txprof: %s on %s, %u thread(s), backend %s, seed "
                 "%" PRIu64 "\n",
                 info.bench.c_str(), info.machine.c_str(),
                 info.threads, info.backend.c_str(), info.seed);
    const htm::TxStats& stats = info.result.tm.stats;
    if (info.result.seq.cycles != 0) {
        std::fprintf(out,
                     "  cycles: seq %" PRIu64 "  tm %" PRIu64
                     "  speed-up %.2fx\n",
                     info.result.seq.cycles, info.result.tm.cycles,
                     info.result.ratio);
    }
    std::fprintf(out,
                 "  run: commits %" PRIu64 "  aborts %" PRIu64
                 " (%.1f%%)  serialization %.1f%%  wasted work "
                 "%.1f%%\n",
                 stats.totalCommits(), stats.totalAborts(),
                 stats.abortRatio() * 100.0,
                 stats.serializationRatio() * 100.0,
                 stats.wastedWorkRatio() * 100.0);
    if (stats.hazardAborts() != 0 ||
        stats.hazardPreemptStalls != 0) {
        std::fprintf(out,
                     "  hazards: %" PRIu64 " injected aborts (%" PRIu64
                     " capacity)  %" PRIu64 " lock-holder stalls "
                     "(%.1f kc, %.1f kc wasted in aborted attempts)\n",
                     stats.hazardAborts(),
                     stats.hazardCapacityAborts,
                     stats.hazardPreemptStalls,
                     double(stats.hazardStallCycles) / 1000.0,
                     double(report.hazardWastedCycles) / 1000.0);
    }
    if (report.droppedEvents != 0 || report.droppedConflicts != 0) {
        std::fprintf(out,
                     "  WARNING: capture truncated (%" PRIu64
                     " events, %" PRIu64
                     " conflicts dropped); profile is partial\n",
                     report.droppedEvents, report.droppedConflicts);
    }

    std::fprintf(out, "\n  %-28s %8s %8s %7s %6s %9s %9s %9s %7s\n",
                 "site", "commits", "aborts", "fallbk", "abort%",
                 "useful-kc", "wasted-kc", "stall-kc", "waste%");
    for (const SiteProfile& site : report.sites) {
        std::fprintf(out,
                     "  %-28s %8" PRIu64 " %8" PRIu64 " %7" PRIu64
                     " %5.1f%% %9.1f %9.1f %9.1f %6.1f%%\n",
                     site.name.c_str(), site.commits, site.aborts,
                     site.fallbackCommits, site.abortRatio() * 100.0,
                     double(site.committedCycles +
                            site.fallbackCycles) /
                         1000.0,
                     double(site.wastedCycles) / 1000.0,
                     double(site.stallCycles + site.lockWaitCycles) /
                         1000.0,
                     site.wastedWorkRatio() * 100.0);
    }

    if (report.pairs.empty()) {
        std::fprintf(out, "\n  no conflicts recorded\n");
        return;
    }
    std::fprintf(out, "\n  top conflicting site pairs:\n");
    std::fprintf(out, "  %-28s %-28s %9s %7s %6s\n", "winner",
                 "aborted", "conflicts", "non-tx", "lines");
    const std::size_t shown =
        std::min(top_pairs, report.pairs.size());
    for (std::size_t i = 0; i < shown; ++i) {
        const ConflictPairProfile& pair = report.pairs[i];
        std::fprintf(out,
                     "  %-28s %-28s %9" PRIu64 " %7" PRIu64
                     " %5zu  (hot line 0x%" PRIxPTR ": %" PRIu64
                     ")\n",
                     pair.attackerName.c_str(),
                     pair.victimName.c_str(), pair.conflicts,
                     pair.nonTxConflicts, pair.distinctLines,
                     pair.hotLine, pair.hotLineConflicts);
    }
    if (shown < report.pairs.size()) {
        std::fprintf(out, "  ... %zu more pair(s)\n",
                     report.pairs.size() - shown);
    }
}

} // namespace htmsim::prof
