/**
 * @file
 * txprof subsystem tests.
 *
 * The critical property is zero perturbation: attaching a TxProfiler
 * must not change the simulation by a single cycle. The A/B comparison
 * runs the profiled and the unprofiled grid back to back in one
 * process (the same technique as test_determinism.cc) and demands
 * bit-identical metrics across the full tuning grid.
 *
 * The attribution tests drive a scripted two-site workload whose
 * conflict structure is known by construction and check that the
 * conflict matrix names the right sites and the right line.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <vector>

#include "bench/report.hh"
#include "bench/suite.hh"
#include "prof/profiler.hh"
#include "prof/report.hh"
#include "run_metrics.hh"

namespace
{

using namespace htmsim;
using test::RunMetrics;

// ---- zero perturbation ------------------------------------------------

constexpr unsigned kThreads = 4;
constexpr std::uint64_t kSeed = 1;

/// Run the full tuning grid for one cell, with or without a
/// TxProfiler attached.
std::vector<RunMetrics>
runGrid(const std::string& bench, const htm::MachineConfig& machine,
        bool profiled)
{
    const bench::SuiteRunner runner(false);
    prof::TxProfiler profiler;
    std::vector<RunMetrics> grid;
    for (htm::RuntimeConfig config :
         bench::SuiteRunner::tuningCandidates(machine)) {
        if (profiled) {
            profiler.clear();
            config.observer = &profiler;
        }
        grid.push_back(RunMetrics::of(runner.run(
            bench, config, machine, kThreads, true, kSeed)));
    }
    return grid;
}

TEST(ProfPerturbation, ProfiledRunIsBitIdenticalToUnprofiled)
{
    const htm::MachineConfig machine = htm::MachineConfig::all()[2];
    const std::string bench = "vacation-low";
    const std::size_t candidates =
        bench::SuiteRunner::tuningCandidates(machine).size();
    ASSERT_GT(candidates, 0u);

    const std::vector<RunMetrics> plain = runGrid(bench, machine, false);
    const std::vector<RunMetrics> profiled =
        runGrid(bench, machine, true);
    ASSERT_EQ(plain.size(), candidates);
    ASSERT_EQ(profiled.size(), candidates);

    for (std::size_t i = 0; i < candidates; ++i) {
        SCOPED_TRACE("candidate " + std::to_string(i));
        EXPECT_EQ(plain[i], profiled[i]);
    }

    // The cell must actually exercise contention, or bit-identity
    // would be vacuous.
    std::uint64_t total_aborts = 0;
    for (const RunMetrics& metrics : plain)
        total_aborts += metrics.aborts;
    EXPECT_GT(total_aborts, 0u);
}

// ---- scripted two-site workload ---------------------------------------

struct alignas(256) SharedWord
{
    std::uint64_t value = 0;
};

/// Two threads, two sites: writerAB increments A, dawdles, then
/// increments B; writerB increments only B. A and B live on different
/// conflict lines, so every tx/tx conflict is on B's line.
struct ScriptedRun
{
    htm::TxSiteId siteAB;
    htm::TxSiteId siteB;
    std::uintptr_t lineA = 0;
    std::uintptr_t lineB = 0;
    htm::TxStats stats;
    std::uint64_t finalA = 0;
    std::uint64_t finalB = 0;

    static constexpr unsigned iterations = 400;
};

ScriptedRun
runScripted(prof::TxProfiler& profiler)
{
    ScriptedRun result;
    result.siteAB = htm::txSite("test.writerAB");
    result.siteB = htm::txSite("test.writerB");

    const htm::MachineConfig& machine = htm::MachineConfig::all()[2];
    htm::RuntimeConfig config{machine};
    config.observer = &profiler;

    SharedWord a;
    SharedWord b;
    sim::Scheduler scheduler(1);
    htm::Runtime runtime(config, 2);
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        for (unsigned i = 0; i < ScriptedRun::iterations; ++i) {
            runtime.atomic(ctx, result.siteAB, [&](htm::Tx& tx) {
                tx.store(&a.value, tx.load(&a.value) + 1);
                tx.work(200);
                tx.store(&b.value, tx.load(&b.value) + 1);
            });
            ctx.advance(50);
        }
    });
    scheduler.spawn([&](sim::ThreadContext& ctx) {
        for (unsigned i = 0; i < ScriptedRun::iterations; ++i) {
            runtime.atomic(ctx, result.siteB, [&](htm::Tx& tx) {
                tx.store(&b.value, tx.load(&b.value) + 1);
            });
            ctx.advance(30);
        }
    });
    scheduler.run();

    std::size_t shift = 0;
    while ((std::size_t(1) << shift) < runtime.effectiveGranularity())
        ++shift;
    result.lineA = std::uintptr_t(&a.value) >> shift;
    result.lineB = std::uintptr_t(&b.value) >> shift;
    result.stats = runtime.stats();
    result.finalA = a.value;
    result.finalB = b.value;
    return result;
}

TEST(ProfAttribution, ConflictMatrixNamesTheRightSitesAndLine)
{
    prof::TxProfiler profiler;
    const ScriptedRun run = runScripted(profiler);

    ASSERT_EQ(run.finalA, ScriptedRun::iterations);
    ASSERT_EQ(run.finalB, 2 * ScriptedRun::iterations);
    ASSERT_GT(run.stats.totalAborts(), 0u);

    // Raw conflict events: every tx/tx conflict is on B's line and
    // between the two scripted sites.
    std::uint64_t tx_conflicts = 0;
    for (const htm::TxConflictEvent& event : profiler.conflicts()) {
        if (event.attackerNonTx)
            continue;
        ++tx_conflicts;
        EXPECT_NE(event.line, run.lineA);
        EXPECT_EQ(event.line, run.lineB);
        EXPECT_TRUE(event.attackerSite == run.siteAB ||
                    event.attackerSite == run.siteB);
        EXPECT_TRUE(event.victimSite == run.siteAB ||
                    event.victimSite == run.siteB);
        EXPECT_NE(event.attackerTid, event.victimTid);
    }
    EXPECT_GT(tx_conflicts, 0u);

    // Aggregated matrix: the top pair is made of the scripted sites,
    // its hot line is B's line, and the cell counts every tx/tx plus
    // nonTx conflict exactly once.
    const prof::ProfileReport report = profiler.report();
    ASSERT_FALSE(report.pairs.empty());
    std::uint64_t matrix_total = 0;
    for (const prof::ConflictPairProfile& pair : report.pairs)
        matrix_total += pair.conflicts;
    EXPECT_EQ(matrix_total, profiler.conflicts().size());
    const prof::ConflictPairProfile& top = report.pairs.front();
    EXPECT_TRUE(top.attacker == run.siteAB ||
                top.attacker == run.siteB);
    EXPECT_TRUE(top.victim == run.siteAB || top.victim == run.siteB);
    EXPECT_GE(top.conflicts, top.hotLineConflicts);
    EXPECT_GE(top.distinctLines, 1u);
}

TEST(ProfAttribution, CycleAttributionIsConsistent)
{
    prof::TxProfiler profiler;
    const ScriptedRun run = runScripted(profiler);
    const prof::ProfileReport report = profiler.report();

    // Per-site commit/abort counts must add up to the run totals.
    std::uint64_t commits = 0;
    std::uint64_t fallbacks = 0;
    std::uint64_t aborts = 0;
    for (const prof::SiteProfile& site : report.sites) {
        commits += site.commits;
        fallbacks += site.fallbackCommits;
        aborts += site.aborts;
        EXPECT_GE(site.attempts, site.commits + site.aborts);
        EXPECT_GE(site.wastedWorkRatio(), 0.0);
        EXPECT_LE(site.wastedWorkRatio(), 1.0);
    }
    EXPECT_EQ(commits, run.stats.htmCommits +
                           run.stats.constrainedCommits);
    EXPECT_EQ(fallbacks, run.stats.irrevocableCommits);
    EXPECT_EQ(aborts, run.stats.totalAborts());

    // Each scripted site commits once per iteration, in hardware or
    // under the fallback lock.
    EXPECT_EQ(run.stats.totalCommits(), 2 * ScriptedRun::iterations);
    for (const htm::TxSiteId id : {run.siteAB, run.siteB}) {
        const auto site = std::find_if(
            report.sites.begin(), report.sites.end(),
            [&](const prof::SiteProfile& s) { return s.site == id; });
        ASSERT_NE(site, report.sites.end());
        EXPECT_EQ(site->commits + site->fallbackCommits,
                  ScriptedRun::iterations);
    }

    // Event-derived cycles must agree with the runtime's always-on
    // attribution counters (the event stream is complete here).
    ASSERT_FALSE(profiler.truncated());
    EXPECT_EQ(report.committedCycles, run.stats.committedTxCycles);
    EXPECT_EQ(report.wastedCycles, run.stats.wastedTxCycles);
    EXPECT_GT(report.committedCycles, 0u);
    EXPECT_GT(report.wastedCycles, 0u);
}

TEST(ProfSiteRegistry, InterningIsIdempotentAndNamed)
{
    const htm::TxSiteId first = htm::txSite("test.registry.site");
    const htm::TxSiteId again = htm::txSite("test.registry.site");
    EXPECT_EQ(first, again);
    EXPECT_NE(first, htm::unknownTxSite);
    EXPECT_EQ(htm::SiteRegistry::instance().name(first),
              "test.registry.site");

    const htm::TxSiteId other = htm::txSite("test.registry.other");
    EXPECT_NE(first, other);

    EXPECT_EQ(htm::SiteRegistry::instance().name(htm::unknownTxSite),
              "<unknown>");
    EXPECT_EQ(htm::SiteRegistry::instance().name(htm::TxSiteId(65535)),
              "<unknown>");
    EXPECT_GE(htm::SiteRegistry::instance().size(), 3u);
}

TEST(ProfExport, JsonAndPerfettoDocumentsAreWellFormed)
{
    prof::TxProfiler profiler;
    const ScriptedRun run = runScripted(profiler);
    const prof::ProfileReport report = profiler.report();

    prof::RunInfo info;
    info.bench = "scripted";
    info.machine = "Intel Core i7-4770";
    info.backend = "htm";
    info.threads = 2;
    info.seed = 1;
    info.result.tm.cycles = 1000;
    info.result.seq.cycles = 2000;
    info.result.ratio = 2.0;
    info.result.tm.stats = run.stats;

    char tool[] = "build/examples/stamp_runner";
    char* argv[] = {tool};
    std::ostringstream json;
    {
        prof::JsonWriter writer(json);
        writer.beginObject();
        bench::writeEnvelope(writer, 1, argv);
        prof::writeProfile(writer, info, report);
        writer.end();
    }
    const std::string doc = json.str();
    EXPECT_NE(doc.find("\"tool\": \"stamp_runner\""), std::string::npos);
    EXPECT_NE(doc.find("\"sites\""), std::string::npos);
    EXPECT_NE(doc.find("\"conflict_pairs\""), std::string::npos);
    EXPECT_NE(doc.find("test.writerAB"), std::string::npos);
    EXPECT_NE(doc.find("test.writerB"), std::string::npos);
    // Crude balance check (no quoting subtleties in our output).
    EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
              std::count(doc.begin(), doc.end(), '}'));
    EXPECT_EQ(std::count(doc.begin(), doc.end(), '['),
              std::count(doc.begin(), doc.end(), ']'));

    std::ostringstream trace;
    {
        prof::JsonWriter writer(trace);
        prof::writePerfettoTrace(writer, info, profiler);
    }
    const std::string tdoc = trace.str();
    EXPECT_NE(tdoc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(tdoc.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(tdoc.find("test.writerAB"), std::string::npos);
    EXPECT_EQ(std::count(tdoc.begin(), tdoc.end(), '{'),
              std::count(tdoc.begin(), tdoc.end(), '}'));
    EXPECT_EQ(std::count(tdoc.begin(), tdoc.end(), '['),
              std::count(tdoc.begin(), tdoc.end(), ']'));

    std::ostringstream escaped;
    prof::JsonWriter(escaped).value("a\"b\\c\nd");
    EXPECT_EQ(escaped.str(), "\"a\\\"b\\\\c\\u000ad\"");
}

TEST(ProfCapture, OverflowDropsInsteadOfGrowing)
{
    prof::TxProfiler tiny(4, 2);
    const htm::TxEvent event{htm::TxEventKind::begin,
                             htm::AbortCause::none,
                             0,
                             htm::unknownTxSite,
                             false,
                             10,
                             0};
    for (int i = 0; i < 10; ++i)
        tiny.onEvent(event);
    EXPECT_EQ(tiny.events().size(), 4u);
    EXPECT_EQ(tiny.droppedEvents(), 6u);
    EXPECT_TRUE(tiny.truncated());

    tiny.clear();
    EXPECT_TRUE(tiny.events().empty());
    EXPECT_FALSE(tiny.truncated());
    tiny.onEvent(event);
    EXPECT_EQ(tiny.events().size(), 1u);
}

} // namespace
