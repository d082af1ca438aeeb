/**
 * @file
 * Integration tests for the STAMP ports: every app must verify under
 * the sequential baseline and under transactional execution on all
 * four machines and under every backend, and the harness speed-up
 * plumbing must behave.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "bench/suite.hh"
#include "run_metrics.hh"
#include "stamp/genome/genome.hh"
#include "stamp/bayes/bayes.hh"
#include "stamp/harness.hh"
#include "stamp/intruder/intruder.hh"
#include "stamp/labyrinth/labyrinth.hh"
#include "stamp/yada/yada.hh"
#include "stamp/kmeans/kmeans.hh"
#include "stamp/ssca2/ssca2.hh"
#include "stamp/vacation/vacation.hh"

namespace
{

using namespace htmsim;
using namespace htmsim::stamp;
using test::RunMetrics;

htm::RuntimeConfig
configFor(unsigned machine_index)
{
    return htm::RuntimeConfig(htm::MachineConfig::all()[machine_index]);
}

class StampOnMachine : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(StampOnMachine, KmeansVerifiesTmAndSeq)
{
    KmeansParams params = KmeansParams::highContention();
    params.numPoints = 256;
    params.iterations = 3;
    {
        KmeansApp app(params);
        const RunResult seq =
            runSequential(app, configFor(GetParam()).machine, 1);
        EXPECT_TRUE(seq.valid);
        EXPECT_GT(seq.cycles, 0u);
    }
    {
        KmeansApp app(params);
        const RunResult tm =
            runTransactional(app, configFor(GetParam()), 4, 1);
        EXPECT_TRUE(tm.valid);
        EXPECT_GT(tm.stats.totalCommits(), 0u);
    }
}

TEST_P(StampOnMachine, Ssca2VerifiesTmAndSeq)
{
    Ssca2Params params;
    params.numVertices = 128;
    params.numEdges = 512;
    {
        Ssca2App app(params);
        EXPECT_TRUE(
            runSequential(app, configFor(GetParam()).machine, 1).valid);
    }
    {
        Ssca2App app(params);
        const RunResult tm =
            runTransactional(app, configFor(GetParam()), 4, 1);
        EXPECT_TRUE(tm.valid);
        // Two transactions per edge (degree count + adjacency fill).
        EXPECT_EQ(tm.stats.totalCommits(), 2u * params.numEdges);
    }
}

TEST_P(StampOnMachine, GenomeVerifiesTmAndSeq)
{
    GenomeParams params = GenomeParams::tuned(
        htm::MachineConfig::all()[GetParam()].vendor);
    params.geneLength = 1024;
    params.extraDuplicates = 256;
    {
        GenomeApp app(params);
        EXPECT_TRUE(
            runSequential(app, configFor(GetParam()).machine, 1).valid);
    }
    {
        GenomeApp app(params);
        const RunResult tm =
            runTransactional(app, configFor(GetParam()), 4, 1);
        EXPECT_TRUE(tm.valid);
    }
}

TEST_P(StampOnMachine, VacationModifiedVerifiesTmAndSeq)
{
    VacationParams params = VacationParams::high();
    params.relationSize = 256;
    params.numCustomers = 64;
    params.totalTx = 400;
    {
        VacationApp app(params);
        EXPECT_TRUE(
            runSequential(app, configFor(GetParam()).machine, 1).valid);
    }
    {
        VacationApp app(params);
        const RunResult tm =
            runTransactional(app, configFor(GetParam()), 4, 1);
        EXPECT_TRUE(tm.valid);
    }
}

TEST_P(StampOnMachine, VacationOriginalVerifiesTm)
{
    VacationParams params = VacationParams::low();
    params.relationSize = 256;
    params.numCustomers = 64;
    params.totalTx = 300;
    VacationAppOriginal app(params);
    const RunResult tm =
        runTransactional(app, configFor(GetParam()), 4, 1);
    EXPECT_TRUE(tm.valid);
}

TEST_P(StampOnMachine, IntruderModifiedVerifiesTmAndSeq)
{
    IntruderParams params;
    params.numFlows = 96;
    {
        IntruderApp app(params);
        EXPECT_TRUE(
            runSequential(app, configFor(GetParam()).machine, 1).valid);
    }
    {
        IntruderApp app(params);
        const RunResult tm =
            runTransactional(app, configFor(GetParam()), 4, 1);
        EXPECT_TRUE(tm.valid);
    }
}

TEST_P(StampOnMachine, IntruderOriginalVerifiesTm)
{
    IntruderParams params;
    params.numFlows = 96;
    IntruderAppOriginal app(params);
    const RunResult tm =
        runTransactional(app, configFor(GetParam()), 4, 1);
    EXPECT_TRUE(tm.valid);
    EXPECT_EQ(app.attacksFound(), app.attacksInjected());
}

TEST_P(StampOnMachine, LabyrinthVerifiesTmAndSeq)
{
    LabyrinthParams params;
    params.width = 16;
    params.height = 16;
    params.numPaths = 10;
    {
        LabyrinthApp app(params);
        const RunResult seq =
            runSequential(app, configFor(GetParam()).machine, 1);
        EXPECT_TRUE(seq.valid);
        EXPECT_GT(app.routedCount(), 5u);
    }
    {
        LabyrinthApp app(params);
        const RunResult tm =
            runTransactional(app, configFor(GetParam()), 4, 1);
        EXPECT_TRUE(tm.valid);
        EXPECT_GT(app.routedCount(), 5u);
    }
}

TEST_P(StampOnMachine, YadaVerifiesTmAndSeq)
{
    YadaParams params;
    params.gridX = 6;
    params.gridY = 6;
    params.pointBudget = 60;
    {
        YadaApp app(params);
        const RunResult seq =
            runSequential(app, configFor(GetParam()).machine, 1);
        EXPECT_TRUE(seq.valid);
        EXPECT_GT(app.pointCount(), 49u)
            << "refinement should insert points";
    }
    {
        YadaApp app(params);
        const RunResult tm =
            runTransactional(app, configFor(GetParam()), 4, 1);
        EXPECT_TRUE(tm.valid);
        EXPECT_GT(app.pointCount(), 49u);
    }
}

TEST_P(StampOnMachine, BayesVerifiesTmAndSeq)
{
    BayesParams params;
    params.numVars = 10;
    params.numRecords = 128;
    {
        BayesApp app(params);
        const RunResult seq =
            runSequential(app, configFor(GetParam()).machine, 1);
        EXPECT_TRUE(seq.valid);
        EXPECT_GT(app.edgeCount(), 0u);
    }
    {
        BayesApp app(params);
        const RunResult tm =
            runTransactional(app, configFor(GetParam()), 4, 1);
        EXPECT_TRUE(tm.valid);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllMachines, StampOnMachine, ::testing::Range(0u, 4u),
    [](const ::testing::TestParamInfo<unsigned>& info) {
        switch (info.param) {
          case 0: return "BlueGeneQ";
          case 1: return "zEC12";
          case 2: return "IntelCore";
          default: return "POWER8";
        }
    });

/** One backend configuration of the grid below. */
struct BackendCase
{
    const char* name;
    htm::BackendKind backend;
    bool stmOnly;
};

/** Print a case as its name. Without this, gtest prints the struct's
 *  raw bytes, whose `name` pointer moves with every load of the
 *  binary, so the listed test names differ from build to build. */
void
PrintTo(const BackendCase& backend, std::ostream* os)
{
    *os << backend.name;
}

class GridProperty : public ::testing::TestWithParam<BackendCase>
{
};

TEST_P(GridProperty, EveryBackendPassesVerify)
{
    // Every app on every machine at 4 threads, under the machine's
    // first tuning candidate: the sequential baseline and the
    // transactional run both verify, whichever backend runs the
    // sections, and an STM-only hybrid commits no section in hardware.
    const BackendCase& backend = GetParam();
    const bench::SuiteRunner runner(false);
    for (const htm::MachineConfig& machine : htm::MachineConfig::all()) {
        htm::RuntimeConfig config =
            bench::SuiteRunner::tuningCandidates(machine).front();
        config.backend = backend.backend;
        config.hybrid.stmOnly = backend.stmOnly;
        for (const std::string& bench : bench::suiteNames()) {
            SCOPED_TRACE(bench + " on " + machine.name);
            const Speedup run =
                runner.run(bench, config, machine, 4, true, 1);
            EXPECT_TRUE(run.seq.valid);
            EXPECT_TRUE(run.tm.valid);
            if (backend.stmOnly) {
                EXPECT_EQ(run.tm.stats.htmCommits, 0u);
                EXPECT_GT(run.tm.stats.stmCommits, 0u);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, GridProperty,
    ::testing::Values(
        BackendCase{"htm", htm::BackendKind::htm, false},
        BackendCase{"lock", htm::BackendKind::globalLock, false},
        BackendCase{"ideal", htm::BackendKind::idealHtm, false},
        BackendCase{"hybrid", htm::BackendKind::hybrid, false},
        BackendCase{"hybridStmOnly", htm::BackendKind::hybrid, true},
        BackendCase{"hle", htm::BackendKind::hle, false}),
    [](const ::testing::TestParamInfo<BackendCase>& info) {
        return std::string(info.param.name);
    });

TEST(Harness, SpeedupPositiveAndDeterministic)
{
    auto factory = [] {
        Ssca2Params params;
        params.numVertices = 128;
        params.numEdges = 768;
        return Ssca2App(params);
    };
    const htm::RuntimeConfig config(htm::MachineConfig::zEC12());
    // Each measurement runs its own baseline, so the sequential run's
    // repeat is checked too.
    const auto measure = [&] {
        auto app = factory();
        const RunResult seq = runSequential(app, config.machine, 1);
        return measureSpeedup(factory, config, 4, seq, 1);
    };
    const Speedup first = measure();
    const Speedup second = measure();
    EXPECT_TRUE(first.tm.valid);
    EXPECT_TRUE(first.seq.valid);
    EXPECT_GT(first.ratio, 0.5);
    EXPECT_LT(first.ratio, 8.0);
    // Every run allocates in its own region at a fixed base
    // (sim/region.hh), so a repeat is exact.
    EXPECT_EQ(RunMetrics::of(first), RunMetrics::of(second));
}

TEST(Harness, MoreThreadsHelpOnLowContentionWork)
{
    auto factory = [] {
        Ssca2Params params;
        params.numVertices = 512;
        params.numEdges = 2048;
        return Ssca2App(params);
    };
    const htm::RuntimeConfig config(htm::MachineConfig::zEC12());
    auto app = factory();
    const RunResult seq = runSequential(app, config.machine, 1);
    const Speedup one = measureSpeedup(factory, config, 1, seq, 1);
    const Speedup four = measureSpeedup(factory, config, 4, seq, 1);
    EXPECT_GT(four.ratio, one.ratio * 1.5)
        << "4 threads should clearly beat 1 on ssca2/zEC12";
}

} // namespace
