/**
 * @file
 * Focused unit tests for STAMP application internals: geometry
 * helpers, variant behaviours, workload edge cases, and the paper's
 * specific modifications (Section 4).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/suite.hh"
#include "run_metrics.hh"
#include "stamp/bayes/bayes.hh"
#include "stamp/genome/genome.hh"
#include "stamp/harness.hh"
#include "stamp/intruder/intruder.hh"
#include "stamp/kmeans/kmeans.hh"
#include "stamp/labyrinth/labyrinth.hh"
#include "stamp/ssca2/ssca2.hh"
#include "stamp/vacation/vacation.hh"
#include "stamp/yada/yada.hh"

namespace
{

using namespace htmsim;
using namespace htmsim::stamp;
using test::RunMetrics;

htm::RuntimeConfig
intel()
{
    htm::MachineConfig machine = htm::MachineConfig::intelCore();
    machine.prefetchConflictProb = 0.0;
    return htm::RuntimeConfig(std::move(machine));
}

// ------------------------------------------------------------------
// genome
// ------------------------------------------------------------------

TEST(GenomeUnits, SingleThreadReconstructsExactly)
{
    GenomeParams params;
    params.geneLength = 512;
    params.extraDuplicates = 64;
    GenomeApp app(params);
    const RunResult result = runTransactional(app, intel(), 1, 1);
    EXPECT_TRUE(result.valid);
    EXPECT_GT(app.uniqueSegments(), 100u);
}

TEST(GenomeUnits, DeduplicationCollapsesDuplicates)
{
    GenomeParams few = GenomeParams();
    few.geneLength = 512;
    few.extraDuplicates = 0;
    GenomeApp base(few);
    (void)runTransactional(base, intel(), 2, 1);

    GenomeParams many = few;
    many.extraDuplicates = 512;
    GenomeApp duplicated(many);
    (void)runTransactional(duplicated, intel(), 2, 1);

    // Duplicates add no unique segments.
    EXPECT_EQ(base.uniqueSegments(), duplicated.uniqueSegments());
}

TEST(GenomeUnits, ChunkVariantsAllVerify)
{
    for (const unsigned chunk : {1u, 2u, 9u, 16u}) {
        GenomeParams params;
        params.geneLength = 512;
        params.extraDuplicates = 64;
        params.chunkStep1 = chunk;
        params.chunkStep2 = chunk;
        GenomeApp app(params);
        const RunResult result = runTransactional(app, intel(), 4, 1);
        EXPECT_TRUE(result.valid) << "chunk " << chunk;
    }
}

// ------------------------------------------------------------------
// kmeans
// ------------------------------------------------------------------

TEST(KmeansUnits, AlignedLayoutPutsClustersOnDistinctLines)
{
    KmeansParams params = KmeansParams::highContention(true);
    params.numPoints = 64;
    params.iterations = 1;
    params.alignBytes = 128;
    KmeansApp app(params);
    const RunResult result = runTransactional(app, intel(), 1, 1);
    EXPECT_TRUE(result.valid);
}

TEST(KmeansUnits, MisalignedOriginalCausesMoreConflictsOnZec12)
{
    auto aborts_for = [](bool modified) {
        KmeansParams params = KmeansParams::highContention(modified);
        params.numPoints = 512;
        params.iterations = 4;
        params.alignBytes = 256;
        htm::MachineConfig machine = htm::MachineConfig::zEC12();
        machine.cacheFetchAbortProb = 0.0;
        KmeansApp app(params);
        const RunResult result = runTransactional(
            app, htm::RuntimeConfig(std::move(machine)), 4, 1);
        EXPECT_TRUE(result.valid);
        return result.stats.totalAborts();
    };
    EXPECT_GT(aborts_for(false), aborts_for(true))
        << "the paper's alignment fix must reduce false conflicts";
}

TEST(KmeansUnits, ClusterSizesSumToPoints)
{
    KmeansParams params = KmeansParams::lowContention(true);
    params.numPoints = 200;
    params.iterations = 2;
    KmeansApp app(params);
    (void)runTransactional(app, intel(), 4, 1);
    unsigned total = 0;
    for (const unsigned size : app.clusterSizes())
        total += size;
    EXPECT_EQ(total, 200u);
}

// ------------------------------------------------------------------
// intruder
// ------------------------------------------------------------------

TEST(IntruderUnits, SingleFragmentFlows)
{
    IntruderParams params;
    params.numFlows = 40;
    params.maxFragments = 1; // every flow arrives whole
    IntruderApp app(params);
    const RunResult result = runTransactional(app, intel(), 4, 1);
    EXPECT_TRUE(result.valid);
}

TEST(IntruderUnits, AllAttacksDetectedAcrossSeeds)
{
    for (const std::uint64_t seed : {1ull, 7ull, 99ull}) {
        IntruderParams params;
        params.numFlows = 64;
        params.attackPct = 50;
        params.seed = seed;
        IntruderApp app(params);
        const RunResult result =
            runTransactional(app, intel(), 4, seed);
        EXPECT_TRUE(result.valid) << "seed " << seed;
        EXPECT_EQ(app.attacksFound(), app.attacksInjected());
    }
}

TEST(IntruderUnits, NoAttacksMeansNoneFound)
{
    IntruderParams params;
    params.numFlows = 48;
    params.attackPct = 0;
    IntruderApp app(params);
    (void)runTransactional(app, intel(), 2, 1);
    EXPECT_EQ(app.attacksInjected(), 0u);
    EXPECT_EQ(app.attacksFound(), 0u);
}

TEST(IntruderUnits, OriginalAndModifiedAgreeOnResults)
{
    IntruderParams params;
    params.numFlows = 64;
    IntruderApp modified(params);
    IntruderAppOriginal original(params);
    (void)runTransactional(modified, intel(), 4, 1);
    (void)runTransactional(original, intel(), 4, 1);
    EXPECT_EQ(modified.attacksFound(), original.attacksFound());
}

// ------------------------------------------------------------------
// labyrinth
// ------------------------------------------------------------------

TEST(LabyrinthUnits, WallFreeGridRoutesEverything)
{
    LabyrinthParams params;
    params.width = 12;
    params.height = 12;
    params.depth = 2;
    params.wallPct = 0;
    params.numPaths = 6;
    LabyrinthApp app(params);
    const RunResult result = runTransactional(app, intel(), 2, 1);
    EXPECT_TRUE(result.valid);
    EXPECT_EQ(app.routedCount(), 6u);
}

TEST(LabyrinthUnits, DenseWallsStillVerify)
{
    LabyrinthParams params;
    params.width = 12;
    params.height = 12;
    params.wallPct = 40; // many routes will fail
    params.numPaths = 8;
    LabyrinthApp app(params);
    const RunResult result = runTransactional(app, intel(), 4, 1);
    EXPECT_TRUE(result.valid) << "failed routes must leave no marks";
}

TEST(LabyrinthUnits, GridTooSmallForItsEndpointsThrows)
{
    LabyrinthParams params;
    params.width = 1;
    params.height = 1;
    params.depth = 2;
    params.wallPct = 0;
    params.numPaths = 2;
    LabyrinthApp app(params);
    EXPECT_THROW(app.setup(), std::invalid_argument);
}

TEST(LabyrinthUnits, SequentialAndParallelRouteCountsClose)
{
    LabyrinthParams params;
    params.width = 14;
    params.height = 14;
    params.numPaths = 10;
    LabyrinthApp seq_app(params);
    (void)runSequential(seq_app, intel().machine, 1);
    LabyrinthApp par_app(params);
    (void)runTransactional(par_app, intel(), 4, 1);
    // Routing order differs, so counts may differ slightly, but the
    // parallel run must not collapse.
    EXPECT_GE(par_app.routedCount() + 2, seq_app.routedCount());
}

// ------------------------------------------------------------------
// ssca2 / vacation / bayes
// ------------------------------------------------------------------

TEST(Ssca2Units, AdjacencyIsAPermutationOfTheEdgeList)
{
    Ssca2Params params;
    params.numVertices = 64;
    params.numEdges = 256;
    Ssca2App app(params);
    const RunResult result = runTransactional(app, intel(), 4, 1);
    EXPECT_TRUE(result.valid);
    std::size_t filled = 0;
    for (const auto slot : app.adjacency())
        filled += slot != ~std::uint64_t(0) ? 1 : 0;
    EXPECT_EQ(filled, params.numEdges);
}

TEST(VacationUnits, HighAndLowVariantsConserveInventory)
{
    for (const bool high : {true, false}) {
        VacationParams params =
            high ? VacationParams::high() : VacationParams::low();
        params.relationSize = 128;
        params.numCustomers = 32;
        params.totalTx = 300;
        VacationApp app(params);
        const RunResult result = runTransactional(app, intel(), 4, 1);
        EXPECT_TRUE(result.valid) << (high ? "high" : "low");
    }
}

TEST(VacationUnits, OriginalTreeVariantConservesToo)
{
    VacationParams params = VacationParams::high();
    params.relationSize = 128;
    params.numCustomers = 32;
    params.totalTx = 250;
    VacationAppOriginal app(params);
    const RunResult result = runTransactional(app, intel(), 4, 1);
    EXPECT_TRUE(result.valid);
}

TEST(BayesUnits, LearnsAcyclicStructureWithPositiveGain)
{
    BayesParams params;
    params.numVars = 10;
    params.numRecords = 160;
    BayesApp app(params);
    const RunResult result = runTransactional(app, intel(), 4, 1);
    EXPECT_TRUE(result.valid);
    EXPECT_GT(app.edgeCount(), 0u);
    EXPECT_GT(app.totalGain(), 0.0);
}

TEST(BayesUnits, RespectsParentLimit)
{
    BayesParams params;
    params.numVars = 8;
    params.numRecords = 128;
    params.maxParents = 1;
    BayesApp app(params);
    const RunResult result = runTransactional(app, intel(), 2, 1);
    EXPECT_TRUE(result.valid);
    EXPECT_LE(app.edgeCount(), params.numVars);
}

// ------------------------------------------------------------------
// yada geometry (through the refinement behaviour)
// ------------------------------------------------------------------

TEST(YadaUnits, RefinementImprovesOrBoundsBadTriangles)
{
    YadaParams params;
    params.gridX = 5;
    params.gridY = 5;
    params.pointBudget = 200;
    YadaApp app(params);
    const RunResult result = runTransactional(app, intel(), 2, 1);
    EXPECT_TRUE(result.valid);
    EXPECT_GT(app.pointCount(), 36u) << "points must be inserted";
    EXPECT_GT(app.aliveTriangles(), 50u)
        << "refinement grows the mesh";
}

TEST(YadaUnits, GentleAspectMeansNoWork)
{
    YadaParams params;
    params.gridX = 4;
    params.gridY = 4;
    params.aspect = 1.0; // right isoceles: min angle 45 degrees
    params.minAngleDeg = 20.0;
    YadaApp app(params);
    const RunResult result = runTransactional(app, intel(), 2, 1);
    EXPECT_TRUE(result.valid);
    EXPECT_EQ(app.pointCount(), 25u) << "no triangle is bad";
    EXPECT_EQ(app.aliveTriangles(), 32u);
}

TEST(YadaUnits, DeterministicMeshPerSeedAndThreads)
{
    // Mesh pointers feed the conflict model and the work queue's
    // order; both lie in the run's region, so two back-to-back runs
    // must produce exactly equal geometry counts.
    auto run = [](std::uint64_t counts[2]) {
        YadaParams params;
        params.gridX = 5;
        params.gridY = 5;
        params.pointBudget = 80;
        YadaApp app(params);
        (void)runTransactional(app, intel(), 4, 9);
        counts[0] = app.pointCount();
        counts[1] = app.aliveTriangles();
    };
    std::uint64_t first[2] = {0, 0};
    std::uint64_t second[2] = {0, 0};
    run(first);
    run(second);
    EXPECT_EQ(first[0], second[0]);
    EXPECT_EQ(first[1], second[1]);
    EXPECT_GT(first[0], 0u);
}

// ------------------------------------------------------------------
// Harness invariants across apps
// ------------------------------------------------------------------

// ------------------------------------------------------------------
// Workload scaling (HTMSIM_SCALE)
// ------------------------------------------------------------------

/// Sets HTMSIM_SCALE for one scope and restores the previous value.
class ScopedScale
{
  public:
    explicit ScopedScale(const char* value)
    {
        if (const char* old = std::getenv("HTMSIM_SCALE"))
            saved_ = old;
        ::setenv("HTMSIM_SCALE", value, 1);
    }
    ~ScopedScale()
    {
        if (saved_.empty())
            ::unsetenv("HTMSIM_SCALE");
        else
            ::setenv("HTMSIM_SCALE", saved_.c_str(), 1);
    }

  private:
    std::string saved_;
};

// 1e-6 puts every scaled parameter on its floor.
TEST(WorkloadScale, EveryAppVerifiesOnEveryMachineAtSmallScales)
{
    const bench::SuiteRunner runner(false);
    for (const char* value : {"0.01", "1e-6"}) {
        const ScopedScale scale(value);
        for (const htm::MachineConfig& machine :
             htm::MachineConfig::all()) {
            for (const std::string& app : bench::suiteNames()) {
                const Speedup result =
                    runner.tune(app, machine, 4, [](htm::RuntimeConfig&) {})
                        .result;
                EXPECT_TRUE(result.seq.valid)
                    << app << " on " << machine.name << " at " << value;
                EXPECT_TRUE(result.tm.valid)
                    << app << " on " << machine.name << " at " << value;
            }
        }
    }
}

// The workload scale is part of a baseline's key: one runner used at
// two scales runs a baseline for each.
TEST(WorkloadScale, EachScaleGetsItsOwnBaseline)
{
    const htm::MachineConfig& machine = htm::MachineConfig::all()[2];
    const htm::RuntimeConfig config =
        bench::SuiteRunner::tuningCandidates(machine).front();
    const bench::SuiteRunner shared;
    std::vector<RunMetrics> runs;
    for (const char* value : {"0.25", "0.5"}) {
        const ScopedScale scale(value);
        runs.push_back(RunMetrics::of(
            shared.run("genome", config, machine, 4, true, 1)));
        EXPECT_EQ(runs.back(),
                  RunMetrics::of(bench::SuiteRunner().run(
                      "genome", config, machine, 4, true, 1)))
            << value;
    }
    EXPECT_NE(runs[0].seqCycles, runs[1].seqCycles);
}

TEST(WorkloadScale, RejectsAnythingButAFinitePositiveNumber)
{
    for (const char* bad : {"", "abc", "0.5x", "0", "-1", "nan", "inf"}) {
        const ScopedScale scale(bad);
        EXPECT_EXIT(bench::workloadScale(), ::testing::ExitedWithCode(2),
                    "HTMSIM_SCALE")
            << "'" << bad << "'";
    }
    const ScopedScale scale("0.25");
    EXPECT_EQ(bench::workloadScale(), 0.25);
    EXPECT_EQ(bench::scaled(26, 2), 6u);
    EXPECT_EQ(bench::scaled(3, 2), 2u);
}

TEST(HarnessUnits, SequentialBaselineHasNoAborts)
{
    Ssca2Params params;
    params.numVertices = 64;
    params.numEdges = 128;
    Ssca2App app(params);
    const RunResult result = runSequential(app, intel().machine, 1);
    EXPECT_TRUE(result.valid);
    EXPECT_EQ(result.stats.totalAborts(), 0u);
    EXPECT_EQ(result.stats.totalCommits(), 0u)
        << "the baseline never enters the HTM runtime";
}

TEST(HarnessUnits, SingleThreadTmSlowerThanSequential)
{
    // Per-machine single-thread overhead (Section 5.1): transactional
    // execution with one thread can never beat the baseline.
    for (const auto& machine : htm::MachineConfig::all()) {
        Ssca2Params params;
        params.numVertices = 64;
        params.numEdges = 256;
        htm::MachineConfig quiet_machine = machine;
        quiet_machine.cacheFetchAbortProb = 0.0;
        quiet_machine.prefetchConflictProb = 0.0;
        Ssca2App seq_app(params);
        const RunResult seq =
            runSequential(seq_app, quiet_machine, 1);
        Ssca2App tm_app(params);
        const RunResult tm = runTransactional(
            tm_app, htm::RuntimeConfig(quiet_machine), 1, 1);
        EXPECT_LT(seq.cycles, tm.cycles) << machine.name;
    }
}

TEST(HarnessUnits, BgqSingleThreadOverheadIsWorst)
{
    auto overhead = [](const htm::MachineConfig& machine) {
        htm::MachineConfig quiet_machine = machine;
        quiet_machine.cacheFetchAbortProb = 0.0;
        quiet_machine.prefetchConflictProb = 0.0;
        KmeansParams params = KmeansParams::highContention(true);
        params.numPoints = 256;
        params.iterations = 2;
        KmeansApp seq_app(params);
        const RunResult seq =
            runSequential(seq_app, quiet_machine, 1);
        KmeansApp tm_app(params);
        const RunResult tm = runTransactional(
            tm_app, htm::RuntimeConfig(quiet_machine), 1, 1);
        return double(tm.cycles) / double(seq.cycles);
    };
    const double bgq = overhead(htm::MachineConfig::blueGeneQ());
    for (const auto& machine :
         {htm::MachineConfig::zEC12(), htm::MachineConfig::intelCore(),
          htm::MachineConfig::power8()}) {
        EXPECT_GT(bgq, overhead(machine))
            << "BG/Q's software begin/end must dominate "
            << machine.name;
    }
    // Section 5.1: ~40% degradation on kmeans-high.
    EXPECT_GT(bgq, 1.25);
    EXPECT_LT(bgq, 2.5);
}

} // namespace
