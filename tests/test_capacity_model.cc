/**
 * @file
 * Table-driven unit tests for the CapacityModel strategies, pinned to
 * the exact Table-1 budgets of the four machines. Each case drives
 * judgeNewLine() to the machine's boundary footprint: the last line
 * that fits must be admitted and the first line past the budget must
 * raise the capacity abort, both at sharers=1 and with the budget
 * divided among SMT sharers.
 */

#include <gtest/gtest.h>

#include <ostream>

#include "htm/capacity_model.hh"
#include "htm/flat_table.hh"
#include "htm/machine.hh"

namespace
{

using namespace htmsim;
using namespace htmsim::htm;

/** Judge the footprint state where @p loads + @p stores distinct
 *  lines (the line under judgment included) have been touched. */
AbortCause
judge(CapacityModel& model, bool new_store, unsigned sharers,
      std::uint32_t loads, std::uint32_t stores,
      FlatTable<unsigned>* sets, std::uintptr_t line_number)
{
    FlatTable<unsigned> scratch;
    FootprintAccount account{std::size_t(loads) + stores, loads,
                             stores, sets != nullptr ? sets : &scratch};
    return model.judgeNewLine(line_number, new_store, sharers,
                              account);
}

// ------------------------------------------------------------------
// Table 1 line budgets, derived from bytes / line size
// ------------------------------------------------------------------

TEST(CapacityTable, Table1LineBudgets)
{
    // Blue Gene/Q: 1280 KB combined at 128 B lines.
    EXPECT_EQ(MachineConfig::blueGeneQ().loadCapacityLines(), 10240u);
    EXPECT_TRUE(MachineConfig::blueGeneQ().combinedCapacity);
    // zEC12: 1 MB load tracking at 256 B lines, 8 KB store cache.
    EXPECT_EQ(MachineConfig::zEC12().loadCapacityLines(), 4096u);
    EXPECT_EQ(MachineConfig::zEC12().storeCapacityLines(), 32u);
    // Intel Core: 4 MB read set at 64 B lines, 22 KB write set.
    EXPECT_EQ(MachineConfig::intelCore().loadCapacityLines(), 65536u);
    EXPECT_EQ(MachineConfig::intelCore().storeCapacityLines(), 352u);
    // POWER8: 8 KB TMCAM at 128 B lines.
    EXPECT_EQ(MachineConfig::power8().loadCapacityLines(), 64u);
    EXPECT_TRUE(MachineConfig::power8().combinedCapacity);
}

// ------------------------------------------------------------------
// Combined budgets (Blue Gene/Q, POWER8)
// ------------------------------------------------------------------

struct CombinedCase
{
    const char* name;
    MachineConfig (*machine)();
    std::uint32_t budgetLines;
};

/** Print a case as its machine name. Without this, gtest prints the
 *  struct's raw bytes, whose pointers move with every load of the
 *  binary, so the listed test names differ from run to run. */
void
PrintTo(const CombinedCase& test, std::ostream* os)
{
    *os << test.name;
}

class CombinedBoundary
    : public ::testing::TestWithParam<CombinedCase>
{
};

TEST_P(CombinedBoundary, ExactBudget)
{
    const CombinedCase& test = GetParam();
    auto model = makeCapacityModel(test.machine(), false);
    const std::uint32_t budget = test.budgetLines;

    // Loads and stores share the budget: any mix summing to the
    // budget fits, one more line of either kind overflows.
    EXPECT_EQ(judge(*model, false, 1, budget, 0, nullptr, 1),
              AbortCause::none);
    EXPECT_EQ(judge(*model, false, 1, budget + 1, 0, nullptr, 1),
              AbortCause::capacityOverflow);
    EXPECT_EQ(judge(*model, true, 1, budget - 8, 8, nullptr, 1),
              AbortCause::none);
    EXPECT_EQ(judge(*model, true, 1, budget - 8, 9, nullptr, 1),
              AbortCause::capacityOverflow);
}

TEST_P(CombinedBoundary, SharersDivideBudget)
{
    const CombinedCase& test = GetParam();
    auto model = makeCapacityModel(test.machine(), false);
    const unsigned smt = test.machine().smtWays;
    ASSERT_GT(smt, 1u);
    const std::uint32_t shared = test.budgetLines / smt;

    EXPECT_EQ(judge(*model, false, smt, shared, 0, nullptr, 1),
              AbortCause::none);
    EXPECT_EQ(judge(*model, false, smt, shared + 1, 0, nullptr, 1),
              AbortCause::capacityOverflow);
    // The full-budget footprint that fit alone overflows when shared.
    EXPECT_EQ(judge(*model, false, smt, test.budgetLines, 0, nullptr,
                    1),
              AbortCause::capacityOverflow);
}

INSTANTIATE_TEST_SUITE_P(
    Machines, CombinedBoundary,
    ::testing::Values(
        CombinedCase{"BlueGeneQ", &MachineConfig::blueGeneQ, 10240},
        CombinedCase{"POWER8", &MachineConfig::power8, 64}),
    [](const ::testing::TestParamInfo<CombinedCase>& info) {
        return info.param.name;
    });

// ------------------------------------------------------------------
// Split budgets (zEC12, Intel Core)
// ------------------------------------------------------------------

struct SplitCase
{
    const char* name;
    MachineConfig (*machine)();
    std::uint32_t loadLines;
    std::uint32_t storeLines;
};

/** Print a case as its machine name (see CombinedCase's PrintTo). */
void
PrintTo(const SplitCase& test, std::ostream* os)
{
    *os << test.name;
}

class SplitBoundary : public ::testing::TestWithParam<SplitCase>
{
};

TEST_P(SplitBoundary, IndependentBudgets)
{
    const SplitCase& test = GetParam();
    auto model = makeCapacityModel(test.machine(), false);
    FlatTable<unsigned> sets;

    // Load budget boundary; store count stays tiny and irrelevant.
    EXPECT_EQ(judge(*model, false, 1, test.loadLines, 1, &sets, 1),
              AbortCause::none);
    EXPECT_EQ(judge(*model, false, 1, test.loadLines + 1, 1, &sets, 1),
              AbortCause::capacityOverflow);

    // Store budget boundary: spread lines across sets so the Intel
    // way-conflict rule stays out of the way of the byte budget.
    sets.clear();
    AbortCause last = AbortCause::none;
    for (std::uint32_t line = 1; line <= test.storeLines; ++line)
        last = judge(*model, true, 1, 1, line, &sets, line);
    EXPECT_EQ(last, AbortCause::none);
    EXPECT_EQ(judge(*model, true, 1, 1, test.storeLines + 1, &sets,
                    test.storeLines + 1),
              AbortCause::capacityOverflow);

    // A full load footprint never charges the store budget.
    sets.clear();
    EXPECT_EQ(judge(*model, true, 1, test.loadLines, 1, &sets, 1),
              AbortCause::none);
}

INSTANTIATE_TEST_SUITE_P(
    Machines, SplitBoundary,
    ::testing::Values(
        SplitCase{"zEC12", &MachineConfig::zEC12, 4096, 32},
        SplitCase{"IntelCore", &MachineConfig::intelCore, 65536, 352}),
    [](const ::testing::TestParamInfo<SplitCase>& info) {
        return info.param.name;
    });

// ------------------------------------------------------------------
// Intel L1 way conflicts
// ------------------------------------------------------------------

TEST(IntelWayConflict, NinthStoreLineInOneSetAborts)
{
    const MachineConfig machine = MachineConfig::intelCore();
    ASSERT_EQ(machine.storeSets, 64u);
    ASSERT_EQ(machine.storeWays, 8u);
    auto model = makeCapacityModel(machine, false);
    FlatTable<unsigned> sets;

    // Eight store lines mapping to set 0 fill its ways...
    for (std::uint32_t i = 1; i <= 8; ++i) {
        EXPECT_EQ(judge(*model, true, 1, 1, i, &sets,
                        std::uintptr_t(i) * machine.storeSets),
                  AbortCause::none)
            << "store line " << i << " must still fit";
    }
    // ... and the ninth evicts a transactional line: wayConflict,
    // far below the 352-line byte budget.
    EXPECT_EQ(judge(*model, true, 1, 1, 9, &sets,
                    std::uintptr_t(9) * machine.storeSets),
              AbortCause::wayConflict);
}

TEST(IntelWayConflict, OtherSetsUnaffected)
{
    const MachineConfig machine = MachineConfig::intelCore();
    auto model = makeCapacityModel(machine, false);
    FlatTable<unsigned> sets;

    for (std::uint32_t i = 1; i <= 8; ++i) {
        ASSERT_EQ(judge(*model, true, 1, 1, i, &sets,
                        std::uintptr_t(i) * machine.storeSets),
                  AbortCause::none);
    }
    // A store to a different set still has all its ways available.
    EXPECT_EQ(judge(*model, true, 1, 1, 9, &sets,
                    std::uintptr_t(9) * machine.storeSets + 1),
              AbortCause::none);
}

TEST(IntelWayConflict, SmtSharersDivideWays)
{
    const MachineConfig machine = MachineConfig::intelCore();
    auto model = makeCapacityModel(machine, false);
    FlatTable<unsigned> sets;

    // Two hyperthreads split the 8 ways: 4 lines per set each.
    for (std::uint32_t i = 1; i <= 4; ++i) {
        EXPECT_EQ(judge(*model, true, 2, 1, i, &sets,
                        std::uintptr_t(i) * machine.storeSets),
                  AbortCause::none);
    }
    EXPECT_EQ(judge(*model, true, 2, 1, 5, &sets,
                    std::uintptr_t(5) * machine.storeSets),
              AbortCause::wayConflict);
}

// ------------------------------------------------------------------
// Unlimited model (trace tool / ideal HTM)
// ------------------------------------------------------------------

TEST(UnlimitedCapacity, IgnoreCapacityAdmitsEverything)
{
    for (const MachineConfig& machine : MachineConfig::all()) {
        auto model = makeCapacityModel(machine, true);
        EXPECT_EQ(judge(*model, false, 1, 1u << 24, 0, nullptr, 1),
                  AbortCause::none)
            << machine.name;
        EXPECT_EQ(judge(*model, true, machine.smtWays, 1u << 24,
                        1u << 24, nullptr, 1),
                  AbortCause::none)
            << machine.name;
    }
}

/** Budgets never collapse to zero, however many SMT threads share. */
TEST(CapacityModel, SharedBudgetNeverZero)
{
    auto model =
        makeCapacityModel(MachineConfig::power8(), false);
    // 64 lines / 64 sharers = 1 line: the first line must still fit.
    EXPECT_EQ(judge(*model, false, 64, 1, 0, nullptr, 1),
              AbortCause::none);
    EXPECT_EQ(judge(*model, false, 64, 2, 0, nullptr, 1),
              AbortCause::capacityOverflow);
}

} // namespace
