/**
 * Pareto frontier extraction (paretoIndices) on hand-computed fixtures,
 * plus the accuracy-loss proxy the frontier's accuracy objective reads.
 * The ParetoFront class itself is tested in tests/common/pareto_test.cc.
 */
#include "cimloop/dse/dse.hh"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "cimloop/common/error.hh"
#include "cimloop/common/pareto.hh"
#include "cimloop/macros/macros.hh"

namespace cimloop::dse {
namespace {

TEST(DsePareto, HandComputedTwoObjectiveFrontier)
{
    // Minimizing both dimensions. Point 3 is dominated by 0 (1<=2 and
    // 5<=6, strict in both); point 6 by 1 (2<=4, 4<=4, strict in the
    // first). Everything else is nondominated.
    std::vector<std::vector<double>> rows = {
        {1, 5}, // 0
        {2, 4}, // 1
        {3, 3}, // 2
        {2, 6}, // 3: dominated by 0
        {4, 2}, // 4
        {5, 1}, // 5
        {4, 4}, // 6: dominated by 1 and 2
    };
    EXPECT_EQ(paretoIndices(rows),
              (std::vector<std::size_t>{0, 1, 2, 4, 5}));
}

TEST(DsePareto, EqualRowsAreBothKept)
{
    std::vector<std::vector<double>> rows = {{1, 1}, {1, 1}, {2, 2}};
    EXPECT_EQ(paretoIndices(rows), (std::vector<std::size_t>{0, 1}));
}

TEST(DsePareto, DegenerateInputs)
{
    EXPECT_TRUE(paretoIndices({}).empty());
    EXPECT_EQ(paretoIndices({{3.0, 7.0}}),
              (std::vector<std::size_t>{0}));
}

TEST(DsePareto, ThreeObjectives)
{
    std::vector<std::vector<double>> rows = {
        {1, 2, 3}, // 0
        {2, 1, 3}, // 1
        {3, 3, 3}, // 2: dominated by 0
        {1, 2, 4}, // 3: dominated by 0
    };
    EXPECT_EQ(paretoIndices(rows), (std::vector<std::size_t>{0, 1}));
}

TEST(DsePareto, SingleObjectiveKeepsOnlyTheMinimum)
{
    std::vector<std::vector<double>> rows = {{4}, {2}, {9}, {2}};
    EXPECT_EQ(paretoIndices(rows), (std::vector<std::size_t>{1, 3}));
}

TEST(DsePareto, MismatchedRowWidthsAreABug)
{
    EXPECT_THROW(paretoIndices({{1, 2}, {1}}), PanicError);
}

TEST(DsePareto, IndicesMatchAStreamedFront)
{
    // ParetoFront's own suite checks the front against an all-pairs
    // scan; paretoIndices must report that front's members, ascending,
    // whatever order they were found in.
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    auto next = [&state] {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<double>((state >> 33) % 1000) / 10.0;
    };
    std::vector<std::vector<double>> rows(200);
    for (auto& row : rows)
        for (int k = 0; k < 3; ++k)
            row.push_back(next());
    ParetoFront front(3);
    for (std::size_t i = rows.size(); i-- > 0;)
        front.insert(i, rows[i]);
    EXPECT_EQ(paretoIndices(rows), front.indices());
}

TEST(DsePareto, AccuracyProxyClipsAdcTruncation)
{
    macros::MacroParams p = macros::defaultsByName("base");
    p.rows = 128; // needs log2(128) + dac + cell - 2 bits
    p.dacBits = 1;
    p.cellBits = 2;
    p.adcBits = 5;
    faults::FaultModel clean;
    // needed = 7 + 1 + 2 - 2 = 8; clip = 8 - 5 = 3.
    EXPECT_DOUBLE_EQ(accuracyLossProxy(p, clean), 3.0);
    p.adcBits = 12; // more resolution than the sum carries: no loss
    EXPECT_DOUBLE_EQ(accuracyLossProxy(p, clean), 0.0);
}

TEST(DsePareto, AccuracyProxyAddsFaultSeverity)
{
    macros::MacroParams p = macros::defaultsByName("base");
    p.rows = 128;
    p.dacBits = 1;
    p.cellBits = 2;
    p.adcBits = 8; // exactly lossless: clip = 0
    faults::FaultModel f;
    f.stuckOffRate = 0.05;
    f.stuckOnRate = 0.05;
    f.conductanceSigma = 0.2;
    f.adcNoiseSigma = 0.1;
    f.adcOffset = -0.5;
    // 8 * 0.1 + 0.2 + 4 * 0.1 + 2 * 0.5 = 2.4
    EXPECT_NEAR(accuracyLossProxy(p, f), 2.4, 1e-12);
}

} // namespace
} // namespace cimloop::dse
