#include "cimloop/engine/evaluate.hh"

#include <gtest/gtest.h>

#include "cimloop/macros/macros.hh"
#include "cimloop/workload/networks.hh"

namespace cimloop::engine {
namespace {

TEST(Pareto, FrontierIsNondominatedAndSorted)
{
    Arch arch = macros::baseMacro();
    workload::Layer layer = workload::resnet18().layers[6];
    std::vector<ParetoPoint> frontier =
        paretoFrontier(arch, layer, 200, 7);
    ASSERT_FALSE(frontier.empty());
    for (std::size_t i = 1; i < frontier.size(); ++i) {
        // Energy strictly increases along the frontier...
        EXPECT_GT(frontier[i].eval.energyPj,
                  frontier[i - 1].eval.energyPj);
        // ...and latency strictly decreases (else the point would be
        // dominated).
        EXPECT_LT(frontier[i].eval.latencyNs,
                  frontier[i - 1].eval.latencyNs);
    }
}

TEST(Pareto, ExtremesMatchSingleObjectiveSearch)
{
    Arch arch = macros::baseMacro();
    workload::Layer layer = workload::resnet18().layers[6];
    std::vector<ParetoPoint> frontier =
        paretoFrontier(arch, layer, 150, 3);
    SearchResult energy = searchMappings(arch, layer, 150, 3,
                                         {.objective = Objective::Energy});
    SearchResult delay = searchMappings(arch, layer, 150, 3,
                                        {.objective = Objective::Delay});
    // Same seed, same samples: the frontier ends are the single-
    // objective optima.
    EXPECT_DOUBLE_EQ(frontier.front().eval.energyPj,
                     energy.best.energyPj);
    EXPECT_DOUBLE_EQ(frontier.back().eval.latencyNs,
                     delay.best.latencyNs);
}

TEST(Pareto, FrontierMappingsReplayExactly)
{
    Arch arch = macros::baseMacro();
    workload::Layer layer = workload::resnet18().layers[10];
    PerActionTable table = precompute(arch, layer);
    for (const ParetoPoint& p : paretoFrontier(arch, layer, 80, 2)) {
        Evaluation replay = evaluate(arch, table, p.mapping);
        EXPECT_DOUBLE_EQ(replay.energyPj, p.eval.energyPj);
        EXPECT_DOUBLE_EQ(replay.latencyNs, p.eval.latencyNs);
    }
}

TEST(Csv, RowsPerLayerPlusTotal)
{
    Arch arch = macros::baseMacro();
    workload::Network net = workload::maxUtilMvm(64, 64, 32);
    net.layers[0].count = 2;
    NetworkEvaluation ev = evaluateNetwork(arch, net, 30, 1);
    std::string csv = toCsv(ev, net);
    // header + 1 layer + total = 3 lines.
    int lines = 0;
    for (char c : csv)
        lines += (c == '\n');
    EXPECT_EQ(lines, 3);
    EXPECT_NE(csv.find("mvm,2,"), std::string::npos);
    EXPECT_NE(csv.find("TOTAL"), std::string::npos);
}

} // namespace
} // namespace cimloop::engine
