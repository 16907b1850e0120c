#include "cimloop/engine/evaluate.hh"

#include <gtest/gtest.h>

#include "cimloop/common/error.hh"
#include "cimloop/macros/macros.hh"
#include "cimloop/workload/networks.hh"

namespace cimloop::engine {
namespace {

using macros::baseMacro;
using macros::MacroParams;
using workload::dimIndex;
using workload::Dim;
using workload::matmulLayer;

TEST(ExtendLayer, SetsSliceDims)
{
    Arch arch = baseMacro(); // 8b operands, 1b DAC, 1b cells
    workload::Layer layer = matmulLayer("mvm", 4, 16, 16);
    workload::Layer ext = arch.extendLayer(layer);
    EXPECT_EQ(ext.size(Dim::IB), 8);
    EXPECT_EQ(ext.size(Dim::WB), 8);

    MacroParams p = macros::baseDefaults();
    p.dacBits = 4;
    p.cellBits = 2;
    Arch arch2 = baseMacro(p);
    ext = arch2.extendLayer(layer);
    EXPECT_EQ(ext.size(Dim::IB), 2);
    EXPECT_EQ(ext.size(Dim::WB), 4);
}

TEST(ExtendLayer, RoundsUpOddSlices)
{
    MacroParams p = macros::baseDefaults();
    p.inputBits = 7;
    p.dacBits = 2;
    Arch arch = baseMacro(p);
    workload::Layer layer = matmulLayer("mvm", 1, 4, 4);
    EXPECT_EQ(arch.extendLayer(layer).size(Dim::IB), 4); // ceil(7/2)
}

TEST(Precompute, TableMatchesHierarchy)
{
    Arch arch = baseMacro();
    workload::Layer layer = workload::resnet18().layers[5];
    PerActionTable table = precompute(arch, layer);
    EXPECT_EQ(table.nodes.size(), arch.hierarchy.nodes.size());
    // The ADC and DAC nodes must have nonzero action energy for their
    // tensors; containers are free.
    int adc = arch.hierarchy.indexOf("adc");
    int dac = arch.hierarchy.indexOf("dac_bank");
    int macro = arch.hierarchy.indexOf("macro");
    ASSERT_GE(adc, 0);
    ASSERT_GE(dac, 0);
    EXPECT_GT(table.nodes[adc].actionEnergyPj[2], 0.0);
    EXPECT_GT(table.nodes[dac].actionEnergyPj[0], 0.0);
    EXPECT_DOUBLE_EQ(table.nodes[macro].actionEnergyPj[0], 0.0);
}

TEST(Evaluate, EndToEndBaseMacro)
{
    Arch arch = baseMacro();
    workload::Layer layer = matmulLayer("mvm", 64, 128, 128);
    layer.network = "mvm";
    PerActionTable table = precompute(arch, layer);
    mapping::Mapper mapper(arch.hierarchy, table.extLayer);
    Evaluation ev = evaluate(arch, table, mapper.greedy());
    ASSERT_TRUE(ev.valid) << ev.invalidReason;
    EXPECT_GT(ev.energyPj, 0.0);
    EXPECT_GT(ev.areaUm2, 0.0);
    EXPECT_GT(ev.latencyNs, 0.0);
    EXPECT_DOUBLE_EQ(ev.macs, 64.0 * 128 * 128);
    EXPECT_GT(ev.topsPerWatt(), 0.1);   // sane CiM ballpark
    EXPECT_LT(ev.topsPerWatt(), 10000.0);
    EXPECT_EQ(ev.nodeEnergyPj.size(), arch.hierarchy.nodes.size());
    double sum = 0.0;
    for (double e : ev.nodeEnergyPj)
        sum += e;
    EXPECT_NEAR(sum, ev.energyPj, 1e-6 * ev.energyPj);
}

TEST(Evaluate, InvalidMappingReported)
{
    Arch arch = baseMacro();
    workload::Layer layer = matmulLayer("mvm", 4, 8, 8);
    PerActionTable table = precompute(arch, layer);
    mapping::Mapping bad = mapping::Mapping::identity(arch.hierarchy);
    // No factors set: products don't match the layer dims.
    Evaluation ev = evaluate(arch, table, bad);
    EXPECT_FALSE(ev.valid);
    EXPECT_FALSE(ev.invalidReason.empty());
}

TEST(Evaluate, MoreMacsMoreEnergy)
{
    Arch arch = baseMacro();
    workload::Layer small = matmulLayer("s", 8, 64, 64);
    workload::Layer large = matmulLayer("l", 32, 64, 64);
    SearchResult a = searchMappings(arch, small, 50, 1);
    SearchResult b = searchMappings(arch, large, 50, 1);
    EXPECT_GT(b.best.energyPj, a.best.energyPj);
}

TEST(Search, FindsNoWorseThanGreedy)
{
    Arch arch = baseMacro();
    workload::Layer layer = workload::resnet18().layers[6];
    PerActionTable table = precompute(arch, layer);
    mapping::Mapper mapper(arch.hierarchy, table.extLayer);
    Evaluation greedy = evaluate(arch, table, mapper.greedy());
    ASSERT_TRUE(greedy.valid) << greedy.invalidReason;

    SearchResult sr = searchMappings(arch, layer, 100, 42);
    EXPECT_LE(sr.best.energyPj, greedy.energyPj * (1.0 + 1e-9));
    EXPECT_GT(sr.evaluated, 0);
}

TEST(Search, ObjectivesDiffer)
{
    Arch arch = baseMacro();
    workload::Layer layer = workload::resnet18().layers[3];
    SearchResult energy = searchMappings(arch, layer, 80, 5,
                                         {.objective = Objective::Energy});
    SearchResult delay = searchMappings(arch, layer, 80, 5,
                                        {.objective = Objective::Delay});
    EXPECT_LE(energy.best.energyPj, delay.best.energyPj * (1 + 1e-9));
    EXPECT_LE(delay.best.latencyNs, energy.best.latencyNs * (1 + 1e-9));
}

TEST(Search, DeterministicForSeed)
{
    Arch arch = baseMacro();
    workload::Layer layer = workload::resnet18().layers[2];
    SearchResult a = searchMappings(arch, layer, 60, 9);
    SearchResult b = searchMappings(arch, layer, 60, 9);
    EXPECT_DOUBLE_EQ(a.best.energyPj, b.best.energyPj);
    EXPECT_DOUBLE_EQ(a.best.latencyNs, b.best.latencyNs);
}

TEST(Network, EvaluatesAllLayers)
{
    Arch arch = baseMacro();
    workload::Network net = workload::maxUtilMvm(128, 128, 64);
    NetworkEvaluation ev = evaluateNetwork(arch, net, 40, 1);
    ASSERT_EQ(ev.layers.size(), net.layers.size());
    EXPECT_GT(ev.energyPj, 0.0);
    EXPECT_GT(ev.macs, 0.0);
    EXPECT_GT(ev.topsPerWatt(), 0.0);
    EXPECT_DOUBLE_EQ(ev.macs, static_cast<double>(net.totalMacs()));
}

TEST(Network, LayerCountsRespected)
{
    Arch arch = baseMacro();
    workload::Network net = workload::maxUtilMvm(64, 64, 16);
    NetworkEvaluation once = evaluateNetwork(arch, net, 30, 1);
    net.layers[0].count = 3;
    NetworkEvaluation thrice = evaluateNetwork(arch, net, 30, 1);
    EXPECT_NEAR(thrice.energyPj, 3.0 * once.energyPj,
                1e-6 * thrice.energyPj);
}

// The full-stack lesson of paper Fig. 2a: a larger array wastes macro
// energy on underutilization but slashes weight refetches; we check the
// underlying counts move the right way.
TEST(FullStack, LargerArrayReducesWeightTraffic)
{
    workload::Layer layer = workload::resnet18().layers[8]; // 128x128x3x3
    MacroParams small_p = macros::baseDefaults();
    small_p.rows = 64;
    small_p.cols = 64;
    MacroParams large_p = macros::baseDefaults();
    large_p.rows = 512;
    large_p.cols = 512;

    Arch small_arch = baseMacro(small_p);
    Arch large_arch = baseMacro(large_p);
    SearchResult small_sr = searchMappings(small_arch, layer, 100, 3);
    SearchResult large_sr = searchMappings(large_arch, layer, 100, 3);

    // Larger array: fewer steps (more parallel MACs)...
    EXPECT_LT(large_sr.best.steps, small_sr.best.steps);
    // ...but never better-than-perfect utilization.
    EXPECT_LE(large_sr.best.utilization, 1.0);
}

TEST(Voltage, SweepTradesEnergyForSpeed)
{
    workload::Layer layer = matmulLayer("mvm", 2048, 128, 128);
    MacroParams p = macros::baseDefaults();
    Arch nominal = baseMacro(p);
    p.supplyVoltage = 0.8 * models::techParams(p.technologyNm).vNominal;
    Arch low_v = baseMacro(p);

    SearchResult at_nom = searchMappings(nominal, layer, 50, 2);
    SearchResult at_low = searchMappings(low_v, layer, 50, 2);
    EXPECT_LT(at_low.best.energyPj, at_nom.best.energyPj);
    EXPECT_GT(at_low.best.latencyNs, at_nom.best.latencyNs);
}

} // namespace
} // namespace cimloop::engine
