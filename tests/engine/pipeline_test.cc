/**
 * Engine pipeline details: representation plumbing (encodings, slice
 * mixtures), profile overrides, metric identities, and leakage/latency
 * interactions.
 */
#include "cimloop/engine/evaluate.hh"

#include <gtest/gtest.h>

#include "cimloop/macros/macros.hh"
#include "cimloop/workload/networks.hh"

namespace cimloop::engine {
namespace {

using macros::baseMacro;
using macros::MacroParams;
using workload::dimIndex;
using workload::Dim;
using workload::matmulLayer;

workload::Layer
mvm(std::int64_t m, std::int64_t c, std::int64_t k)
{
    workload::Layer l = matmulLayer("mvm", m, c, k);
    l.network = "mvm";
    return l;
}

TEST(ProfileOverride, DrivesDataValueDependence)
{
    Arch arch = baseMacro();
    workload::Layer layer = mvm(16, 128, 128);

    dist::OperandProfile small, large;
    small.inputs = dist::Pmf::delta(3.0);
    small.weights = dist::Pmf::delta(2.0);
    small.outputs = dist::Pmf::delta(0.0);
    large.inputs = dist::Pmf::delta(120.0);
    large.weights = dist::Pmf::delta(120.0);
    large.outputs = dist::Pmf::delta(0.0);

    PerActionTable t_small = precompute(arch, layer, &small);
    PerActionTable t_large = precompute(arch, layer, &large);
    mapping::Mapper mapper(arch.hierarchy, t_small.extLayer);
    mapping::Mapping m = mapper.greedy();

    Evaluation e_small = evaluate(arch, t_small, m);
    Evaluation e_large = evaluate(arch, t_large, m);
    // Larger values drive more DAC charge and cell current.
    EXPECT_GT(e_large.energyPj, e_small.energyPj);
}

TEST(ProfileOverride, DefaultSynthesizesByNetwork)
{
    Arch arch = baseMacro();
    workload::Network net = workload::resnet18();
    PerActionTable a = precompute(arch, net.layers[3]);
    PerActionTable b = precompute(arch, net.layers[9]);
    // Per-layer distributions differ, so per-action energies differ.
    int dac = arch.hierarchy.indexOf("dac_bank");
    EXPECT_NE(a.nodes[dac].actionEnergyPj[0],
              b.nodes[dac].actionEnergyPj[0]);
}

TEST(Representation, AdcSeesItsOwnResolution)
{
    MacroParams p = macros::baseDefaults();
    p.adcBits = 9;
    Arch arch = baseMacro(p);
    PerActionTable table = precompute(arch, mvm(4, 16, 16));
    int adc = arch.hierarchy.indexOf("adc");
    int dac = arch.hierarchy.indexOf("dac_bank");
    // 9b ADC converts cost much more than the 5b default would.
    MacroParams p5 = macros::baseDefaults();
    Arch arch5 = baseMacro(p5);
    PerActionTable table5 = precompute(arch5, mvm(4, 16, 16));
    EXPECT_GT(table.nodes[adc].actionEnergyPj[2],
              10.0 * table5.nodes[adc].actionEnergyPj[2]);
    // DAC unaffected by the ADC change.
    EXPECT_DOUBLE_EQ(table.nodes[dac].actionEnergyPj[0],
                     table5.nodes[dac].actionEnergyPj[0]);
}

TEST(Representation, EncodingChangesEnergy)
{
    workload::Layer layer = workload::resnet18().layers[4];
    MacroParams p = macros::baseDefaults();
    p.inputEncoding = dist::Encoding::Offset;
    Arch offset_arch = baseMacro(p);
    p.inputEncoding = dist::Encoding::TwosComplement;
    Arch twos_arch = baseMacro(p);
    int dac = offset_arch.hierarchy.indexOf("dac_bank");
    double e_offset =
        precompute(offset_arch, layer).nodes[dac].actionEnergyPj[0];
    double e_twos =
        precompute(twos_arch, layer).nodes[dac].actionEnergyPj[0];
    // Offset encoding pins ReLU activations near mid-scale; small
    // two's-complement codes convert cheaper (paper Fig. 4).
    EXPECT_GT(e_offset, e_twos);
}

TEST(Metrics, Identities)
{
    Arch arch = baseMacro();
    SearchResult sr = searchMappings(arch, mvm(64, 128, 128), 50, 1);
    const Evaluation& ev = sr.best;
    EXPECT_NEAR(ev.topsPerWatt(), 2.0 * ev.macs / ev.energyPj,
                1e-9 * ev.topsPerWatt());
    EXPECT_NEAR(ev.energyPerMacPj() * ev.macs, ev.energyPj,
                1e-6 * ev.energyPj);
    EXPECT_NEAR(ev.macsPerSecond() * ev.latencyNs * 1e-9, ev.macs,
                1e-6 * ev.macs);
    EXPECT_GT(ev.topsPerMm2(), 0.0);
}

TEST(Metrics, ZeroGuards)
{
    Evaluation ev;
    EXPECT_DOUBLE_EQ(ev.energyPerMacPj(), 0.0);
    EXPECT_DOUBLE_EQ(ev.topsPerWatt(), 0.0);
    EXPECT_DOUBLE_EQ(ev.macsPerSecond(), 0.0);
    EXPECT_DOUBLE_EQ(ev.topsPerMm2(), 0.0);
}

TEST(Throughput, BitSerialCostsSteps)
{
    // 1b DAC streams 8 slices per 8b input: ~8x the steps of an 8b DAC.
    workload::Layer layer = mvm(64, 128, 128);
    MacroParams p1 = macros::baseDefaults();
    p1.dacBits = 1;
    MacroParams p8 = macros::baseDefaults();
    p8.dacBits = 8;
    Arch serial = baseMacro(p1);
    Arch parallel = baseMacro(p8);
    PerActionTable ts = precompute(serial, layer);
    PerActionTable tp = precompute(parallel, layer);
    Evaluation es = evaluate(
        serial, ts, mapping::Mapper(serial.hierarchy, ts.extLayer).greedy());
    Evaluation ep = evaluate(
        parallel, tp,
        mapping::Mapper(parallel.hierarchy, tp.extLayer).greedy());
    EXPECT_NEAR(static_cast<double>(es.steps) / ep.steps, 8.0, 1e-9);
}

TEST(MacroHelpers, MacroOnlyEnergyExcludesBuffer)
{
    Arch arch = baseMacro();
    PerActionTable table = precompute(arch, mvm(64, 128, 128));
    mapping::Mapper mapper(arch.hierarchy, table.extLayer);
    Evaluation ev = evaluate(arch, table, mapper.greedy());
    double macro_only = macros::macroOnlyEnergyPj(arch, ev);
    int buffer = arch.hierarchy.indexOf("buffer");
    EXPECT_NEAR(macro_only + ev.nodeEnergyPj[buffer], ev.energyPj,
                1e-6 * ev.energyPj);
    EXPECT_GT(macros::macroTopsPerWatt(arch, ev), ev.topsPerWatt());
}

TEST(IdleFraction, ChargesUnderutilizedArrays)
{
    // Same tiny layer on a huge array: idle cells burn energy.
    workload::Layer layer = mvm(64, 16, 16);
    MacroParams p = macros::baseDefaults();
    p.rows = 512;
    p.cols = 512;
    Arch arch = baseMacro(p);
    PerActionTable table = precompute(arch, layer);
    mapping::Mapper mapper(arch.hierarchy, table.extLayer);
    mapping::Mapping m = mapper.greedy();

    Evaluation charged = evaluate(arch, table, m);
    // Zero the idle fraction and re-precompute: energy must drop.
    int cells = arch.hierarchy.indexOf("cells");
    arch.hierarchy.nodes[cells].attributes["idle_fraction"] =
        yaml::Node::makeFloat(0.0);
    PerActionTable table2 = precompute(arch, layer);
    Evaluation uncharged = evaluate(arch, table2, m);
    EXPECT_GT(charged.nodeEnergyPj[cells],
              1.5 * uncharged.nodeEnergyPj[cells]);
}

TEST(Search, EdpObjectiveBalances)
{
    Arch arch = baseMacro();
    workload::Layer layer = workload::resnet18().layers[7];
    SearchResult edp =
        searchMappings(arch, layer, 80, 5, {.objective = Objective::Edp});
    SearchResult en = searchMappings(arch, layer, 80, 5,
                                     {.objective = Objective::Energy});
    SearchResult de = searchMappings(arch, layer, 80, 5,
                                     {.objective = Objective::Delay});
    double edp_val = edp.best.energyPj * edp.best.latencyNs;
    EXPECT_LE(edp_val,
              en.best.energyPj * en.best.latencyNs * (1 + 1e-9));
    EXPECT_LE(edp_val,
              de.best.energyPj * de.best.latencyNs * (1 + 1e-9));
}

} // namespace
} // namespace cimloop::engine
