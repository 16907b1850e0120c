#include "cimloop/refsim/refsim.hh"

#include <cmath>

#include <gtest/gtest.h>

#include "cimloop/common/error.hh"
#include "cimloop/macros/macros.hh"
#include "cimloop/models/component.hh"
#include "cimloop/workload/networks.hh"

namespace cimloop::refsim {
namespace {

using workload::matmulLayer;

RefSimConfig
smallConfig()
{
    RefSimConfig c;
    c.rows = 32;
    c.cols = 32;
    c.inputBits = 8;
    c.weightBits = 8;
    c.dacBits = 1;
    c.cellBits = 1;
    c.adcBits = 5;
    c.maxVectors = 16;
    return c;
}

workload::Layer
testLayer(int index = 3)
{
    workload::Network net = workload::resnet18();
    workload::Layer l = net.layers[index];
    // Shrink spatial extents so value-level simulation stays fast.
    l.dims[workload::dimIndex(workload::Dim::P)] = 4;
    l.dims[workload::dimIndex(workload::Dim::Q)] = 4;
    return l;
}

TEST(ValueLevel, DeterministicForSeed)
{
    RefSimConfig c = smallConfig();
    workload::Layer l = testLayer();
    RefSimResult a = simulateValueLevel(c, l);
    RefSimResult b = simulateValueLevel(c, l);
    EXPECT_DOUBLE_EQ(a.totalPj(), b.totalPj());
    EXPECT_EQ(a.valuesSimulated, b.valuesSimulated);
}

TEST(ValueLevel, DifferentSeedsCloseButNotEqual)
{
    RefSimConfig c = smallConfig();
    workload::Layer l = testLayer();
    RefSimResult a = simulateValueLevel(c, l);
    c.seed = 77;
    RefSimResult b = simulateValueLevel(c, l);
    EXPECT_NE(a.totalPj(), b.totalPj());
    // Same distributional parameters: totals within sampling noise.
    EXPECT_NEAR(a.totalPj() / b.totalPj(), 1.0, 0.35);
}

TEST(ValueLevel, BreakdownComponentsAllPositive)
{
    RefSimResult r = simulateValueLevel(smallConfig(), testLayer());
    EXPECT_GT(r.dacPj, 0.0);
    EXPECT_GT(r.cellPj, 0.0);
    EXPECT_GT(r.adcPj, 0.0);
    EXPECT_GT(r.digitalPj, 0.0);
    EXPECT_GT(r.bufferPj, 0.0);
    EXPECT_GT(r.valuesSimulated, 1000);
}

TEST(ValueLevel, SamplingScalesToFullLayer)
{
    RefSimConfig c = smallConfig();
    workload::Layer l = testLayer();
    c.maxVectors = 8;
    RefSimResult partial = simulateValueLevel(c, l);
    c.maxVectors = 16;
    RefSimResult more = simulateValueLevel(c, l);
    // Both estimates target the same whole-layer energy.
    EXPECT_NEAR(partial.totalPj() / more.totalPj(), 1.0, 0.3);
    EXPECT_DOUBLE_EQ(partial.ops, more.ops);
}

TEST(ValueLevel, RecordsProfile)
{
    RefSimConfig c = smallConfig();
    workload::Layer l = testLayer();
    dist::OperandProfile prof;
    simulateValueLevel(c, l, &prof);
    EXPECT_GT(prof.inputs.size(), 4u);
    EXPECT_GT(prof.weights.size(), 8u);
    EXPECT_GE(prof.inputs.minValue(), 0.0); // post-ReLU layer
    EXPECT_LT(prof.weights.minValue(), 0.0);
    EXPECT_GT(prof.inputSparsity, 0.05);
}

TEST(ValueLevel, RejectsHugeLayers)
{
    RefSimConfig c = smallConfig();
    workload::Layer l = matmulLayer("huge", 1, 50000, 50000);
    EXPECT_THROW(simulateValueLevel(c, l), FatalError);
}

// The paper's Fig. 6 relationship: the statistical model tracks the
// value-level ground truth closely; a fixed-energy model frozen at
// network-average distributions errs much more and differently per layer.
TEST(Accuracy, StatisticalBeatsFixedEnergy)
{
    RefSimConfig c = smallConfig();
    c.maxVectors = 24;

    // Record per-layer profiles + ground truth for several layers.
    std::vector<workload::Layer> layers;
    for (int idx : {2, 5, 9, 14, 18})
        layers.push_back(testLayer(idx));

    std::vector<RefSimResult> truth;
    std::vector<dist::OperandProfile> profiles;
    for (const workload::Layer& l : layers) {
        dist::OperandProfile prof;
        truth.push_back(simulateValueLevel(c, l, &prof));
        profiles.push_back(prof);
    }
    dist::OperandProfile avg = averageProfiles(profiles);

    double stat_err_sum = 0.0, fixed_err_sum = 0.0;
    double stat_err_max = 0.0, fixed_err_max = 0.0;
    for (std::size_t i = 0; i < layers.size(); ++i) {
        double t = truth[i].totalPj();
        double s = estimateStatistical(c, layers[i], profiles[i]).totalPj();
        double f = estimateFixedEnergy(c, layers[i], avg).totalPj();
        double se = std::abs(s - t) / t;
        double fe = std::abs(f - t) / t;
        stat_err_sum += se;
        fixed_err_sum += fe;
        stat_err_max = std::max(stat_err_max, se);
        fixed_err_max = std::max(fixed_err_max, fe);
    }
    double stat_avg = stat_err_sum / layers.size();
    double fixed_avg = fixed_err_sum / layers.size();

    // Shape of paper Fig. 6: avg 3% vs 28%. We require the qualitative
    // relationship with margin for the synthetic substrate.
    EXPECT_LT(stat_avg, 0.15);
    EXPECT_GT(fixed_avg, 1.5 * stat_avg);
    EXPECT_LT(stat_err_max, 0.30);
}

TEST(Statistical, ExactCountsMatchValueLevel)
{
    // Both paths must agree on the action counts (ops field).
    RefSimConfig c = smallConfig();
    workload::Layer l = testLayer();
    dist::OperandProfile prof;
    RefSimResult truth = simulateValueLevel(c, l, &prof);
    RefSimResult stat = estimateStatistical(c, l, prof);
    EXPECT_DOUBLE_EQ(truth.ops, stat.ops);
}

TEST(Statistical, BufferEnergyIdentical)
{
    // Buffer traffic is value-independent, so the two estimators must
    // agree exactly on it.
    RefSimConfig c = smallConfig();
    workload::Layer l = testLayer();
    dist::OperandProfile prof;
    RefSimResult truth = simulateValueLevel(c, l, &prof);
    RefSimResult stat = estimateStatistical(c, l, prof);
    EXPECT_NEAR(truth.bufferPj, stat.bufferPj, 1e-9 * truth.bufferPj);
}

/** The ADC plug-in's energy per convert at @p bits and @p nm. */
double
pluginAdcPj(int bits, double nm)
{
    spec::SpecNode node;
    node.name = "adc";
    node.attributes["resolution"] = yaml::Node::makeInt(bits);
    models::ComponentContext ctx;
    ctx.node = &node;
    ctx.technologyNm = nm;
    const models::ComponentModel& adc =
        models::PluginRegistry::instance().require("ADC");
    return adc.estimate(ctx)
        .actionEnergyPj[spec::tensorIndex(workload::TensorKind::Output)];
}

TEST(RefsimPhysics, AdcPriceIsThePlugins)
{
    // The value factor of a convert does not depend on the resolution,
    // so between two resolutions only the plug-in's convert price moves.
    RefSimConfig c = smallConfig();
    c.technologyNm = 40.0;
    workload::Layer l = testLayer();
    dist::OperandProfile prof;
    simulateValueLevel(c, l, &prof);
    c.adcBits = 5;
    const double at5 = estimateStatistical(c, l, prof).adcPj;
    c.adcBits = 10;
    const double at10 = estimateStatistical(c, l, prof).adcPj;
    const double want = pluginAdcPj(5, 40.0) / pluginAdcPj(10, 40.0);
    EXPECT_NEAR(at5 / at10, want, 1e-12 * want);
}

TEST(RefsimPhysics, ConfigDefaultsAreBaseMacro)
{
    // --refsim models the base macro: its operating point must not drift
    // from the macro users build.
    const RefSimConfig c;
    const macros::MacroParams base = macros::baseDefaults();
    EXPECT_EQ(c.rows, base.rows);
    EXPECT_EQ(c.cols, base.cols);
    EXPECT_EQ(c.technologyNm, base.technologyNm);
    EXPECT_EQ(c.dacBits, base.dacBits);
    EXPECT_EQ(c.cellBits, base.cellBits);
    EXPECT_EQ(c.adcBits, base.adcBits);
}

TEST(AverageProfiles, MixesUniformly)
{
    dist::OperandProfile a, b;
    a.inputs = dist::Pmf::delta(1.0);
    a.weights = dist::Pmf::delta(2.0);
    a.outputs = dist::Pmf::delta(3.0);
    b.inputs = dist::Pmf::delta(5.0);
    b.weights = dist::Pmf::delta(6.0);
    b.outputs = dist::Pmf::delta(7.0);
    dist::OperandProfile avg = averageProfiles({a, b});
    EXPECT_NEAR(avg.inputs.mean(), 3.0, 1e-12);
    EXPECT_NEAR(avg.weights.mean(), 4.0, 1e-12);
    EXPECT_NEAR(avg.inputs.probOf(1.0), 0.5, 1e-12);
}

TEST(Threads, BitIdenticalAcrossCounts)
{
    // Per-vector counter-derived RNG streams + ordered reduction: the
    // result must be the SAME DOUBLES for any thread count, profile
    // included.
    RefSimConfig c = smallConfig();
    workload::Layer l = testLayer();
    dist::OperandProfile p1;
    c.threads = 1;
    RefSimResult r1 = simulateValueLevel(c, l, &p1);
    for (int threads : {2, 8}) {
        c.threads = threads;
        dist::OperandProfile pn;
        RefSimResult rn = simulateValueLevel(c, l, &pn);
        EXPECT_DOUBLE_EQ(rn.dacPj, r1.dacPj) << threads << " threads";
        EXPECT_DOUBLE_EQ(rn.cellPj, r1.cellPj) << threads << " threads";
        EXPECT_DOUBLE_EQ(rn.adcPj, r1.adcPj) << threads << " threads";
        EXPECT_DOUBLE_EQ(rn.digitalPj, r1.digitalPj)
            << threads << " threads";
        EXPECT_DOUBLE_EQ(rn.bufferPj, r1.bufferPj) << threads << " threads";
        EXPECT_EQ(rn.valuesSimulated, r1.valuesSimulated);
        ASSERT_EQ(pn.inputs.size(), p1.inputs.size());
        for (std::size_t i = 0; i < p1.inputs.size(); ++i) {
            EXPECT_DOUBLE_EQ(pn.inputs.points()[i].value,
                             p1.inputs.points()[i].value);
            EXPECT_DOUBLE_EQ(pn.inputs.points()[i].prob,
                             p1.inputs.points()[i].prob);
        }
        ASSERT_EQ(pn.outputs.size(), p1.outputs.size());
        for (std::size_t i = 0; i < p1.outputs.size(); ++i) {
            EXPECT_DOUBLE_EQ(pn.outputs.points()[i].value,
                             p1.outputs.points()[i].value);
            EXPECT_DOUBLE_EQ(pn.outputs.points()[i].prob,
                             p1.outputs.points()[i].prob);
        }
    }
}

TEST(Threads, MoreWorkersThanVectors)
{
    // Oversubscription must neither deadlock nor change the numbers.
    RefSimConfig c = smallConfig();
    c.maxVectors = 3;
    workload::Layer l = testLayer();
    c.threads = 1;
    RefSimResult r1 = simulateValueLevel(c, l);
    c.threads = 16;
    RefSimResult r16 = simulateValueLevel(c, l);
    EXPECT_DOUBLE_EQ(r16.totalPj(), r1.totalPj());
}

TEST(Threads, InvalidInputsAreFatal)
{
    workload::Layer l = testLayer();
    RefSimConfig c = smallConfig();
    c.threads = 0;
    EXPECT_THROW(simulateValueLevel(c, l), FatalError);
    c = smallConfig();
    c.maxVectors = -1;
    EXPECT_THROW(simulateValueLevel(c, l), FatalError);
    c = smallConfig();
    c.seed = 0;
    EXPECT_THROW(simulateValueLevel(c, l), FatalError);
}

TEST(InputBits, MoreBitsMoreEnergy)
{
    RefSimConfig c = smallConfig();
    workload::Layer l = testLayer();
    c.inputBits = 4;
    double e4 = simulateValueLevel(c, l).totalPj();
    c.inputBits = 8;
    double e8 = simulateValueLevel(c, l).totalPj();
    // Bit-serial: 8b inputs take ~2x the array activations of 4b.
    EXPECT_GT(e8, 1.5 * e4);
}

class AdcBitsSweep : public ::testing::TestWithParam<int>
{};

TEST_P(AdcBitsSweep, AdcEnergyGrowsWithResolution)
{
    RefSimConfig c = smallConfig();
    c.adcBits = GetParam();
    RefSimResult r = simulateValueLevel(c, testLayer());
    EXPECT_GT(r.adcPj, 0.0);
    static double last = 0.0;
    if (GetParam() == 2)
        last = 0.0;
    EXPECT_GT(r.adcPj, last);
    last = r.adcPj;
}

INSTANTIATE_TEST_SUITE_P(Resolutions, AdcBitsSweep,
                         ::testing::Values(2, 4, 6, 8, 10));

} // namespace
} // namespace cimloop::refsim
