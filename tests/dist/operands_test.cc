#include "cimloop/dist/operands.hh"

#include <gtest/gtest.h>

#include "cimloop/common/error.hh"

namespace cimloop::dist {
namespace {

TEST(Profiles, Deterministic)
{
    OperandProfile a = synthesizeOperands("resnet18", 5, 21, 8, 8);
    OperandProfile b = synthesizeOperands("resnet18", 5, 21, 8, 8);
    EXPECT_EQ(a.inputs.points().size(), b.inputs.points().size());
    EXPECT_DOUBLE_EQ(a.inputs.mean(), b.inputs.mean());
    EXPECT_DOUBLE_EQ(a.weights.variance(), b.weights.variance());
}

TEST(Profiles, VaryAcrossLayers)
{
    // The whole point of the data-value-dependent model (paper Fig. 4/6):
    // distributions differ layer to layer.
    OperandProfile l3 = synthesizeOperands("resnet18", 3, 21, 8, 8);
    OperandProfile l9 = synthesizeOperands("resnet18", 9, 21, 8, 8);
    EXPECT_NE(l3.inputs.mean(), l9.inputs.mean());
    EXPECT_NE(l3.weights.variance(), l9.weights.variance());
}

TEST(Profiles, VaryAcrossNetworks)
{
    OperandProfile r = synthesizeOperands("resnet18", 4, 21, 8, 8);
    OperandProfile g = synthesizeOperands("gpt2", 4, 21, 8, 8);
    EXPECT_NE(r.inputs.mean(), g.inputs.mean());
}

TEST(Profiles, FirstLayerIsSigned)
{
    OperandProfile l0 = synthesizeOperands("resnet18", 0, 21, 8, 8);
    EXPECT_LT(l0.inputs.minValue(), 0.0);
}

TEST(Profiles, LaterLayersAreReLU)
{
    for (int layer : {1, 5, 10, 20}) {
        OperandProfile p = synthesizeOperands("resnet18", layer, 21, 8, 8);
        EXPECT_GE(p.inputs.minValue(), 0.0) << "layer " << layer;
        EXPECT_GT(p.inputSparsity, 0.2) << "layer " << layer;
        EXPECT_LT(p.inputSparsity, 0.95) << "layer " << layer;
    }
}

TEST(Profiles, WeightsZeroMeanSigned)
{
    OperandProfile p = synthesizeOperands("vit", 2, 7, 8, 8);
    EXPECT_NEAR(p.weights.mean(), 0.0, 2.0);
    EXPECT_LT(p.weights.minValue(), 0.0);
    EXPECT_GT(p.weights.points().back().value, 0.0);
}

TEST(Profiles, RespectBitRanges)
{
    OperandProfile p = synthesizeOperands("resnet18", 2, 21, 4, 6);
    EXPECT_LE(p.inputs.points().back().value, 7.0); // 4b signed: max +7
    EXPECT_GE(p.weights.minValue(), -32.0); // 6b signed: min -32
    EXPECT_LE(p.weights.points().back().value, 31.0);
}

TEST(Profiles, InvalidArgsFatal)
{
    EXPECT_THROW(synthesizeOperands("x", -1, 5, 8, 8), PanicError);
    EXPECT_THROW(synthesizeOperands("x", 0, 5, 0, 8), PanicError);
    EXPECT_THROW(synthesizeOperands("x", 0, 5, 8, 17), PanicError);
}

TEST(Profiles, BinaryOperandsSupported)
{
    // 1b operands (binarized networks, paper Fig. 16 sweeps to 1 bit).
    OperandProfile p = synthesizeOperands("resnet18", 3, 21, 1, 1);
    EXPECT_LE(p.inputs.points().back().value, 1.0);
    EXPECT_GE(p.inputs.minValue(), 0.0);
    EXPECT_GE(p.weights.minValue(), -1.0);
    EXPECT_GT(p.inputs.probOf(1.0), 0.1);
    EXPECT_GT(p.weights.probOf(-1.0), 0.2);
}

TEST(StableHash, DistinctAndStable)
{
    EXPECT_EQ(stableHash("abc"), stableHash("abc"));
    EXPECT_NE(stableHash("abc"), stableHash("abd"));
    EXPECT_NE(stableHash(""), 0u);
}

class LayerSweep : public ::testing::TestWithParam<int>
{};

TEST_P(LayerSweep, DistributionsWellFormed)
{
    OperandProfile p =
        synthesizeOperands("resnet18", GetParam(), 21, 8, 8);
    for (const Pmf* pmf : {&p.inputs, &p.weights, &p.outputs}) {
        double total = 0.0;
        for (const auto& pt : pmf->points())
            total += pt.prob;
        EXPECT_NEAR(total, 1.0, 1e-9);
        EXPECT_GT(pmf->size(), 1u);
    }
}

INSTANTIATE_TEST_SUITE_P(AllLayers, LayerSweep,
                         ::testing::Range(0, 21));

} // namespace
} // namespace cimloop::dist
