#include "cimloop/dist/encoding.hh"

#include <gtest/gtest.h>

#include "cimloop/common/error.hh"
#include "support/pmf.hh"

namespace cimloop::dist {
namespace {

TEST(Names, RoundTrip)
{
    for (Encoding e :
         {Encoding::Unsigned, Encoding::TwosComplement, Encoding::Offset,
          Encoding::Differential, Encoding::Xnor, Encoding::MagnitudeOnly}) {
        EXPECT_EQ(encodingFromString(encodingName(e)), e);
    }
    EXPECT_THROW(encodingFromString("bogus"), FatalError);
}

TEST(Unsigned, IdentityCodes)
{
    Pmf ops = support::uniformInt(0, 255);
    EncodedTensor enc = encodeOperands(ops, Encoding::Unsigned, 8);
    EXPECT_EQ(enc.bits, 8);
    EXPECT_EQ(enc.planes, 1);
    EXPECT_NEAR(enc.codes.mean(), 127.5, 1e-9);
    EXPECT_NEAR(enc.meanNormValue(), 0.5, 1e-9);
}

TEST(Unsigned, RejectsNegatives)
{
    Pmf ops = support::uniformInt(-8, 8);
    EXPECT_THROW(encodeOperands(ops, Encoding::Unsigned, 8), FatalError);
}

TEST(TwosComplement, NegativeWrapsHigh)
{
    Pmf ops = Pmf::delta(-1.0);
    EncodedTensor enc = encodeOperands(ops, Encoding::TwosComplement, 8);
    EXPECT_NEAR(enc.codes.probOf(255.0), 1.0, 1e-12);
}

TEST(Offset, ZeroMapsToMidpoint)
{
    Pmf ops = Pmf::delta(0.0);
    EncodedTensor enc = encodeOperands(ops, Encoding::Offset, 8);
    EXPECT_NEAR(enc.codes.probOf(128.0), 1.0, 1e-12);
}

TEST(Offset, SymmetricOperandsGiveHalfLevel)
{
    Pmf ops = Pmf::quantizedGaussian(0.0, 20.0, -128, 127);
    EncodedTensor enc = encodeOperands(ops, Encoding::Offset, 8);
    EXPECT_NEAR(enc.meanNormValue(), 0.5, 0.01);
}

TEST(Differential, TwoPlanesSplitSign)
{
    // Operand +3 puts 3 on the positive plane, 0 on the negative plane.
    Pmf ops = Pmf::delta(3.0);
    EncodedTensor enc = encodeOperands(ops, Encoding::Differential, 8);
    EXPECT_EQ(enc.planes, 2);
    EXPECT_EQ(enc.bits, 7);
    EXPECT_NEAR(enc.codes.probOf(3.0), 0.5, 1e-12);
    EXPECT_NEAR(enc.codes.probOf(0.0), 0.5, 1e-12);
}

TEST(Differential, MeanLevelIsHalfMeanAbs)
{
    Pmf ops = Pmf::quantizedGaussian(0.0, 20.0, -128, 127);
    EncodedTensor enc = encodeOperands(ops, Encoding::Differential, 8);
    // E[plane code] = E[(|v| split across two planes)] = E[|v|] / 2.
    EXPECT_NEAR(enc.codes.mean(), ops.meanAbs() / 2.0, 0.05);
}

TEST(MagnitudeOnly, AbsoluteValues)
{
    Pmf ops = support::uniformInt(-4, 4);
    EncodedTensor enc = encodeOperands(ops, Encoding::MagnitudeOnly, 4);
    EXPECT_EQ(enc.bits, 3);
    EXPECT_NEAR(enc.codes.mean(), ops.meanAbs(), 1e-9);
}

TEST(Xnor, BipolarFlagSet)
{
    Pmf ops = support::uniformInt(-2, 1);
    EncodedTensor enc = encodeOperands(ops, Encoding::Xnor, 2);
    EXPECT_TRUE(enc.bipolarBits);
    EXPECT_EQ(enc.bits, 2);
}

TEST(BitStats, OnProbsUniform)
{
    Pmf ops = support::uniformInt(0, 255);
    EncodedTensor enc = encodeOperands(ops, Encoding::Unsigned, 8);
    for (double p : enc.bitOnProbs())
        EXPECT_NEAR(p, 0.5, 1e-9);
    // Uniform codes: every bit toggles with probability 1/2 -> 4 flips.
    EXPECT_NEAR(enc.meanBitFlips(), 4.0, 1e-9);
}

TEST(BitStats, ConstantCodeNeverFlips)
{
    EncodedTensor enc =
        encodeOperands(Pmf::delta(5.0), Encoding::Unsigned, 8);
    EXPECT_NEAR(enc.meanBitFlips(), 0.0, 1e-12);
}

TEST(Slicing, WidthsAndMarginals)
{
    Pmf ops = support::uniformInt(0, 255);
    EncodedTensor enc = encodeOperands(ops, Encoding::Unsigned, 8);
    auto slices = enc.slices(3); // 3 + 3 + 2 bits
    ASSERT_EQ(slices.size(), 3u);
    EXPECT_EQ(slices[0].bits, 3);
    EXPECT_EQ(slices[1].bits, 3);
    EXPECT_EQ(slices[2].bits, 2);
    // Uniform full code -> uniform slice marginals.
    EXPECT_NEAR(slices[0].codes.mean(), 3.5, 1e-9);
    EXPECT_NEAR(slices[2].codes.mean(), 1.5, 1e-9);
}

TEST(Slicing, ReassembleMean)
{
    Pmf ops = Pmf::quantizedGaussian(90.0, 30.0, 0, 255);
    EncodedTensor enc = encodeOperands(ops, Encoding::Unsigned, 8);
    auto slices = enc.slices(4);
    ASSERT_EQ(slices.size(), 2u);
    // E[code] = E[low] + 16 * E[high]: slicing preserves the first moment.
    double reassembled = slices[0].codes.mean() + 16.0 * slices[1].codes.mean();
    EXPECT_NEAR(reassembled, enc.codes.mean(), 1e-9);
}

TEST(SliceMixture, MatchesIncrementalReference)
{
    Pmf ops = Pmf::quantizedGaussian(90.0, 30.0, 0, 255);
    EncodedTensor enc = encodeOperands(ops, Encoding::Unsigned, 8);
    EncodedTensor mix = sliceMixture(enc, 2);
    // Reference: the k-step incremental equal-weight mix the engine used
    // before the single-pass merge.
    auto slices = enc.slices(2);
    Pmf chain = slices[0].codes;
    for (std::size_t i = 1; i < slices.size(); ++i) {
        double keep = static_cast<double>(i) / static_cast<double>(i + 1);
        chain = chain.mixedWith(slices[i].codes, keep);
    }
    ASSERT_EQ(mix.codes.size(), chain.size());
    for (std::size_t i = 0; i < chain.size(); ++i) {
        EXPECT_DOUBLE_EQ(mix.codes.points()[i].value,
                         chain.points()[i].value);
        EXPECT_NEAR(mix.codes.points()[i].prob, chain.points()[i].prob,
                    1e-12);
    }
    EXPECT_EQ(mix.bits, 2);
    EXPECT_EQ(mix.encoding, enc.encoding);
}

TEST(SliceMixture, SingleSlicePassesThrough)
{
    Pmf ops = support::uniformInt(0, 255);
    EncodedTensor enc = encodeOperands(ops, Encoding::Unsigned, 8);
    EncodedTensor mix = sliceMixture(enc, 8); // one slice: the full code
    EXPECT_EQ(mix.bits, 8);
    ASSERT_EQ(mix.codes.size(), enc.codes.size());
    for (std::size_t i = 0; i < enc.codes.size(); ++i) {
        EXPECT_DOUBLE_EQ(mix.codes.points()[i].value,
                         enc.codes.points()[i].value);
        EXPECT_DOUBLE_EQ(mix.codes.points()[i].prob,
                         enc.codes.points()[i].prob);
    }
}

TEST(MeanMac, Independence)
{
    EncodedTensor in = encodeOperands(Pmf::delta(255.0),
                                      Encoding::Unsigned, 8);
    EncodedTensor wt = encodeOperands(Pmf::delta(255.0),
                                      Encoding::Unsigned, 8);
    EXPECT_NEAR(meanNormMac(in, wt), 1.0, 1e-12);
}

// Property sweep: every encoding produces codes within [0, 2^bits) and a
// normalized level within [0, 1].
class EncodingProperty
    : public ::testing::TestWithParam<std::tuple<Encoding, int>>
{};

TEST_P(EncodingProperty, CodesInRange)
{
    auto [e, bits] = GetParam();
    Pmf ops = (e == Encoding::Unsigned)
        ? support::uniformInt(0, (1 << (bits - 1)) - 1)
        : Pmf::quantizedGaussian(0.0, (1 << bits) / 6.0,
                                 -(1 << (bits - 1)), (1 << (bits - 1)) - 1);
    EncodedTensor enc = encodeOperands(ops, e, bits);
    double max_code = enc.maxCode();
    for (const auto& pt : enc.codes.points()) {
        EXPECT_GE(pt.value, 0.0);
        EXPECT_LE(pt.value, max_code);
    }
    EXPECT_GE(enc.meanNormValue(), 0.0);
    EXPECT_LE(enc.meanNormValue(), 1.0);
    EXPECT_GE(enc.meanNormSquare(), 0.0);
    EXPECT_LE(enc.meanNormSquare(), 1.0);
    // Jensen on normalized codes.
    EXPECT_GE(enc.meanNormSquare() + 1e-12,
              enc.meanNormValue() * enc.meanNormValue());
}

INSTANTIATE_TEST_SUITE_P(
    AllEncodings, EncodingProperty,
    ::testing::Combine(
        ::testing::Values(Encoding::Unsigned, Encoding::TwosComplement,
                          Encoding::Offset, Encoding::Differential,
                          Encoding::Xnor, Encoding::MagnitudeOnly),
        ::testing::Values(2, 4, 8)));

} // namespace
} // namespace cimloop::dist
