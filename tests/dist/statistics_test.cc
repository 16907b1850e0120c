/** Additional distribution properties: mixture identities, slicing
 *  across every width, differential plane algebra. */
#include <cmath>

#include <gtest/gtest.h>

#include "cimloop/dist/encoding.hh"
#include "cimloop/dist/pmf.hh"
#include "support/pmf.hh"

namespace cimloop::dist {
namespace {

TEST(Mixture, ChainIsUniform)
{
    // Mixing k deltas with weights 1/i mimics the engine's slice-mixture
    // construction; the result must be the uniform mixture.
    Pmf mix = Pmf::delta(0.0);
    for (int i = 1; i < 5; ++i) {
        double keep = static_cast<double>(i) / (i + 1);
        mix = mix.mixedWith(Pmf::delta(static_cast<double>(i)), keep);
    }
    for (int i = 0; i < 5; ++i)
        EXPECT_NEAR(mix.probOf(i), 0.2, 1e-12) << i;
}

class SliceWidths : public ::testing::TestWithParam<int>
{};

TEST_P(SliceWidths, FirstMomentReassembles)
{
    // For ANY slice width, sum over slices of E[slice] * 2^offset equals
    // E[code] — slicing never loses the first moment.
    int width = GetParam();
    Pmf ops = Pmf::quantizedGaussian(90.0, 45.0, 0, 255);
    EncodedTensor enc = encodeOperands(ops, Encoding::Unsigned, 8);
    auto slices = enc.slices(width);
    double reassembled = 0.0;
    int offset = 0;
    for (const EncodedTensor& s : slices) {
        reassembled += std::ldexp(s.codes.mean(), offset);
        offset += s.bits;
    }
    EXPECT_NEAR(reassembled, enc.codes.mean(), 1e-9) << "width " << width;
    // Total bits conserved.
    EXPECT_EQ(offset, 8);
}

INSTANTIATE_TEST_SUITE_P(Widths, SliceWidths,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8));

TEST(Differential, PlanesReconstructValue)
{
    // v = pos - neg exactly, and exactly one plane is nonzero.
    for (double v : {-100.0, -1.0, 0.0, 1.0, 57.0}) {
        EncodedTensor enc = encodeOperands(Pmf::delta(v),
                                           Encoding::Differential, 8);
        // The mixture has (at most) two support points: max(v,0), max(-v,0).
        double pos = std::max(v, 0.0);
        double neg = std::max(-v, 0.0);
        EXPECT_NEAR(enc.codes.mean(), (pos + neg) / 2.0, 1e-9) << v;
        EXPECT_NEAR(pos - neg, v, 1e-9);
    }
}

TEST(Xnor, UniformBipolarCodesToggleMaximally)
{
    EncodedTensor enc = encodeOperands(support::uniformInt(-8, 7),
                                       Encoding::Xnor, 4);
    // Uniform 4b codes: 2 expected flips between consecutive values.
    EXPECT_NEAR(enc.meanBitFlips(), 2.0, 1e-9);
    EXPECT_TRUE(enc.bipolarBits);
}

TEST(Moments, SparsityLowersMeanNotSupport)
{
    Pmf dense = Pmf::reluGaussian(0.0, 40.0, 127);
    Pmf sparse = Pmf::delta(0.0).mixedWith(dense, 0.5);
    EXPECT_LT(sparse.mean(), dense.mean());
    EXPECT_DOUBLE_EQ(sparse.points().back().value,
                     dense.points().back().value);
    EncodedTensor e_dense = encodeOperands(dense, Encoding::Unsigned, 8);
    EncodedTensor e_sparse = encodeOperands(sparse, Encoding::Unsigned, 8);
    EXPECT_LT(e_sparse.meanNormValue(), e_dense.meanNormValue());
}

} // namespace
} // namespace cimloop::dist
