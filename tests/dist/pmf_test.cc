#include "cimloop/dist/pmf.hh"

#include <cmath>

#include <gtest/gtest.h>

#include "cimloop/common/error.hh"
#include "support/pmf.hh"

namespace cimloop::dist {
namespace {

double
totalProb(const Pmf& p)
{
    double t = 0.0;
    for (const auto& pt : p.points())
        t += pt.prob;
    return t;
}

TEST(Delta, Moments)
{
    Pmf p = Pmf::delta(3.0);
    EXPECT_DOUBLE_EQ(p.mean(), 3.0);
    EXPECT_DOUBLE_EQ(p.meanSquare(), 9.0);
    EXPECT_DOUBLE_EQ(p.variance(), 0.0);
    EXPECT_DOUBLE_EQ(p.probOf(3.0), 1.0);
    EXPECT_DOUBLE_EQ(p.probOf(4.0), 0.0);
}

TEST(UniformInt, Moments)
{
    // The test fixture most dist tests build on (tests/support/pmf.hh).
    Pmf p = support::uniformInt(0, 9);
    EXPECT_EQ(p.size(), 10u);
    EXPECT_EQ(p.probOf(4.0), 1.0 / 10.0);
    EXPECT_NEAR(p.mean(), 4.5, 1e-12);
    EXPECT_NEAR(p.variance(), 8.25, 1e-12);
    EXPECT_NEAR(totalProb(p), 1.0, 1e-12);
}

TEST(FromPoints, MergesDuplicatesAndNormalizes)
{
    Pmf p = Pmf::fromPoints({{1.0, 1.0}, {1.0, 1.0}, {2.0, 2.0}});
    EXPECT_EQ(p.size(), 2u);
    EXPECT_NEAR(p.probOf(1.0), 0.5, 1e-12);
    EXPECT_NEAR(p.probOf(2.0), 0.5, 1e-12);
}

TEST(QuantizedGaussian, CapturesMoments)
{
    Pmf p = Pmf::quantizedGaussian(0.0, 20.0, -128, 127);
    EXPECT_NEAR(p.mean(), 0.0, 0.1);
    EXPECT_NEAR(std::sqrt(p.variance()), 20.0, 0.5);
    EXPECT_NEAR(totalProb(p), 1.0, 1e-9);
}

TEST(QuantizedGaussian, ClampsToRange)
{
    // Mean far outside the range: everything piles at the boundary.
    Pmf p = Pmf::quantizedGaussian(1000.0, 5.0, -128, 127);
    EXPECT_NEAR(p.probOf(127.0), 1.0, 1e-9);
}

TEST(ReluGaussian, HalfMassAtZero)
{
    Pmf p = Pmf::reluGaussian(0.0, 30.0, 127);
    // Half of a zero-mean Gaussian collapses onto zero after ReLU.
    EXPECT_NEAR(p.probOf(0.0), 0.5, 0.02);
    EXPECT_GE(p.minValue(), 0.0);
}

TEST(Mapped, MergesCollisions)
{
    Pmf p = support::uniformInt(-2, 2).mapped([](double v) {
        return std::abs(v);
    });
    EXPECT_NEAR(p.probOf(0.0), 0.2, 1e-12);
    EXPECT_NEAR(p.probOf(1.0), 0.4, 1e-12);
    EXPECT_NEAR(p.probOf(2.0), 0.4, 1e-12);
}

TEST(Mixture, SinglePassMatchesIncrementalChain)
{
    std::vector<Pmf> parts = {support::uniformInt(0, 7),
                              support::uniformInt(4, 11),
                              Pmf::delta(2.0),
                              Pmf::quantizedGaussian(0.0, 3.0, -16, 15)};
    Pmf single = Pmf::mixture(parts);
    // Reference: the old k-step incremental equal-weight mix.
    Pmf chain = parts[0];
    for (std::size_t i = 1; i < parts.size(); ++i) {
        double keep = static_cast<double>(i) / static_cast<double>(i + 1);
        chain = chain.mixedWith(parts[i], keep);
    }
    ASSERT_EQ(single.size(), chain.size());
    for (std::size_t i = 0; i < single.size(); ++i) {
        EXPECT_DOUBLE_EQ(single.points()[i].value, chain.points()[i].value);
        EXPECT_NEAR(single.points()[i].prob, chain.points()[i].prob, 1e-12);
    }
}

TEST(Mixture, Weights)
{
    Pmf p = Pmf::delta(0.0).mixedWith(Pmf::delta(10.0), 0.25);
    EXPECT_NEAR(p.probOf(0.0), 0.25, 1e-12);
    EXPECT_NEAR(p.probOf(10.0), 0.75, 1e-12);
    EXPECT_NEAR(p.mean(), 7.5, 1e-12);
}

TEST(Expectation, ArbitraryFunction)
{
    Pmf p = support::uniformInt(1, 4);
    double e = p.expectation([](double v) { return v * v * v; });
    EXPECT_NEAR(e, (1 + 8 + 27 + 64) / 4.0, 1e-12);
}

TEST(Errors, EmptyAndInvalid)
{
    Pmf empty;
    EXPECT_THROW(empty.minValue(), PanicError);
    EXPECT_THROW(Pmf::fromPoints({{1.0, 0.0}}), FatalError); // zero mass
}

class MomentProperty : public ::testing::TestWithParam<double>
{};

TEST_P(MomentProperty, VarianceNonNegative)
{
    double sigma = GetParam();
    Pmf p = Pmf::quantizedGaussian(3.0, sigma, -64, 63);
    EXPECT_GE(p.variance(), -1e-9);
    EXPECT_NEAR(totalProb(p), 1.0, 1e-9);
    // Jensen: E[X^2] >= E[X]^2.
    EXPECT_GE(p.meanSquare() + 1e-12, p.mean() * p.mean());
}

INSTANTIATE_TEST_SUITE_P(Sigmas, MomentProperty,
                         ::testing::Values(0.5, 1.0, 5.0, 20.0, 100.0));

} // namespace
} // namespace cimloop::dist
