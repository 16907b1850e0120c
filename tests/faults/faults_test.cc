/**
 * FaultModel spec parsing / validation and the analytic PMF
 * perturbations (stuck-at atoms, mean-preserving variance inflation,
 * ADC offset/noise) that mirror the value-level injection.
 */
#include "cimloop/faults/faults.hh"

#include <cmath>

#include <gtest/gtest.h>

#include "cimloop/common/error.hh"
#include "cimloop/yaml/parser.hh"
#include "support/pmf.hh"

namespace cimloop::faults {
namespace {

using dist::Pmf;

/** Runs f, expecting a FatalError whose message contains @p needle. */
template <typename F>
void
expectFatalContaining(F f, const std::string& needle)
{
    try {
        f();
        FAIL() << "expected FatalError mentioning '" << needle << "'";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "message was: " << e.what();
    }
}

TEST(FaultSpec, DefaultIsDisabled)
{
    FaultModel m;
    EXPECT_FALSE(m.enabled());
    EXPECT_FALSE(m.cellFaultsEnabled());
    EXPECT_FALSE(m.adcFaultsEnabled());
    EXPECT_NO_THROW(m.validate());
    EXPECT_DOUBLE_EQ(m.survivorRate(), 1.0);
    EXPECT_DOUBLE_EQ(m.varianceFactor(), 1.0);
}

TEST(FaultSpec, ParsesBareMapping)
{
    FaultModel m = FaultModel::fromYaml(yaml::parse(
        "stuck_off_rate: 0.01\n"
        "stuck_on_rate: 0.002\n"
        "conductance_sigma: 0.15\n"
        "adc_offset: 0.02\n"
        "adc_noise_sigma: 0.01\n"
        "seed: 7\n"));
    EXPECT_DOUBLE_EQ(m.stuckOffRate, 0.01);
    EXPECT_DOUBLE_EQ(m.stuckOnRate, 0.002);
    EXPECT_DOUBLE_EQ(m.conductanceSigma, 0.15);
    EXPECT_DOUBLE_EQ(m.adcOffset, 0.02);
    EXPECT_DOUBLE_EQ(m.adcNoiseSigma, 0.01);
    EXPECT_EQ(m.seed, 7u);
    EXPECT_TRUE(m.enabled());
    EXPECT_TRUE(m.cellFaultsEnabled());
    EXPECT_TRUE(m.adcFaultsEnabled());
}

TEST(FaultSpec, ParsesDocumentWithFaultsKey)
{
    FaultModel m = FaultModel::fromYaml(yaml::parse(
        "faults:\n"
        "  conductance_sigma: 0.3\n"));
    EXPECT_DOUBLE_EQ(m.conductanceSigma, 0.3);
    EXPECT_TRUE(m.cellFaultsEnabled());
    EXPECT_FALSE(m.adcFaultsEnabled());
}

TEST(FaultSpec, ValidationNamesTheOffendingKey)
{
    expectFatalContaining(
        [] {
            FaultModel m;
            m.stuckOffRate = 1.5;
            m.validate();
        },
        "faults.stuck_off_rate");
    expectFatalContaining(
        [] {
            FaultModel m;
            m.stuckOnRate = -0.1;
            m.validate();
        },
        "faults.stuck_on_rate");
    expectFatalContaining(
        [] {
            FaultModel m;
            m.stuckOffRate = 0.7;
            m.stuckOnRate = 0.7;
            m.validate();
        },
        "must not exceed 1");
    expectFatalContaining(
        [] {
            FaultModel m;
            m.conductanceSigma = 0.9;
            m.validate();
        },
        "faults.conductance_sigma");
    expectFatalContaining(
        [] {
            FaultModel m;
            m.adcOffset = 1.2;
            m.validate();
        },
        "faults.adc_offset");
    expectFatalContaining(
        [] {
            FaultModel m;
            m.adcNoiseSigma = -0.5;
            m.validate();
        },
        "faults.adc_noise_sigma");
}

TEST(FaultSpec, YamlErrors)
{
    expectFatalContaining(
        [] { FaultModel::fromYaml(yaml::parse("typo_rate: 0.1\n")); },
        "unknown fault spec key 'faults.typo_rate'");
    expectFatalContaining(
        [] { FaultModel::fromYaml(yaml::parse("seed: -3\n")); },
        "faults.seed must be >= 0");
    // Out-of-range values fail through validate() with the key named.
    expectFatalContaining(
        [] {
            FaultModel::fromYaml(yaml::parse("conductance_sigma: 2\n"));
        },
        "faults.conductance_sigma");
    EXPECT_THROW(FaultModel::fromFile("/nonexistent/faults.yaml"),
                 FatalError);
}

TEST(FaultSeed, MixesLayerIdentity)
{
    FaultModel m;
    m.seed = 5;
    std::uint64_t a = layerFaultSeed(m, "conv1", 0);
    EXPECT_EQ(a, layerFaultSeed(m, "conv1", 0)); // reproducible
    EXPECT_NE(a, layerFaultSeed(m, "conv2", 0)); // name matters
    EXPECT_NE(a, layerFaultSeed(m, "conv1", 1)); // index matters
    m.seed = 6;
    EXPECT_NE(a, layerFaultSeed(m, "conv1", 0)); // model seed matters
}

TEST(Perturb, ConductancesDeterministicPerCell)
{
    FaultModel m;
    m.stuckOffRate = 0.1;
    m.stuckOnRate = 0.05;
    m.conductanceSigma = 0.3;
    std::vector<double> a(512, 0.5), b(512, 0.5);
    perturbConductances(m, 99, a);
    perturbConductances(m, 99, b);
    EXPECT_EQ(a, b); // same seed -> identical pattern
    std::vector<double> c(512, 0.5);
    perturbConductances(m, 100, c);
    EXPECT_NE(a, c); // different fault seed -> different pattern

    // The pattern of cell i depends only on (model, seed, i): a prefix
    // of the array perturbs identically regardless of array length.
    std::vector<double> prefix(64, 0.5);
    perturbConductances(m, 99, prefix);
    for (std::size_t i = 0; i < prefix.size(); ++i)
        EXPECT_DOUBLE_EQ(prefix[i], a[i]) << "cell " << i;
}

TEST(Perturb, ConductancesRealizeStuckRates)
{
    FaultModel m;
    m.stuckOffRate = 0.2;
    m.stuckOnRate = 0.1;
    std::vector<double> g(20000, 0.5);
    perturbConductances(m, 7, g);
    std::size_t off = 0, on = 0;
    for (double v : g) {
        off += v == 0.0;
        on += v == 1.0;
    }
    EXPECT_NEAR(static_cast<double>(off) / g.size(), 0.2, 0.02);
    EXPECT_NEAR(static_cast<double>(on) / g.size(), 0.1, 0.02);
}

TEST(Perturb, VariationIsMeanPreserving)
{
    FaultModel m;
    m.conductanceSigma = 0.4;
    std::vector<double> g(200000, 0.5);
    perturbConductances(m, 3, g);
    double sum = 0.0, sum2 = 0.0;
    for (double v : g) {
        sum += v;
        sum2 += v * v;
    }
    double mean = sum / g.size();
    double mean2 = sum2 / g.size();
    // E[g'] = g and E[g'^2] = g^2 * exp(sigma^2) by construction.
    EXPECT_NEAR(mean, 0.5, 0.005);
    EXPECT_NEAR(mean2, 0.25 * m.varianceFactor(), 0.01);
}

TEST(Pmf, CellLevelsMatchLognormalMoments)
{
    FaultModel m;
    m.conductanceSigma = 0.5;
    Pmf levels = support::uniformInt(0, 3);
    Pmf out = perturbedCellLevels(m, levels, 3.0);
    // Variation alone: exact first moment, second moment * exp(sigma^2).
    EXPECT_NEAR(out.mean(), levels.mean(), 1e-12);
    EXPECT_NEAR(out.meanSquare(),
                levels.meanSquare() * m.varianceFactor(), 1e-9);
}

TEST(Pmf, CellLevelsCarryStuckAtoms)
{
    FaultModel m;
    m.stuckOffRate = 0.25;
    m.stuckOnRate = 0.125;
    Pmf levels = Pmf::delta(2.0);
    Pmf out = perturbedCellLevels(m, levels, 3.0);
    EXPECT_NEAR(out.probOf(0.0), 0.25, 1e-12);
    EXPECT_NEAR(out.probOf(3.0), 0.125, 1e-12);
    EXPECT_NEAR(out.probOf(2.0), 1.0 - 0.25 - 0.125, 1e-12);
    // Mixture mean: survivors * 2 + stuck-on * 3.
    EXPECT_NEAR(out.mean(), 0.625 * 2.0 + 0.125 * 3.0, 1e-12);
}

TEST(Pmf, CellCodesStayOnTheLattice)
{
    FaultModel m;
    m.stuckOffRate = 0.05;
    m.stuckOnRate = 0.05;
    m.conductanceSigma = 0.6;
    Pmf codes = support::uniformInt(0, 15);
    Pmf out = perturbedCellCodes(m, codes, 15.0);
    double total = 0.0;
    for (const Pmf::Point& pt : out.points()) {
        EXPECT_DOUBLE_EQ(pt.value, std::round(pt.value));
        EXPECT_GE(pt.value, 0.0);
        EXPECT_LE(pt.value, 15.0);
        total += pt.prob;
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Pmf, AdcCodesShiftAndSpread)
{
    FaultModel m;
    m.adcOffset = 0.25;
    Pmf codes = support::uniformInt(4, 12);
    Pmf shifted = perturbedAdcCodes(m, codes, 16.0);
    // Pure offset: every code moves by offset * max_code = 4.
    EXPECT_NEAR(shifted.mean(), codes.mean() + 4.0, 1e-12);

    m.adcOffset = 0.0;
    m.adcNoiseSigma = 0.125;
    Pmf noisy = perturbedAdcCodes(m, codes, 16.0);
    // Symmetric +/- 2 kick away from the clamp edges: mean unchanged,
    // variance grows by kick^2.
    EXPECT_NEAR(noisy.mean(), codes.mean(), 1e-12);
    EXPECT_NEAR(noisy.variance(), codes.variance() + 4.0, 1e-9);

    // Disabled model passes the PMF through untouched.
    FaultModel off;
    Pmf same = perturbedAdcCodes(off, codes, 16.0);
    EXPECT_NEAR(same.mean(), codes.mean(), 0.0);
    EXPECT_EQ(same.size(), codes.size());
}

} // namespace
} // namespace cimloop::faults
