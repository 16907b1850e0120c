/**
 * Multi-fidelity distributions (paper Sec. III-D1): users may trade
 * distribution fidelity for profiling effort. Low fidelity = a uniform
 * guess over the operand range; moderate = the closed-form synthetic
 * per-layer profile; high = the empirical PMFs recorded from the actual
 * (value-level) tensors. Estimates must improve with fidelity.
 */
#include "cimloop/refsim/refsim.hh"

#include <cmath>

#include <gtest/gtest.h>

#include "cimloop/dist/operands.hh"
#include "cimloop/workload/networks.hh"
#include "support/pmf.hh"

namespace cimloop::refsim {
namespace {

TEST(Fidelity, ErrorShrinksWithDistributionQuality)
{
    RefSimConfig cfg;
    cfg.rows = 64;
    cfg.cols = 64;
    cfg.maxVectors = 24;

    workload::Network net = workload::resnet18();
    double low_sum = 0.0, mid_sum = 0.0, high_sum = 0.0;
    int count = 0;
    for (int idx : {4, 9, 15}) {
        workload::Layer l = net.layers[idx];
        l.dims[workload::dimIndex(workload::Dim::P)] = 4;
        l.dims[workload::dimIndex(workload::Dim::Q)] = 4;

        dist::OperandProfile recorded;
        double truth = simulateValueLevel(cfg, l, &recorded).totalPj();

        // Low fidelity: uniform guesses over the representable ranges.
        dist::OperandProfile low;
        low.inputs = support::uniformInt(0, 127);
        low.weights = support::uniformInt(-128, 127);
        low.outputs = support::uniformInt(-128, 127);

        // Moderate fidelity: the closed-form synthetic profile.
        dist::OperandProfile mid = dist::synthesizeOperands(
            l.network, l.index, l.networkLayers, cfg.inputBits,
            cfg.weightBits);

        double low_err = std::abs(
            estimateStatistical(cfg, l, low).totalPj() - truth) / truth;
        double mid_err = std::abs(
            estimateStatistical(cfg, l, mid).totalPj() - truth) / truth;
        double high_err = std::abs(
            estimateStatistical(cfg, l, recorded).totalPj() - truth) /
            truth;
        low_sum += low_err;
        mid_sum += mid_err;
        high_sum += high_err;
        ++count;
    }
    double low = low_sum / count, mid = mid_sum / count,
           high = high_sum / count;
    // Recorded (high-fidelity) distributions beat both cheaper tiers,
    // and the uniform guess is the worst.
    EXPECT_LT(high, mid);
    EXPECT_LT(mid, low);
    EXPECT_LT(high, 0.05);
    EXPECT_GT(low, 0.20);
}

TEST(Correlation, ZeroContrastMakesOperandsIndependent)
{
    // With contrastStd = 0 the statistical estimate converges to truth
    // (only CLT + sampling noise remains).
    RefSimConfig cfg;
    cfg.rows = 64;
    cfg.cols = 64;
    cfg.maxVectors = 32;
    cfg.contrastStd = 0.0;
    workload::Layer l = workload::resnet18().layers[6];
    l.dims[workload::dimIndex(workload::Dim::P)] = 4;
    l.dims[workload::dimIndex(workload::Dim::Q)] = 4;

    dist::OperandProfile prof;
    double truth = simulateValueLevel(cfg, l, &prof).totalPj();
    double stat = estimateStatistical(cfg, l, prof).totalPj();
    EXPECT_NEAR(stat / truth, 1.0, 0.03);
}

TEST(Correlation, StrongerContrastWidensValueSpread)
{
    RefSimConfig cfg;
    cfg.rows = 32;
    cfg.cols = 32;
    cfg.maxVectors = 32;
    workload::Layer l = workload::resnet18().layers[6];
    l.dims[workload::dimIndex(workload::Dim::P)] = 4;
    l.dims[workload::dimIndex(workload::Dim::Q)] = 4;

    cfg.contrastStd = 0.0;
    dist::OperandProfile tight;
    simulateValueLevel(cfg, l, &tight);
    cfg.contrastStd = 1.0;
    dist::OperandProfile wide;
    simulateValueLevel(cfg, l, &wide);
    EXPECT_GT(wide.inputs.variance(), tight.inputs.variance());
}

} // namespace
} // namespace cimloop::refsim
