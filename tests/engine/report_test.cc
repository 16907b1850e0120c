#include "cimloop/engine/evaluate.hh"

#include <gtest/gtest.h>

#include "cimloop/macros/macros.hh"
#include "cimloop/workload/networks.hh"

namespace cimloop::engine {
namespace {

TEST(Report, ListsComponentsAndTotals)
{
    Arch arch = macros::baseMacro();
    workload::Layer layer = workload::matmulLayer("mvm", 32, 128, 128);
    layer.network = "mvm";
    SearchResult sr = searchMappings(arch, layer, 40, 1);
    std::string report = formatReport(arch, sr.best);
    for (const char* expected :
         {"buffer", "dac_bank", "adc", "cells", "total:", "TOPS/W"}) {
        EXPECT_NE(report.find(expected), std::string::npos) << expected;
    }
    // Free containers are suppressed.
    EXPECT_EQ(report.find("column "), std::string::npos);
}

TEST(Report, InvalidEvaluationSaysWhy)
{
    Arch arch = macros::baseMacro();
    Evaluation bad;
    bad.invalidReason = "factor mismatch somewhere";
    std::string report = formatReport(arch, bad);
    EXPECT_NE(report.find("factor mismatch"), std::string::npos);
}

TEST(Parallel, MatchesSequentialForSameSeed)
{
    Arch arch = macros::baseMacro();
    workload::Network net = workload::mobileNetV3();
    net.layers.resize(6); // keep the test quick
    for (std::size_t i = 0; i < net.layers.size(); ++i)
        net.layers[i].networkLayers = 6;
    NetworkEvaluation seq = evaluateNetwork(arch, net, 40, 9);
    NetworkEvaluation par =
        evaluateNetwork(arch, net, 40, 9, {.threads = 4});
    ASSERT_EQ(par.layers.size(), seq.layers.size());
    EXPECT_DOUBLE_EQ(par.energyPj, seq.energyPj);
    EXPECT_DOUBLE_EQ(par.latencyNs, seq.latencyNs);
    EXPECT_DOUBLE_EQ(par.macs, seq.macs);
    for (std::size_t i = 0; i < seq.layers.size(); ++i) {
        EXPECT_DOUBLE_EQ(par.layers[i].best.energyPj,
                         seq.layers[i].best.energyPj)
            << net.layers[i].name;
    }
}

} // namespace
} // namespace cimloop::engine
