#include "cimloop/workload/layer.hh"

#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "cimloop/common/error.hh"
#include "cimloop/yaml/parser.hh"
#include "support/scratch.hh"

namespace cimloop::workload {
namespace {

TEST(LayerYaml, FullForm)
{
    yaml::Node n = yaml::parse(
        "name: conv3_1a\n"
        "dims: {C: 64, K: 128, P: 28, Q: 28, R: 3, S: 3}\n"
        "input_bits: 6\n"
        "weight_bits: 4\n"
        "count: 2\n");
    Layer l = layerFromYaml(n);
    EXPECT_EQ(l.name, "conv3_1a");
    EXPECT_EQ(l.size(Dim::C), 64);
    EXPECT_EQ(l.size(Dim::K), 128);
    EXPECT_EQ(l.size(Dim::N), 1); // unlisted defaults to 1
    EXPECT_EQ(l.inputBits, 6);
    EXPECT_EQ(l.weightBits, 4);
    EXPECT_EQ(l.count, 2);
    EXPECT_EQ(l.macs(), 64LL * 128 * 28 * 28 * 3 * 3);
}

TEST(LayerYaml, Errors)
{
    EXPECT_THROW(layerFromYaml(yaml::parse("dims: {C: 4}\n")),
                 FatalError); // no name
    EXPECT_THROW(
        layerFromYaml(yaml::parse("name: x\ndims: {Z: 4}\n")),
        FatalError); // unknown dim
    EXPECT_THROW(
        layerFromYaml(yaml::parse("name: x\ndims: {C: 0}\n")),
        FatalError); // non-positive extent
    EXPECT_THROW(
        layerFromYaml(yaml::parse("name: x\nstride: 2\n")),
        FatalError); // unknown key
    EXPECT_THROW(
        layerFromYaml(yaml::parse("name: x\ncount: 0\n")),
        FatalError);
}

TEST(LayerYaml, BitWidthsOutsideOneToSixteenNameTheKey)
{
    auto message = [](const std::string& text) -> std::string {
        try {
            networkFromYaml(yaml::parse(text));
        } catch (const FatalError& e) {
            return e.what();
        }
        return "accepted";
    };
    const std::string head = "name: w\nlayers:\n  - name: l0\n"
                             "    dims: {C: 4}\n";
    EXPECT_NE(message(head + "    input_bits: 40\n")
                  .find("workload.layers[0].input_bits must be in "
                        "[1, 16], got 40"),
              std::string::npos);
    EXPECT_NE(message(head + "    weight_bits: 0\n")
                  .find("workload.layers[0].weight_bits must be in "
                        "[1, 16], got 0"),
              std::string::npos);
    EXPECT_NE(message(head + "    weight_bits: 17\n")
                  .find("workload.layers[0].weight_bits"),
              std::string::npos);
    // output_bits never changed a result (the architecture sets the
    // output width), so it is no longer a layer key.
    EXPECT_NE(message(head + "    output_bits: 8\n")
                  .find("unknown key 'output_bits'"),
              std::string::npos);
    EXPECT_EQ(message(head + "    input_bits: 16\n    weight_bits: 1\n"),
              "accepted");
}

TEST(NetworkYaml, Document)
{
    yaml::Node doc = yaml::parse(
        "name: tiny\n"
        "layers:\n"
        "  - {name: l0, dims: {C: 16, K: 16, P: 8, Q: 8}}\n"
        "  - name: fc\n"
        "    dims: {C: 64, K: 10, P: 1}\n"
        "    count: 3\n");
    Network net = networkFromYaml(doc);
    EXPECT_EQ(net.name, "tiny");
    ASSERT_EQ(net.layers.size(), 2u);
    EXPECT_EQ(net.layers[0].network, "tiny");
    EXPECT_EQ(net.layers[0].index, 0);
    EXPECT_EQ(net.layers[1].index, 1);
    EXPECT_EQ(net.layers[1].networkLayers, 2);
    EXPECT_EQ(net.layers[1].count, 3);
    EXPECT_EQ(net.totalMacs(),
              16LL * 16 * 8 * 8 + 3LL * 64 * 10);
}

TEST(NetworkYaml, Errors)
{
    EXPECT_THROW(networkFromYaml(yaml::parse("name: empty\n")),
                 FatalError);
    EXPECT_THROW(networkFromYaml(yaml::parse(
                     "name: empty\nlayers: []\n")),
                 FatalError);
    EXPECT_THROW(networkFromYaml(yaml::parse(
                     "name: bad\nlayers: 3\n")),
                 FatalError);
}

TEST(NetworkYaml, FileRoundTrip)
{
    const std::string path = support::scratchPath("net.yaml");
    {
        std::ofstream out(path);
        out << "name: filed\nlayers:\n"
               "  - {name: only, dims: {C: 8, K: 8, P: 4}}\n";
    }
    Network net = networkFromFile(path);
    EXPECT_EQ(net.name, "filed");
    EXPECT_EQ(net.layers[0].macs(), 8LL * 8 * 4);
    EXPECT_THROW(networkFromFile("/nonexistent/net.yaml"), FatalError);
}

} // namespace
} // namespace cimloop::workload
