/**
 * Graceful per-layer degradation: keep-going network evaluation captures
 * failing layers as structured diagnostics and still evaluates the rest,
 * serial and parallel alike.
 */
#include "cimloop/engine/evaluate.hh"

#include <gtest/gtest.h>

#include "cimloop/common/error.hh"
#include "cimloop/macros/macros.hh"
#include "cimloop/spec/builder.hh"
#include "cimloop/workload/networks.hh"

namespace cimloop::engine {
namespace {

using macros::baseMacro;
using spec::HierarchyBuilder;
using workload::Dim;
using workload::matmulLayer;
using workload::TensorKind;

/**
 * A hierarchy that maps layers whose only data dims are P (plus the
 * IB/WB slice loops every layer carries), but no layer with a C loop
 * (greedy is fatal on those).
 */
Arch
unmappableArch()
{
    Arch arch;
    arch.name = "broken";
    arch.hierarchy =
        HierarchyBuilder("broken")
            .component("dram", "DRAM")
                .temporalReuse({TensorKind::Input, TensorKind::Weight,
                                TensorKind::Output})
                .temporalDims({Dim::P, Dim::IB, Dim::WB})
            .component("pe", "DigitalMac")
                .temporalReuse({TensorKind::Weight})
                .temporalDims({Dim::P, Dim::IB, Dim::WB})
            .build();
    return arch;
}

/** Two mappable layers around one with a C loop the arch cannot place. */
workload::Network
mixedNetwork()
{
    workload::Network net;
    net.name = "mixed";
    workload::Layer ok1 = matmulLayer("ok1", 8, 1, 1);
    workload::Layer bad = matmulLayer("bad", 2, 8, 1);
    workload::Layer ok2 = matmulLayer("ok2", 16, 1, 1);
    net.layers = {ok1, bad, ok2};
    for (std::size_t i = 0; i < net.layers.size(); ++i) {
        net.layers[i].network = net.name;
        net.layers[i].index = static_cast<int>(i);
        net.layers[i].networkLayers = 3;
    }
    return net;
}

TEST(KeepGoing, CapturesFailingLayerAndContinues)
{
    Arch arch = unmappableArch();
    workload::Network net = mixedNetwork();

    // Without keep-going the bad layer aborts the whole evaluation...
    EXPECT_THROW(evaluateNetwork(arch, net, 50, 1), cimloop::FatalError);

    // ...with it, both good layers evaluate and the bad one becomes a
    // structured diagnostic instead.
    NetworkEvaluation ev =
        evaluateNetwork(arch, net, 50, 1, {.keepGoing = true});
    EXPECT_FALSE(ev.complete());
    ASSERT_EQ(ev.diagnostics.size(), 1u);
    EXPECT_EQ(ev.diagnostics[0].layerIndex, 1u);
    EXPECT_EQ(ev.diagnostics[0].layer, "bad");
    EXPECT_EQ(ev.diagnostics[0].kind, "fatal");
    EXPECT_NE(ev.diagnostics[0].message.find("temporal loop over C"),
              std::string::npos)
        << ev.diagnostics[0].message;

    // The layers vector stays parallel to network.layers; the failed
    // slot is default-constructed and excluded from the totals.
    ASSERT_EQ(ev.layers.size(), 3u);
    EXPECT_TRUE(ev.layers[0].best.valid);
    EXPECT_FALSE(ev.layers[1].best.valid);
    EXPECT_TRUE(ev.layers[2].best.valid);
    EXPECT_DOUBLE_EQ(ev.energyPj, ev.layers[0].best.energyPj +
                                      ev.layers[2].best.energyPj);
    EXPECT_GT(ev.energyPj, 0.0);
}

TEST(KeepGoing, ParallelMatchesSerial)
{
    Arch arch = unmappableArch();
    workload::Network net = mixedNetwork();
    NetworkEvaluation serial =
        evaluateNetwork(arch, net, 50, 1, {.keepGoing = true});
    for (int threads : {2, 8}) {
        NetworkEvaluation parallel = evaluateNetwork(
            arch, net, 50, 1, {.threads = threads, .keepGoing = true});
        SCOPED_TRACE(threads);
        ASSERT_EQ(parallel.diagnostics.size(), serial.diagnostics.size());
        EXPECT_EQ(parallel.diagnostics[0].layer,
                  serial.diagnostics[0].layer);
        EXPECT_EQ(parallel.diagnostics[0].kind,
                  serial.diagnostics[0].kind);
        EXPECT_DOUBLE_EQ(parallel.energyPj, serial.energyPj);
        EXPECT_DOUBLE_EQ(parallel.latencyNs, serial.latencyNs);
    }
}

TEST(KeepGoing, AllLayersFailingStillCompletes)
{
    Arch arch = unmappableArch();
    workload::Network net;
    net.name = "all-broken";
    for (int i = 0; i < 3; ++i) {
        workload::Layer l = matmulLayer("mm", 2, 8, 1);
        l.network = net.name;
        l.index = i;
        l.networkLayers = 3;
        net.layers.push_back(l);
    }
    NetworkEvaluation ev =
        evaluateNetwork(arch, net, 50, 1, {.threads = 4, .keepGoing = true});
    EXPECT_EQ(ev.diagnostics.size(), 3u);
    // Diagnostics arrive in ascending layer order even from the pool.
    for (std::size_t i = 0; i < ev.diagnostics.size(); ++i)
        EXPECT_EQ(ev.diagnostics[i].layerIndex, i);
    EXPECT_DOUBLE_EQ(ev.energyPj, 0.0);
    EXPECT_DOUBLE_EQ(ev.macs, 0.0);
}

TEST(KeepGoing, NoFailuresMatchesStrictModeBitExactly)
{
    Arch arch = baseMacro();
    workload::Network net = workload::resnet18();
    net.layers.resize(3);
    NetworkEvaluation strict =
        evaluateNetwork(arch, net, 40, 7, {.threads = 4});
    NetworkEvaluation lenient =
        evaluateNetwork(arch, net, 40, 7, {.threads = 4, .keepGoing = true});
    EXPECT_TRUE(lenient.complete());
    EXPECT_DOUBLE_EQ(strict.energyPj, lenient.energyPj);
    EXPECT_DOUBLE_EQ(strict.latencyNs, lenient.latencyNs);
    ASSERT_EQ(strict.layers.size(), lenient.layers.size());
    for (std::size_t i = 0; i < strict.layers.size(); ++i) {
        EXPECT_TRUE(strict.layers[i].bestMapping ==
                    lenient.layers[i].bestMapping)
            << "layer " << i;
    }
}

} // namespace
} // namespace cimloop::engine
