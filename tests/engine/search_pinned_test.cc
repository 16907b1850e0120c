/**
 * Pins the mapping-search inner loop: the mapper's draws, its check()
 * verdicts, nest analysis and evaluate() for fixed (macro, layer) pairs.
 *
 * Each digest hashes, for 16 shards x 40 draws of
 * Mapper::next(Rng::forStream(7, shard), rejected): the mapping's YAML,
 * the running `rejected` count, evaluate()'s verdict, reason and the bit
 * patterns of its energy and latency, and for valid mappings every
 * per-node TensorCounts field plus the used/total instance counts; after
 * a shard's draws, the next raw value of its stream (so the number of
 * RNG draws is pinned too). The constants were recorded before the
 * search loop was compiled into a per-layer plan; any change to what the
 * search samples, accepts or counts moves them.
 */
#include "cimloop/engine/evaluate.hh"

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "cimloop/common/parallel.hh"
#include "cimloop/common/util.hh"
#include "cimloop/macros/macros.hh"
#include "cimloop/mapping/nest.hh"
#include "cimloop/spec/builder.hh"
#include "cimloop/workload/networks.hh"

namespace cimloop::engine {
namespace {

using mapping::Mapper;
using mapping::Mapping;
using spec::HierarchyBuilder;
using workload::Dim;
using workload::dimIndex;
using workload::matmulLayer;
using workload::TensorKind;

constexpr int kShards = 16;
constexpr int kDraws = 40;

/** Streaming FNV-1a over the values a digest covers. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    bytes(const void* p, std::size_t n)
    {
        const unsigned char* c = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= c[i];
            h *= 0x100000001b3ull;
        }
    }
    void text(const std::string& s)
    {
        std::uint64_t n = s.size();
        bytes(&n, sizeof n);
        bytes(s.data(), s.size());
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
};

/** The same five-node macro as exhaustive_test's tinyMacro(). */
spec::Hierarchy
tinyMacro()
{
    return HierarchyBuilder("tiny")
        .component("buffer", "SRAM")
            .temporalReuse({TensorKind::Input, TensorKind::Output})
        .component("dac", "DAC")
            .noCoalesce({TensorKind::Input})
        .container("col")
            .spatial(2, 1)
            .spatialReuse({TensorKind::Input})
            .spatialDims({Dim::K, Dim::WB})
        .component("adc", "ADC")
            .noCoalesce({TensorKind::Output})
        .component("cells", "ReRAMCell")
            .spatial(1, 2)
            .temporalReuse({TensorKind::Weight})
            .spatialReuse({TensorKind::Output})
            .spatialDims({Dim::C})
        .build();
}

/** Digest of one shard's draws (see the file comment). */
std::uint64_t
shardDigest(const Arch& arch, const PerActionTable& table,
            const Mapper& mapper, int shard)
{
    Digest d;
    Rng rng = Rng::forStream(7, static_cast<std::uint64_t>(shard));
    int rejected = 0;
    for (int i = 0; i < kDraws; ++i) {
        std::optional<Mapping> m = mapper.next(rng, rejected);
        d.u64(static_cast<std::uint64_t>(rejected));
        d.u64(m ? 1 : 0);
        if (!m)
            continue;
        d.text(m->toYamlText(arch.hierarchy));
        Evaluation ev = evaluate(arch, table, *m);
        d.u64(ev.valid ? 1 : 0);
        d.text(ev.invalidReason);
        d.f64(ev.energyPj);
        d.f64(ev.latencyNs);
        mapping::NestResult nest =
            mapping::analyzeNest(arch.hierarchy, *m, table.extLayer);
        d.u64(nest.valid ? 1 : 0);
        d.text(nest.invalidReason);
        if (!nest.valid)
            continue;
        for (const mapping::NodeCounts& n : nest.nodes) {
            for (const mapping::TensorCounts& tc : n.tensors) {
                d.f64(tc.reads);
                d.f64(tc.fills);
                d.f64(tc.actions);
                d.u64(static_cast<std::uint64_t>(tc.tile));
            }
            d.u64(static_cast<std::uint64_t>(n.usedInstances));
            d.u64(static_cast<std::uint64_t>(n.totalInstances));
        }
    }
    d.u64(rng.next());
    return d.h;
}

/** Hex digest over all shards, run on @p threads workers. */
std::string
searchDigest(const Arch& arch, const workload::Layer& layer, int threads = 1)
{
    PerActionTable table = precompute(arch, layer);
    const Mapper mapper(arch.hierarchy, table.extLayer);
    std::vector<std::uint64_t> shards(kShards);
    parallelFor(threads, shards.size(), [&](std::size_t s) {
        shards[s] = shardDigest(arch, table, mapper, static_cast<int>(s));
    });
    Digest d;
    for (std::uint64_t h : shards)
        d.u64(h);
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016" PRIx64, d.h);
    return hex;
}

workload::Layer
resnetLayer(std::size_t i)
{
    return workload::resnet18().layers.at(i);
}

workload::Layer
gpt2Layer()
{
    return workload::gpt2Small().layers.at(0);
}

workload::Layer
tinyLayer()
{
    workload::Layer layer = matmulLayer("mm", 2, 4, 2);
    layer.network = "mvm";
    layer.inputBits = 2;
    layer.weightBits = 2;
    return layer;
}

/** resnet18 layers 0 (conv1), 1 (conv2_1a), 7 (conv3_ds, 1x1) and 20
 *  (fc). */
constexpr std::size_t kResnetLayers[] = {0, 1, 7, 20};

TEST(SearchPinned, BaseMacro)
{
    Arch arch = macros::baseMacro();
    const char* expected[] = {"a9170dc81607cde9", "d2dffb98d90c9c69",
                              "827880d8cb91a94a", "50c31b8097818ecf"};
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(searchDigest(arch, resnetLayer(kResnetLayers[i])),
                  expected[i])
            << "resnet18 layer " << kResnetLayers[i];
    }
    EXPECT_EQ(searchDigest(arch, gpt2Layer()), "c5bfcec257d16791");
}

TEST(SearchPinned, MacroC)
{
    Arch arch = macros::macroC();
    const char* expected[] = {"d6ab55e5a4a7b1a3", "6893809fd057483a",
                              "e08a21902714f180", "1c56e1643a0bee44"};
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(searchDigest(arch, resnetLayer(kResnetLayers[i])),
                  expected[i])
            << "resnet18 layer " << kResnetLayers[i];
    }
    EXPECT_EQ(searchDigest(arch, gpt2Layer()), "8217aa66f3257025");
}

TEST(SearchPinned, TinyMacro)
{
    Arch arch;
    arch.name = "tiny";
    arch.hierarchy = tinyMacro();
    EXPECT_EQ(searchDigest(arch, tinyLayer()), "6289b52df3009a0b");
}

/** The shards share one Mapper read-only; the digest must not depend on
 *  how they are scheduled (this one also runs under TSan). */
TEST(SearchPinned, ShardsOnFourThreadsMatch)
{
    Arch arch = macros::baseMacro();
    EXPECT_EQ(searchDigest(arch, resnetLayer(1), 4),
              searchDigest(arch, resnetLayer(1), 1));
    Arch tiny;
    tiny.hierarchy = tinyMacro();
    EXPECT_EQ(searchDigest(tiny, tinyLayer(), 4),
              searchDigest(tiny, tinyLayer(), 1));
}

/** Sets one dim's temporal factor at one level. */
void
temporal(Mapping& m, int level, Dim d, std::int64_t f)
{
    m.levels[level].temporal[dimIndex(d)] = f;
}

void
spatial(Mapping& m, int level, Dim d, std::int64_t f)
{
    m.levels[level].spatial[dimIndex(d)] = f;
}

/** A valid mapping of tinyLayer()'s extents (P2 C4 K2) on tinyMacro(),
 *  everything temporal at the buffer. */
Mapping
tinyValid(const spec::Hierarchy& h)
{
    Mapping m = Mapping::identity(h);
    temporal(m, 0, Dim::P, 2);
    temporal(m, 0, Dim::C, 4);
    temporal(m, 0, Dim::K, 2);
    return m;
}

TEST(SearchPinned, CheckTextPerViolationKind)
{
    spec::Hierarchy h = tinyMacro();
    workload::Layer layer = tinyLayer();
    ASSERT_EQ(tinyValid(h).check(h, layer), "");

    Mapping short_m;
    short_m.levels.resize(3);
    EXPECT_EQ(short_m.check(h, layer),
              "mapping has 3 levels but hierarchy 'tiny' has 5 nodes");

    EXPECT_EQ(Mapping::identity(h).check(h, layer),
              "dimension C: factors multiply to 1 but layer has extent 4");

    Mapping negative = tinyValid(h);
    temporal(negative, 0, Dim::N, -1);
    temporal(negative, 4, Dim::N, -1);
    EXPECT_EQ(negative.check(h, layer),
              "node 'buffer': non-positive factor for N");

    Mapping fanout = tinyValid(h);
    temporal(fanout, 0, Dim::C, 1);
    spatial(fanout, 4, Dim::C, 4);
    EXPECT_EQ(fanout.check(h, layer),
              "node 'cells': spatial factors use 4 instances but the mesh "
              "has only 2");

    Mapping spatial_dims = tinyValid(h);
    temporal(spatial_dims, 0, Dim::P, 1);
    spatial(spatial_dims, 2, Dim::P, 2);
    EXPECT_EQ(spatial_dims.check(h, layer),
              "node 'col': dimension P is not in the node's spatial_dims "
              "constraint");

    spec::Hierarchy constrained = HierarchyBuilder("constrained")
        .component("dram", "DRAM")
            .temporalReuse({TensorKind::Input, TensorKind::Weight,
                            TensorKind::Output})
        .container("lanes")
            .spatial(4, 1)
            .spatialReuse({TensorKind::Input})
        .component("reg", "SRAM")
            .temporalReuse({TensorKind::Output})
            .temporalDims({Dim::IB})
        .component("pe", "DigitalMac")
            .temporalReuse({TensorKind::Weight})
        .build();
    Mapping temporal_dims = tinyValid(constrained);
    temporal(temporal_dims, 0, Dim::C, 2);
    temporal(temporal_dims, 2, Dim::C, 2);
    EXPECT_EQ(temporal_dims.check(constrained, layer),
              "node 'reg': dimension C is not in the node's temporal_dims "
              "constraint");

    Mapping wire = tinyValid(constrained);
    temporal(wire, 0, Dim::C, 1);
    spatial(wire, 1, Dim::C, 4);
    EXPECT_EQ(wire.check(constrained, layer),
              "node 'lanes': Inputs is spatially reused (shared wire) but C "
              "would put distinct data on the wire");
}

TEST(SearchPinned, CapacityText)
{
    spec::Hierarchy h = HierarchyBuilder("tiny")
        .component("buffer", "SRAM")
            .temporalReuse({TensorKind::Input, TensorKind::Output})
            .attr("entries", std::int64_t{4})
        .component("dac", "DAC")
            .noCoalesce({TensorKind::Input})
        .container("col")
            .spatial(2, 1)
            .spatialReuse({TensorKind::Input})
            .spatialDims({Dim::K, Dim::WB})
        .component("adc", "ADC")
            .noCoalesce({TensorKind::Output})
        .component("cells", "ReRAMCell")
            .spatial(1, 2)
            .temporalReuse({TensorKind::Weight})
            .spatialReuse({TensorKind::Output})
            .spatialDims({Dim::C})
        .build();
    workload::Layer layer = tinyLayer();

    // Buffer tile: Inputs N1 C4 P2 = 8 plus Outputs K2 P2 = 4.
    Mapping m = Mapping::identity(h);
    spatial(m, 2, Dim::K, 2);
    spatial(m, 4, Dim::C, 2);
    temporal(m, 4, Dim::C, 2);
    temporal(m, 4, Dim::P, 2);
    ASSERT_EQ(m.check(h, layer), "");
    mapping::NestResult nest = mapping::analyzeNest(h, m, layer);
    EXPECT_FALSE(nest.valid);
    EXPECT_EQ(nest.invalidReason,
              "node 'buffer': tile of 12 entries exceeds capacity 4");

    // Everything at the buffer: tiles of 1 each fit.
    EXPECT_TRUE(mapping::analyzeNest(h, tinyValid(h), layer).valid);
}

} // namespace
} // namespace cimloop::engine
