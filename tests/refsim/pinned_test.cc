/**
 * Pins the value-level walk: every RefSimResult field, the recorded
 * operand profile and the refsim/fault counters, for fixed (config,
 * layer) pairs.
 *
 * Each digest hashes, per layer: the bit patterns of every RefSimResult
 * field, every point (value and probability bits) of the recorded input,
 * weight and output PMFs plus the recorded input sparsity; then every
 * nonzero `refsim.*` and `faults.cells.*` counter (name and value) after
 * the whole set ran. Any change to what the walk draws, sums, counts or
 * prices (cimloop/models/physics.hh) moves them. Each config runs at 1
 * and 4 threads against the same constant.
 *
 * The BinaryPath* cases also digest the `dist.pmf.from_points.*`
 * counters, which pin whether each recorded profile took the lattice or
 * the fallback merge.
 */
#include "cimloop/refsim/refsim.hh"

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "cimloop/obs/obs.hh"
#include "cimloop/workload/networks.hh"

namespace cimloop::refsim {
namespace {

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

    void
    pmf(const dist::Pmf& p)
    {
        u64(p.points().size());
        for (const dist::Pmf::Point& pt : p.points()) {
            f64(pt.value);
            f64(pt.prob);
        }
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
        return buf;
    }
};

/** perfbench's refsim_fig6 config (seed 1 maps to refsim seed 2). */
RefSimConfig
benchConfig()
{
    RefSimConfig c;
    c.rows = 128;
    c.cols = 128;
    c.adcBits = 5;
    c.maxVectors = 2;
    c.seed = 2;
    return c;
}

/** resnet18 layer @p index with P and Q clamped to 7, as perfbench. */
workload::Layer
resnetLayer(int index)
{
    workload::Layer l = workload::resnet18().layers[index];
    for (workload::Dim d : {workload::Dim::P, workload::Dim::Q}) {
        l.dims[workload::dimIndex(d)] =
            std::min<std::int64_t>(l.size(d), 7);
    }
    return l;
}

/** conv1 (signed inputs, C*R*S = 147), a 3x3 conv (576), a 1x1
 *  downsample (64) and the classifier (512 x 1000, one vector). */
std::vector<workload::Layer>
pinnedLayers()
{
    return {resnetLayer(0), resnetLayer(1), resnetLayer(7),
            resnetLayer(20)};
}

/** A small layer with 80 vectors: several walk blocks at maxVectors 0. */
std::vector<workload::Layer>
manyVectorLayer()
{
    workload::Layer l = workload::resnet18().layers[1];
    l.dims[workload::dimIndex(workload::Dim::C)] = 5;
    l.dims[workload::dimIndex(workload::Dim::K)] = 6;
    l.dims[workload::dimIndex(workload::Dim::P)] = 8;
    l.dims[workload::dimIndex(workload::Dim::Q)] = 10;
    return {l};
}

/** Digest of simulateValueLevel over @p layers (see the file comment). */
std::string
refsimDigest(RefSimConfig c, const std::vector<workload::Layer>& layers,
             int threads, bool pmf_counters)
{
    c.threads = threads;
    obs::resetAll();
    Digest d;
    for (const workload::Layer& l : layers) {
        dist::OperandProfile prof;
        RefSimResult r = simulateValueLevel(c, l, &prof);
        for (double e : {r.dacPj, r.cellPj, r.adcPj, r.digitalPj,
                         r.bufferPj, r.ops})
            d.f64(e);
        d.u64(static_cast<std::uint64_t>(r.valuesSimulated));
        d.pmf(prof.inputs);
        d.pmf(prof.weights);
        d.pmf(prof.outputs);
        d.f64(prof.inputSparsity);
    }
    for (const auto& [name, value] : obs::snapshot().counters) {
        // Zero counters are skipped: which ones exist depends on what
        // else ran in this process.
        if (value != 0 &&
            (name.rfind("refsim.", 0) == 0 ||
             name.rfind("faults.cells.", 0) == 0 ||
             (pmf_counters &&
              name.rfind("dist.pmf.from_points.", 0) == 0))) {
            d.text(name);
            d.u64(value);
        }
    }
    return d.hex();
}

/** Digests at 1 and 4 threads against @p want; @p pmf_counters adds
 *  the `dist.pmf.from_points.*` counters to the digest. */
void
expectPinned(const RefSimConfig& c, const std::vector<workload::Layer>& l,
             const char* want, bool pmf_counters = false)
{
    for (int threads : {1, 4})
        EXPECT_EQ(refsimDigest(c, l, threads, pmf_counters), want)
            << threads << " threads";
}

TEST(RefsimPinned, BenchConfig)
{
    expectPinned(benchConfig(), pinnedLayers(), "e652e7c0092321dd");
}

TEST(RefsimPinned, TwoBitDac)
{
    RefSimConfig c = benchConfig();
    c.dacBits = 2;
    expectPinned(c, pinnedLayers(), "c076be9fa576dc37");
}

TEST(RefsimPinned, TwoBitCells)
{
    RefSimConfig c = benchConfig();
    c.cellBits = 2;
    expectPinned(c, pinnedLayers(), "a66ba44683c51679");
}

TEST(RefsimPinned, AccumulateAcrossInputBits)
{
    RefSimConfig c = benchConfig();
    c.accumulateAcrossInputBits = true;
    expectPinned(c, pinnedLayers(), "fd79a937f73ae003");
}

TEST(RefsimPinned, RaggedTiles)
{
    // 147 = 100 + 47 and 576 = 5 * 100 + 76: a short last tile, and
    // a tile length with n % 4 != 0.
    RefSimConfig c = benchConfig();
    c.rows = 100;
    expectPinned(c, pinnedLayers(), "27706b14f3aaed7e");
}

TEST(RefsimPinned, CellAndAdcFaults)
{
    RefSimConfig c = benchConfig();
    c.faults.stuckOffRate = 0.02;
    c.faults.stuckOnRate = 0.01;
    c.faults.conductanceSigma = 0.2;
    c.faults.adcOffset = 0.01;
    c.faults.adcNoiseSigma = 0.02;
    c.faults.seed = 3;
    expectPinned(c, pinnedLayers(), "787a8224f2b6092d");
}

TEST(RefsimPinned, SeveralVectorBlocks)
{
    RefSimConfig c = benchConfig();
    c.rows = 32;
    c.maxVectors = 35;
    expectPinned(c, manyVectorLayer(), "800d0c0b43f871f8");
    c.maxVectors = 0; // all 80 vectors
    expectPinned(c, manyVectorLayer(), "fd146fab499ee90d");
    c.faults.stuckOffRate = 0.05;
    c.faults.conductanceSigma = 0.1;
    c.faults.adcNoiseSigma = 0.01;
    expectPinned(c, manyVectorLayer(), "1fafe62aee1c6744");
}

TEST(RefsimPinned, BinaryPathBenchConfig)
{
    expectPinned(benchConfig(), pinnedLayers(), "a1ed2d327b2443ca", true);
    expectPinned(benchConfig(), manyVectorLayer(), "910afdd93841480b", true);
}

TEST(RefsimPinned, BinaryPathAdcFaults)
{
    // ADC offset and noise draws without cell faults: the walk stays on
    // 1-bit slices and 1-bit cells.
    RefSimConfig c = benchConfig();
    c.faults.adcOffset = 0.01;
    c.faults.adcNoiseSigma = 0.02;
    c.faults.seed = 3;
    expectPinned(c, pinnedLayers(), "aa5ff69b0923c965", true);
    c.accumulateAcrossInputBits = true;
    expectPinned(c, pinnedLayers(), "6ab4bcee784ea797", true);
}

TEST(RefsimPinned, BinaryPathOneWordTiles)
{
    // 64-row tiles: 147 = 2 * 64 + 19 and 576 = 9 * 64.
    RefSimConfig c = benchConfig();
    c.rows = 64;
    expectPinned(c, pinnedLayers(), "194bc64897ffa4df", true);
}

TEST(RefsimPinned, BinaryPathTailWordTiles)
{
    // 300-row tiles end in a partial word, and a slice's count of set
    // input bits exceeds 255 (the top slice of every non-negative input).
    RefSimConfig c = benchConfig();
    c.rows = 300;
    expectPinned(c, pinnedLayers(), "8c20ef0035f9e5a6", true);
}

TEST(RefsimPinned, BinaryPathWeightBits)
{
    RefSimConfig c = benchConfig();
    c.weightBits = 3;
    expectPinned(c, pinnedLayers(), "3853188720d43d55", true);
    expectPinned(c, manyVectorLayer(), "312c77c0ee88c9bf", true);
    // 16-bit codes: the small layer's weight profile is too sparse for
    // the lattice merge and takes the fallback.
    c.weightBits = 16;
    expectPinned(c, pinnedLayers(), "237ec81b323ea84c", true);
    expectPinned(c, manyVectorLayer(), "4cfdefcef7c723c7", true);
}

} // namespace
} // namespace cimloop::refsim
