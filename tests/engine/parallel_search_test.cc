/**
 * Parallel intra-layer mapping search: the shard/merge determinism
 * contract (identical winner for any thread count), the per-action table
 * cache (keyed on plug-in identity too), the rejected/exhausted
 * counters, and the threaded network evaluator's exception path
 * (FatalError instead of std::terminate).
 */
#include "cimloop/engine/evaluate.hh"

#include <gtest/gtest.h>

#include <memory>

#include "cimloop/common/error.hh"
#include "cimloop/common/util.hh"
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

TEST(ParallelSearch, BestIdenticalAcrossThreadCounts)
{
    Arch arch = baseMacro();
    workload::Layer layer = workload::resnet18().layers[8];
    SearchResult serial = searchMappings(arch, layer, 300, 11);
    for (int threads : {2, 8}) {
        SearchResult parallel =
            searchMappings(arch, layer, 300, 11, {.threads = threads});
        EXPECT_TRUE(serial.bestMapping == parallel.bestMapping)
            << threads << " threads picked a different mapping";
        EXPECT_DOUBLE_EQ(serial.best.energyPj, parallel.best.energyPj);
        EXPECT_DOUBLE_EQ(serial.best.latencyNs, parallel.best.latencyNs);
        // The shard decomposition is scheduling-independent, so even the
        // sample counters match exactly.
        EXPECT_EQ(serial.evaluated, parallel.evaluated);
        EXPECT_EQ(serial.invalid, parallel.invalid);
        EXPECT_EQ(serial.rejected, parallel.rejected);
        EXPECT_EQ(serial.exhausted, parallel.exhausted);
    }
}

TEST(ParallelSearch, DeterministicAcrossObjectives)
{
    Arch arch = baseMacro();
    workload::Layer layer = workload::resnet18().layers[3];
    for (Objective obj :
         {Objective::Energy, Objective::Edp, Objective::Delay}) {
        SearchResult a =
            searchMappings(arch, layer, 120, 5, {.objective = obj});
        SearchResult b = searchMappings(arch, layer, 120, 5,
                                        {.objective = obj, .threads = 4});
        EXPECT_TRUE(a.bestMapping == b.bestMapping);
        EXPECT_DOUBLE_EQ(a.best.energyPj, b.best.energyPj);
    }
}

TEST(ParallelSearch, BudgetFullySampledWhenNotExhausted)
{
    Arch arch = baseMacro();
    workload::Layer layer = matmulLayer("mvm", 64, 128, 128);
    layer.network = "mvm";
    SearchResult sr = searchMappings(arch, layer, 200, 3);
    if (sr.exhausted == 0) {
        // Greedy + every budgeted sample was drawn and accounted for.
        EXPECT_EQ(sr.evaluated + sr.invalid, 201);
    }
    EXPECT_GE(sr.rejected, 0);
    EXPECT_GE(sr.exhausted, 0);
}

TEST(ParallelSearch, ZeroRandomMappingsReturnsGreedy)
{
    Arch arch = baseMacro();
    workload::Layer layer = matmulLayer("mvm", 16, 64, 64);
    layer.network = "mvm";
    SearchResult sr = searchMappings(arch, layer, 0, 1);
    EXPECT_EQ(sr.evaluated, 1);
    EXPECT_EQ(sr.exhausted, 0);
    EXPECT_TRUE(sr.best.valid);
}

TEST(ParallelNetwork, MatchesSerialBitExactly)
{
    // resnet18's first 4 layers: threads 2 and 4 fan layers out, threads
    // 8 also splits each layer's sample budget over 2 inner threads.
    // mobilenet_v3's first 6 add depthwise layers.
    Arch arch = baseMacro();
    workload::Network resnet = workload::resnet18();
    resnet.layers.resize(4); // keep the test quick
    workload::Network mobile = workload::mobileNetV3();
    mobile.layers.resize(6);
    for (workload::Layer& l : mobile.layers)
        l.networkLayers = 6;
    for (const workload::Network& net : {resnet, mobile}) {
        NetworkEvaluation serial = evaluateNetwork(arch, net, 60, 7);
        EXPECT_TRUE(serial.complete());
        for (int threads : {2, 4, 8}) {
            SCOPED_TRACE(net.name + ", threads " + std::to_string(threads));
            NetworkEvaluation parallel =
                evaluateNetwork(arch, net, 60, 7, {.threads = threads});
            ASSERT_EQ(serial.layers.size(), parallel.layers.size());
            EXPECT_DOUBLE_EQ(serial.energyPj, parallel.energyPj);
            EXPECT_DOUBLE_EQ(serial.latencyNs, parallel.latencyNs);
            EXPECT_DOUBLE_EQ(serial.macs, parallel.macs);
            EXPECT_DOUBLE_EQ(serial.areaUm2, parallel.areaUm2);
            EXPECT_TRUE(parallel.complete());
            for (std::size_t i = 0; i < serial.layers.size(); ++i) {
                const SearchResult& s = serial.layers[i];
                const SearchResult& p = parallel.layers[i];
                EXPECT_TRUE(s.bestMapping == p.bestMapping) << "layer " << i;
                EXPECT_DOUBLE_EQ(s.best.energyPj, p.best.energyPj)
                    << "layer " << i;
                EXPECT_EQ(s.evaluated, p.evaluated) << "layer " << i;
                EXPECT_EQ(s.invalid, p.invalid) << "layer " << i;
                EXPECT_EQ(s.rejected, p.rejected) << "layer " << i;
            }
        }
    }
}

TEST(ParallelNetwork, EmptyNetworkHasZeroTotals)
{
    Arch arch = baseMacro();
    workload::Network net;
    net.name = "empty";
    for (int threads : {1, 8}) {
        for (bool keep_going : {false, true}) {
            NetworkEvaluation ev = evaluateNetwork(
                arch, net, 20, 1,
                {.threads = threads, .keepGoing = keep_going});
            EXPECT_TRUE(ev.layers.empty());
            EXPECT_TRUE(ev.diagnostics.empty());
            EXPECT_DOUBLE_EQ(ev.energyPj, 0.0);
            EXPECT_DOUBLE_EQ(ev.latencyNs, 0.0);
            EXPECT_DOUBLE_EQ(ev.macs, 0.0);
            EXPECT_DOUBLE_EQ(ev.areaUm2, 0.0);
        }
    }
}

TEST(ParallelNetwork, MoreThreadsThanLayersSplitsSearch)
{
    // 2 layers, 8 threads: the intra-layer shards absorb the leftover
    // parallelism and the result still matches the serial evaluation.
    Arch arch = baseMacro();
    workload::Network net = workload::maxUtilMvm(128, 128, 64);
    workload::Layer second = net.layers[0];
    second.name = "mvm2";
    second.index = 1;
    net.layers.push_back(second);
    for (workload::Layer& l : net.layers)
        l.networkLayers = 2;
    NetworkEvaluation serial = evaluateNetwork(arch, net, 100, 9);
    NetworkEvaluation parallel =
        evaluateNetwork(arch, net, 100, 9, {.threads = 8});
    EXPECT_DOUBLE_EQ(serial.energyPj, parallel.energyPj);
    EXPECT_DOUBLE_EQ(serial.latencyNs, parallel.latencyNs);
}

/** A hierarchy no layer with a C loop can map onto (greedy is fatal). */
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
                .temporalDims({Dim::P})
            .component("pe", "DigitalMac")
                .temporalReuse({TensorKind::Weight})
                .temporalDims({Dim::P})
            .build();
    return arch;
}

TEST(ParallelNetwork, UnmappableLayerThrowsFatalErrorNotTerminate)
{
    Arch arch = unmappableArch();
    workload::Network net;
    net.name = "broken-net";
    for (int i = 0; i < 3; ++i) {
        workload::Layer l = matmulLayer("mm", 2, 8, 1);
        l.network = net.name;
        l.index = i;
        l.networkLayers = 3;
        net.layers.push_back(l);
    }
    // Before the fix, the FatalError escaped a worker lambda and
    // std::terminate killed the whole process here.
    for (int threads : {1, 4}) {
        EXPECT_THROW(evaluateNetwork(arch, net, 50, 1, {.threads = threads}),
                     cimloop::FatalError)
            << threads << " threads";
    }
}

TEST(PerActionCache, HitsOnRepeatedSearch)
{
    clearPerActionCache();
    Arch arch = baseMacro();
    workload::Layer layer = workload::resnet18().layers[5];
    searchMappings(arch, layer, 20, 1);
    PerActionCacheStats after_first = perActionCacheStats();
    EXPECT_EQ(after_first.misses, 1u);
    EXPECT_EQ(after_first.entries, 1u);

    searchMappings(arch, layer, 20, 2);
    PerActionCacheStats after_second = perActionCacheStats();
    EXPECT_EQ(after_second.misses, 1u);
    EXPECT_GE(after_second.hits, 1u);
    clearPerActionCache();
}

TEST(PerActionCache, DistinguishesOperatingPoints)
{
    clearPerActionCache();
    Arch arch = baseMacro();
    workload::Layer layer = workload::resnet18().layers[5];
    std::shared_ptr<const PerActionTable> nominal =
        cachedPrecompute(arch, layer);
    Arch low_v = arch;
    low_v.supplyVoltage = 0.71;
    std::shared_ptr<const PerActionTable> scaled =
        cachedPrecompute(low_v, layer);
    EXPECT_NE(nominal.get(), scaled.get());
    EXPECT_EQ(perActionCacheStats().entries, 2u);

    // Same key returns the same immutable table.
    EXPECT_EQ(cachedPrecompute(arch, layer).get(), nominal.get());
    clearPerActionCache();
}

TEST(PerActionCache, ReRegisteredPluginMissesTheCache)
{
    // Replacing a component model changes what precompute() computes,
    // so a table cached before the swap must not be served after it.
    class FixedAdc : public models::ComponentModel
    {
      public:
        std::string className() const override { return "ADC"; }
        std::string description() const override { return "fixed"; }
        models::ComponentEstimate
        estimate(const models::ComponentContext&) const override
        {
            models::ComponentEstimate e;
            e.actionEnergyPj = {1234.5, 1234.5, 1234.5};
            return e;
        }
    };
    clearPerActionCache();
    Arch arch = baseMacro();
    workload::Layer layer = workload::resnet18().layers[5];
    std::size_t adc = 0;
    while (adc < arch.hierarchy.nodes.size() &&
           toLower(arch.hierarchy.nodes[adc].klass) != "adc")
        ++adc;
    ASSERT_LT(adc, arch.hierarchy.nodes.size());

    std::shared_ptr<const PerActionTable> before =
        cachedPrecompute(arch, layer);
    const std::uint64_t misses = perActionCacheStats().misses;
    models::PluginRegistry& registry = models::PluginRegistry::instance();
    registry.add(std::make_unique<FixedAdc>());
    std::shared_ptr<const PerActionTable> after =
        cachedPrecompute(arch, layer);
    models::registerBuiltinModels(registry); // restore the built-in ADC

    EXPECT_EQ(perActionCacheStats().misses, misses + 1);
    EXPECT_NE(after.get(), before.get());
    EXPECT_NE(before->nodes[adc].actionEnergyPj[0], 1234.5);
    EXPECT_EQ(after->nodes[adc].actionEnergyPj[0], 1234.5);
    clearPerActionCache();
}

TEST(PerActionCache, PoisonedEntriesStayCachedForDeterminism)
{
    // A design whose precompute fails (15-bit ADC exceeds the survey
    // regression) must poison its cache entry, not erase it: later
    // callers of the same key rethrow the cached failure as a *hit*, so
    // hit/miss counts stay a pure function of the unique-key set — the
    // invariant the sweep executor's byte-identical cache line relies
    // on when several grid points share a failing design.
    clearPerActionCache();
    macros::MacroParams params = macros::defaultsByName("base");
    params.adcBits = 15;
    Arch arch = macros::macroByName("base", params);
    workload::Layer layer = workload::resnet18().layers[5];

    EXPECT_THROW(cachedPrecompute(arch, layer), cimloop::FatalError);
    PerActionCacheStats first = perActionCacheStats();
    EXPECT_EQ(first.misses, 1u);
    EXPECT_EQ(first.hits, 0u);

    EXPECT_THROW(cachedPrecompute(arch, layer), cimloop::FatalError);
    PerActionCacheStats second = perActionCacheStats();
    EXPECT_EQ(second.misses, 1u) << "poisoned entry was re-missed";
    EXPECT_EQ(second.hits, 1u);
    clearPerActionCache();
}

TEST(PerActionCache, MatchesUncachedPrecompute)
{
    clearPerActionCache();
    Arch arch = baseMacro();
    workload::Layer layer = workload::resnet18().layers[9];
    std::shared_ptr<const PerActionTable> cached =
        cachedPrecompute(arch, layer);
    PerActionTable direct = precompute(arch, layer);
    ASSERT_EQ(cached->nodes.size(), direct.nodes.size());
    mapping::Mapper mapper(arch.hierarchy, direct.extLayer);
    mapping::Mapping m = mapper.greedy();
    Evaluation from_cache = evaluate(arch, *cached, m);
    Evaluation from_direct = evaluate(arch, direct, m);
    EXPECT_DOUBLE_EQ(from_cache.energyPj, from_direct.energyPj);
    EXPECT_DOUBLE_EQ(from_cache.latencyNs, from_direct.latencyNs);
    clearPerActionCache();
}

} // namespace
} // namespace cimloop::engine
