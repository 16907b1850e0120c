#include "cimloop/engine/evaluate.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "cimloop/common/error.hh"
#include "cimloop/common/util.hh"
#include "cimloop/macros/macros.hh"
#include "cimloop/mapping/mapper.hh"
#include "cimloop/workload/networks.hh"

namespace cimloop::engine {
namespace {

/** One frontier case: a layer on the base macro, a budget and a seed. */
struct FrontierCase
{
    const char* name;
    workload::Layer layer;
    int mappings;
    std::uint64_t seed;
};

std::vector<FrontierCase>
frontierCases()
{
    const workload::Network resnet = workload::resnet18();
    std::vector<FrontierCase> cases;
    for (int l : {6, 10}) {
        for (auto [mappings, seed] :
             {std::pair{200, 7}, std::pair{150, 3}, std::pair{80, 2}}) {
            cases.push_back({l == 6 ? "resnet18[6]" : "resnet18[10]",
                             resnet.layers[l], mappings,
                             static_cast<std::uint64_t>(seed)});
        }
    }
    cases.push_back({"mvm", workload::maxUtilMvm(64, 64, 32).layers[0],
                     300, 1});
    return cases;
}

/** FNV-1a over the frontier's size and its (energy, latency) bits. */
std::string
frontierDigest(const std::vector<ParetoPoint>& frontier)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto u64 = [&h](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    };
    u64(frontier.size());
    for (const ParetoPoint& p : frontier) {
        u64(std::bit_cast<std::uint64_t>(p.eval.energyPj));
        u64(std::bit_cast<std::uint64_t>(p.eval.latencyNs));
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016" PRIx64, h);
    return hex;
}

/**
 * Pins every frontier's (energy, latency) sequence. The digests were
 * recorded when paretoFrontier still sorted a copy of every valid
 * sample; they hold for any rule that keeps exactly one point per
 * distinct nondominated (energy, latency) pair.
 */
TEST(Pareto, PinnedFrontiers)
{
    const char* expected[] = {
        "7ffc792947d7dfe7", "070d11a0134d3ce3", "1a41dabbb8417f2a",
        "e97f0856b877aebd", "0e28b6536102ffc3", "3c2b38b63d4a18e2",
        "c5f97444fd3bc947",
    };
    const Arch arch = macros::baseMacro();
    const std::vector<FrontierCase> cases = frontierCases();
    ASSERT_EQ(cases.size(), std::size(expected));
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const FrontierCase& c = cases[i];
        EXPECT_EQ(frontierDigest(paretoFrontier(arch, c.layer, c.mappings,
                                                c.seed)),
                  expected[i])
            << c.name << " at (" << c.mappings << ", " << c.seed << ")";
    }
}

/** One valid sample of the replayed sample set. */
struct Sample
{
    mapping::Mapping mapping;
    double energyPj;
    double latencyNs;
};

/**
 * The sample set searchMappings ranks, replayed through public API:
 * the greedy mapping, then 16 shards drawing their share of the budget
 * from Rng::forStream(seed, shard); valid samples only, in that order.
 */
std::vector<Sample>
replaySamples(const Arch& arch, const FrontierCase& c)
{
    const PerActionTable table = precompute(arch, c.layer);
    const mapping::Mapper mapper(arch.hierarchy, table.extLayer,
                                 {.seed = c.seed});
    std::vector<Sample> samples;
    auto offer = [&](const mapping::Mapping& m) {
        const Evaluation ev = evaluate(arch, table, m);
        if (ev.valid)
            samples.push_back({m, ev.energyPj, ev.latencyNs});
    };
    offer(mapper.greedy());
    const int shards = std::min(16, c.mappings);
    for (int s = 0; s < shards; ++s) {
        const int budget =
            c.mappings / shards + (s < c.mappings % shards ? 1 : 0);
        Rng rng = Rng::forStream(c.seed, static_cast<std::uint64_t>(s));
        int rejected = 0;
        for (int i = 0; i < budget; ++i) {
            std::optional<mapping::Mapping> m = mapper.next(rng, rejected);
            if (!m)
                break;
            offer(*m);
        }
    }
    return samples;
}

TEST(Pareto, FrontierIsTheNondominatedSetOfTheSampleSet)
{
    const Arch arch = macros::baseMacro();
    for (const FrontierCase& c : frontierCases()) {
        SCOPED_TRACE(std::string(c.name) + " at (" +
                     std::to_string(c.mappings) + ", " +
                     std::to_string(c.seed) + ")");
        const std::vector<Sample> samples = replaySamples(arch, c);
        auto dominates = [](const Sample& a, const Sample& b) {
            return a.energyPj <= b.energyPj && a.latencyNs <= b.latencyNs &&
                (a.energyPj < b.energyPj || a.latencyNs < b.latencyNs);
        };
        auto ties = [](const Sample& a, const Sample& b) {
            return a.energyPj == b.energyPj && a.latencyNs == b.latencyNs;
        };
        // All-pairs reference: the nondominated samples, the earliest of
        // each set of exact ties, in ascending energy.
        std::vector<const Sample*> expected;
        bool saw_tie = false;
        for (std::size_t i = 0; i < samples.size(); ++i) {
            bool dominated = false;
            for (const Sample& other : samples)
                dominated = dominated || dominates(other, samples[i]);
            if (dominated)
                continue;
            bool later_tie = false;
            for (std::size_t j = 0; j < i; ++j)
                later_tie = later_tie || ties(samples[j], samples[i]);
            saw_tie = saw_tie || later_tie;
            if (!later_tie)
                expected.push_back(&samples[i]);
        }
        std::sort(expected.begin(), expected.end(),
                  [](const Sample* a, const Sample* b) {
                      return a->energyPj < b->energyPj;
                  });

        const std::vector<ParetoPoint> frontier =
            paretoFrontier(arch, c.layer, c.mappings, c.seed);
        ASSERT_EQ(frontier.size(), expected.size());
        for (std::size_t k = 0; k < frontier.size(); ++k) {
            EXPECT_EQ(frontier[k].eval.energyPj, expected[k]->energyPj);
            EXPECT_EQ(frontier[k].eval.latencyNs, expected[k]->latencyNs);
            EXPECT_EQ(frontier[k].mapping.toYamlText(arch.hierarchy),
                      expected[k]->mapping.toYamlText(arch.hierarchy))
                << "frontier point " << k;
        }
        // The mvm sample set holds an exact tie on its frontier, so the
        // earliest-sample rule is exercised.
        if (std::string(c.name) == "mvm") {
            EXPECT_TRUE(saw_tie);
        }
    }
}

TEST(Pareto, LayoutSearchIsFatal)
{
    // The co-search ranks every layout's sample set; the frontier ranks
    // one, so it refuses rather than silently exploring another set.
    Arch arch = macros::baseMacro();
    arch.layoutSearch = true;
    const workload::Layer layer = workload::resnet18().layers[6];
    try {
        paretoFrontier(arch, layer, 20, 1);
        FAIL() << "paretoFrontier accepted layoutSearch";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("layoutSearch"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Pareto, FrontierIsNondominatedAndSorted)
{
    Arch arch = macros::baseMacro();
    workload::Layer layer = workload::resnet18().layers[6];
    std::vector<ParetoPoint> frontier =
        paretoFrontier(arch, layer, 200, 7);
    ASSERT_FALSE(frontier.empty());
    for (std::size_t i = 1; i < frontier.size(); ++i) {
        // Energy strictly increases along the frontier...
        EXPECT_GT(frontier[i].eval.energyPj,
                  frontier[i - 1].eval.energyPj);
        // ...and latency strictly decreases (else the point would be
        // dominated).
        EXPECT_LT(frontier[i].eval.latencyNs,
                  frontier[i - 1].eval.latencyNs);
    }
}

TEST(Pareto, ExtremesMatchSingleObjectiveSearch)
{
    Arch arch = macros::baseMacro();
    workload::Layer layer = workload::resnet18().layers[6];
    std::vector<ParetoPoint> frontier =
        paretoFrontier(arch, layer, 150, 3);
    SearchResult energy = searchMappings(arch, layer, 150, 3,
                                         {.objective = Objective::Energy});
    SearchResult delay = searchMappings(arch, layer, 150, 3,
                                        {.objective = Objective::Delay});
    // Same seed, same samples: the frontier ends are the single-
    // objective optima.
    EXPECT_DOUBLE_EQ(frontier.front().eval.energyPj,
                     energy.best.energyPj);
    EXPECT_DOUBLE_EQ(frontier.back().eval.latencyNs,
                     delay.best.latencyNs);
}

TEST(Pareto, FrontierMappingsReplayExactly)
{
    Arch arch = macros::baseMacro();
    workload::Layer layer = workload::resnet18().layers[10];
    PerActionTable table = precompute(arch, layer);
    for (const ParetoPoint& p : paretoFrontier(arch, layer, 80, 2)) {
        Evaluation replay = evaluate(arch, table, p.mapping);
        EXPECT_DOUBLE_EQ(replay.energyPj, p.eval.energyPj);
        EXPECT_DOUBLE_EQ(replay.latencyNs, p.eval.latencyNs);
    }
}

TEST(Csv, RowsPerLayerPlusTotal)
{
    Arch arch = macros::baseMacro();
    workload::Network net = workload::maxUtilMvm(64, 64, 32);
    net.layers[0].count = 2;
    NetworkEvaluation ev = evaluateNetwork(arch, net, 30, 1);
    std::string csv = toCsv(ev, net);
    // header + 1 layer + total = 3 lines.
    int lines = 0;
    for (char c : csv)
        lines += (c == '\n');
    EXPECT_EQ(lines, 3);
    EXPECT_NE(csv.find("mvm,2,"), std::string::npos);
    EXPECT_NE(csv.find("TOTAL"), std::string::npos);
}

} // namespace
} // namespace cimloop::engine
