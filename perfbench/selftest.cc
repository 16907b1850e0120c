/**
 * @file
 * The benchmark's own tests. Run with `python3 perfbench/run.py
 * --self-test` (or the perfbench_selftest binary from the checkout root);
 * exits 0 when every check passes.
 */
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "cimloop/engine/evaluate.hh"
#include "cimloop/macros/macros.hh"
#include "cimloop/workload/networks.hh"
#include "report.hh"
#include "stats.hh"
#include "trace.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool ok, const std::string& what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    failures += ok ? 0 : 1;
}

void
testTailPercentile()
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    Tail t = tailPercentile(v);
    expect(t.value == 90.0 && t.beyond == 10 && t.samples == 100 &&
               t.percentile == 90.0,
           "tail of 1..100 is p90 = 90 with 10 samples beyond");

    v.assign(1000, 1.0);
    v[3] = 50.0;
    t = tailPercentile(v);
    expect(t.value == 1.0 && t.beyond == 10 && t.percentile == 99.0,
           "one outlier in 1000 does not set the tail");

    v.clear();
    for (int i = 1; i <= 12; ++i)
        v.push_back(i);
    t = tailPercentile(v);
    expect(t.value == 7.0 && t.beyond == 5,
           "fewer than 21 samples: tail falls back to the p50 rank");

    t = tailPercentile({});
    expect(t.samples == 0 && t.beyond == 0, "no samples, no tail");
}

/** The names listed in BENCHMARK.json's @p section, in order. */
std::vector<std::string>
benchmarkJsonNames(const std::string& text, const std::string& section)
{
    std::vector<std::string> names;
    std::size_t at = text.find("\"" + section + "\"");
    if (at == std::string::npos)
        return names;
    std::size_t end = text.find(']', at);
    for (std::size_t p = text.find("\"name\"", at);
         p != std::string::npos && p < end;
         p = text.find("\"name\"", p + 1)) {
        std::size_t q0 = text.find('"', text.find(':', p)) + 1;
        names.push_back(text.substr(q0, text.find('"', q0) - q0));
    }
    return names;
}

void
testMetricNames()
{
    expect(validMetricName("op_p50_ms") && validMetricName("mapping.next.calls") &&
               validMetricName("9lives") && validMetricName("a-b_c.d"),
           "legal metric names pass");
    expect(!validMetricName("") && !validMetricName("_lead") &&
               !validMetricName(".lead") && !validMetricName("has space") &&
               !validMetricName("slash/no") &&
               !validMetricName(std::string(65, 'a')),
           "illegal metric names fail");
    expect(validMetricUnit("ms") && validMetricUnit("1/s") &&
               validMetricUnit("%") && !validMetricUnit("") &&
               !validMetricUnit("m s") &&
               !validMetricUnit(std::string(17, 'a')),
           "unit charset");

    auto w = makeWorkload("resnet18_search", 1, ".");
    std::vector<std::string> e2e = endToEndNames();
    std::vector<std::string> layer = perLayerNames(*w);
    std::set<std::string> all;
    bool legal = true;
    for (const auto* v : {&e2e, &layer}) {
        for (const std::string& n : *v) {
            legal = legal && validMetricName(n);
            all.insert(n);
        }
    }
    expect(legal, "every reported metric name is legal");
    expect(all.size() == e2e.size() + layer.size(),
           "every reported metric name is used once");

    std::ifstream f(PERFBENCH_BENCHMARK_JSON);
    std::stringstream ss;
    ss << f.rdbuf();
    const std::string json = ss.str();
    expect(benchmarkJsonNames(json, "end_to_end") == e2e,
           "BENCHMARK.json end_to_end matches the reported metrics");
    expect(benchmarkJsonNames(json, "per_layer") == layer,
           "BENCHMARK.json per_layer matches the reported metrics");
    expect(benchmarkJsonNames(json, "workloads") == workloadNames(),
           "BENCHMARK.json workloads match the benchmark's");
}

void
testReplayMatchesSearch()
{
    using namespace cimloop;
    engine::Arch arch = macros::macroByName("base");
    workload::Network net = workload::networkByName("resnet18");
    // A tiny layer: the first conv with its spatial extent cut down.
    workload::Layer layer = net.layers.front();
    layer.dims[workload::dimIndex(workload::Dim::P)] = 4;
    layer.dims[workload::dimIndex(workload::Dim::Q)] = 4;
    for (int budget : {5, 40}) {
        for (std::uint64_t seed : {1u, 7u}) {
            engine::clearPerActionCache();
            engine::SearchResult real =
                engine::searchMappings(arch, layer, budget, seed);
            engine::clearPerActionCache();
            Tracer t;
            SearchCounts counts;
            PrecomputeChecks checks;
            t.openOp();
            ReplayedSearch replay =
                replaySearch(t, arch, layer, budget, seed, counts, checks);
            OpTrace op = t.closeOp();
            std::string mismatch = checks.finish();
            std::string diff = compareSearch(replay, real);
            expect(diff.empty() && mismatch.empty(),
                   "replay selects searchMappings' best at budget " +
                       std::to_string(budget) + " seed " +
                       std::to_string(seed) + " " + diff + mismatch);
            expect(op.layers["mapping.next"].calls ==
                       static_cast<std::uint64_t>(counts.samples -
                                                  counts.rejected),
                   "one mapping.next span per accepted sample");
            expect(op.layers["engine.precompute"].calls == 1 &&
                       op.layers["models.estimate"].calls ==
                           arch.hierarchy.nodes.size(),
                   "a cold lookup replays precompute stage by stage");
        }
    }
}

void
testSelfTimes()
{
    // op [0,100] > search [10,90] > evaluate [20,60] with a shadow nest
    // [40,55]; a second real child [60,80].
    std::vector<Tracer::Record> r = {
        {0, -1, false, 0, 100},  {1, 0, false, 10, 90},
        {2, 1, false, 20, 60},   {3, 2, true, 40, 55},
        {4, 1, false, 60, 80},
    };
    for (auto& rec : r) {
        rec.start *= 1000000;
        rec.end *= 1000000;
    }
    OpTrace op = Tracer::aggregate(
        r, {"op", "search", "evaluate", "nest", "next"});
    expect(op.wallMs == 85.0, "op wall excludes shadow time");
    expect(op.layers["nest"].selfMs == 15.0, "shadow self is its duration");
    expect(op.layers["evaluate"].selfMs == 10.0,
           "real span self subtracts its shadow as a hidden child");
    expect(op.layers["search"].selfMs == 20.0 &&
               op.layers["next"].selfMs == 20.0,
           "self time excludes children");
    expect(op.selfSumMs == 65.0, "self times sum to the covered wall");
}

void
testServeMixDeterministic()
{
    auto a = serveRequestMix(42, 2000);
    auto b = serveRequestMix(42, 2000);
    auto c = serveRequestMix(43, 2000);
    bool same = a.size() == b.size();
    for (std::size_t i = 0; same && i < a.size(); ++i)
        same = a[i].line == b[i].line && a[i].key == b[i].key;
    expect(same, "the serve request mix is deterministic by seed");
    bool differs = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        differs = differs || a[i].line != c[i].line;
    expect(differs, "another seed gives another mix");

    std::map<std::string, int> by;
    for (const ServeRequest& rq : a)
        ++by[rq.cls];
    expect(by.size() == 6, "every request class appears");
    // The tail percentile leaves ten samples beyond it; the classes that
    // set it must hold several times more, in every stretch of requests.
    expect(by["eval_heavy"] == 700 && by["sweep"] == 600 &&
               by["malformed"] == 100,
           "every block of 20 has the same class composition");
}

} // namespace

int
main()
{
    testTailPercentile();
    testMetricNames();
    testSelfTimes();
    testServeMixDeterministic();
    testReplayMatchesSearch();
    std::printf("%s\n", failures ? "SELF-TEST FAILED" : "SELF-TEST PASSED");
    return failures ? 1 : 0;
}
