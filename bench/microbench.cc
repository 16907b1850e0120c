/**
 * @file
 * Microbenchmarks (google-benchmark) for the hot paths whose speed the
 * paper's Table II depends on: YAML parsing, operand profiling +
 * encoding (precompute), mapping sampling, nest analysis, and full
 * mapping evaluation. Run alongside the figure benches; regressions
 * here erode the statistical model's headline speed.
 */
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "cimloop/common/pareto.hh"
#include "cimloop/dist/encoding.hh"
#include "cimloop/dist/pmf.hh"
#include "cimloop/dist/reduce.hh"
#include "cimloop/dse/dse.hh"
#include "cimloop/engine/evaluate.hh"
#include "cimloop/faults/faults.hh"
#include "cimloop/layout/bankconflict.hh"
#include "cimloop/layout/layout.hh"
#include "cimloop/macros/macros.hh"
#include "cimloop/obs/obs.hh"
#include "cimloop/refsim/refsim.hh"
#include "cimloop/workload/networks.hh"
#include "cimloop/yaml/parser.hh"

using namespace cimloop;

namespace {

const workload::Layer&
benchLayer()
{
    static workload::Layer layer = workload::resnet18().layers[8];
    return layer;
}

const engine::Arch&
benchArch()
{
    static engine::Arch arch = macros::baseMacro();
    return arch;
}

void
BM_YamlParseSpec(benchmark::State& state)
{
    std::string text = benchArch().hierarchy.toYamlText();
    for (auto _ : state) {
        benchmark::DoNotOptimize(yaml::parse(text));
    }
}
BENCHMARK(BM_YamlParseSpec);

void
BM_Precompute(benchmark::State& state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            engine::precompute(benchArch(), benchLayer()));
    }
}
BENCHMARK(BM_Precompute);

void
BM_MapperSample(benchmark::State& state)
{
    engine::PerActionTable table =
        engine::precompute(benchArch(), benchLayer());
    mapping::Mapper mapper(benchArch().hierarchy, table.extLayer,
                           {.seed = 1});
    for (auto _ : state) {
        benchmark::DoNotOptimize(mapper.next());
    }
}
BENCHMARK(BM_MapperSample);

void
BM_NestAnalysis(benchmark::State& state)
{
    engine::PerActionTable table =
        engine::precompute(benchArch(), benchLayer());
    mapping::Mapper mapper(benchArch().hierarchy, table.extLayer,
                           {.seed = 1});
    mapping::Mapping m = mapper.greedy();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mapping::analyzeNest(benchArch().hierarchy, m,
                                 table.extLayer));
    }
}
BENCHMARK(BM_NestAnalysis);

void
BM_Evaluate(benchmark::State& state)
{
    engine::PerActionTable table =
        engine::precompute(benchArch(), benchLayer());
    mapping::Mapper mapper(benchArch().hierarchy, table.extLayer,
                           {.seed = 1});
    mapping::Mapping m = mapper.greedy();
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine::evaluate(benchArch(), table, m));
    }
    // The Table II claim rests on this number: evaluations per second.
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Evaluate);

void
BM_BankConflictSlowdown(benchmark::State& state)
{
    // The per-(node, tensor) inner kernel the layout path adds to every
    // evaluation: it must stay negligible next to BM_Evaluate.
    engine::PerActionTable table =
        engine::precompute(benchArch(), benchLayer());
    mapping::Mapper mapper(benchArch().hierarchy, table.extLayer,
                           {.seed = 1});
    mapping::Mapping m = mapper.greedy();
    layout::ResolvedLayout resolved = layout::resolveLayout(
        benchArch().hierarchy,
        layout::presetLayout("banked8", benchArch().hierarchy));
    std::size_t node = 0;
    for (std::size_t i = 0; i < resolved.slots.size(); ++i) {
        if (resolved.nodeAny(i))
            node = i;
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(layout::bankConflictSlowdowns(
            resolved, benchArch().hierarchy, node, m));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BankConflictSlowdown);

void
BM_EvaluateWithLayout(benchmark::State& state)
{
    engine::PerActionTable table =
        engine::precompute(benchArch(), benchLayer());
    mapping::Mapper mapper(benchArch().hierarchy, table.extLayer,
                           {.seed = 1});
    mapping::Mapping m = mapper.greedy();
    layout::ResolvedLayout resolved = layout::resolveLayout(
        benchArch().hierarchy,
        layout::presetLayout("banked8", benchArch().hierarchy));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            engine::evaluate(benchArch(), table, m, &resolved));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EvaluateWithLayout);

void
BM_CoSearchLayouts(benchmark::State& state)
{
    // Layout x mapping co-search over the full candidate set; arg =
    // worker threads. ~7x the single-layout search's evaluations.
    engine::Arch arch = benchArch();
    arch.layoutSearch = true;
    int threads = static_cast<int>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine::searchMappings(
            arch, benchLayer(), 100, 1,
            {.objective = engine::Objective::Delay, .threads = threads}));
    }
}
BENCHMARK(BM_CoSearchLayouts)->Arg(1)->Arg(4);

void
BM_SearchHundredMappings(benchmark::State& state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            engine::searchMappings(benchArch(), benchLayer(), 100, 1));
    }
}
BENCHMARK(BM_SearchHundredMappings);

void
BM_SearchParallel(benchmark::State& state)
{
    // Sharded intra-layer search; arg = worker threads. Identical result
    // at every thread count, so this isolates the fan-out overhead.
    int threads = static_cast<int>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine::searchMappings(
            benchArch(), benchLayer(), 400, 1, {.threads = threads}));
    }
}
BENCHMARK(BM_SearchParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void
BM_PrecomputeCached(benchmark::State& state)
{
    // Steady-state hit path of the keyed per-action table cache; compare
    // against BM_Precompute for the per-call synthesis cost it saves.
    engine::cachedPrecompute(benchArch(), benchLayer());
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            engine::cachedPrecompute(benchArch(), benchLayer()));
    }
}
BENCHMARK(BM_PrecomputeCached);

void
BM_DivisorsOfMemoized(benchmark::State& state)
{
    // Hot in sample(): called once per sampled mapping per dimension.
    std::int64_t n = 1680; // highly composite: worst case uncached
    for (auto _ : state) {
        benchmark::DoNotOptimize(divisorsOf(n).size());
    }
}
BENCHMARK(BM_DivisorsOfMemoized);

void
BM_DivisorsOfUncached(benchmark::State& state)
{
    std::int64_t n = 1680;
    for (auto _ : state) {
        benchmark::DoNotOptimize(computeDivisors(n).size());
    }
}
BENCHMARK(BM_DivisorsOfUncached);

void
BM_PmfConvolveLattice(benchmark::State& state)
{
    // Integer support on both sides: takes the dense lattice kernel.
    dist::Pmf a = dist::Pmf::quantizedGaussian(0.0, 40.0, -128, 127);
    dist::Pmf b = dist::Pmf::quantizedGaussian(0.0, 40.0, -128, 127);
    for (auto _ : state) {
        benchmark::DoNotOptimize(a.convolveWith(b));
    }
}
BENCHMARK(BM_PmfConvolveLattice);

void
BM_PmfConvolvePointList(benchmark::State& state)
{
    // A fractional shift pushes the support off the integer lattice and
    // forces the sort-merge fallback; the ratio against
    // BM_PmfConvolveLattice is the fast path's speedup.
    dist::Pmf a = dist::Pmf::quantizedGaussian(0.0, 40.0, -128, 127)
                      .mapped([](double v) { return v + 0.1; });
    dist::Pmf b = dist::Pmf::quantizedGaussian(0.0, 40.0, -128, 127)
                      .mapped([](double v) { return v + 0.1; });
    for (auto _ : state) {
        benchmark::DoNotOptimize(a.convolveWith(b));
    }
}
BENCHMARK(BM_PmfConvolvePointList);

void
BM_PmfSliceMixture(benchmark::State& state)
{
    // precompute()'s per-layer representation step: the average-slice
    // mixture of an 8-bit operand tensor sliced to 1-bit planes.
    dist::Pmf ops = dist::Pmf::quantizedGaussian(0.0, 30.0, -128, 127);
    dist::EncodedTensor enc =
        dist::encodeOperands(ops, dist::Encoding::Offset, 8);
    for (auto _ : state) {
        benchmark::DoNotOptimize(dist::sliceMixture(enc, 1));
    }
}
BENCHMARK(BM_PmfSliceMixture);

void
BM_RefsimGnormWalk(benchmark::State& state)
{
    // The paired refsim kernel in isolation: per-(k, wb) dotPair over a
    // 512-row tile, one input slice at a time.
    constexpr std::size_t kRows = 512;
    constexpr std::size_t kCols = 128; // k_total * wb rows of g_norm
    std::vector<double> xs(kRows), xs2(kRows), g(kCols * kRows);
    Rng rng(7);
    for (std::size_t i = 0; i < kRows; ++i) {
        xs[i] = rng.uniform();
        xs2[i] = xs[i] * xs[i];
    }
    for (double& v : g)
        v = rng.uniform();
    for (auto _ : state) {
        double total = 0.0;
        for (std::size_t k = 0; k < kCols; ++k) {
            double s = 0.0, e = 0.0;
            dist::dotPair(xs.data(), xs2.data(), &g[k * kRows], kRows, s,
                          e);
            total += s + e;
        }
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kRows * kCols));
}
BENCHMARK(BM_RefsimGnormWalk);

void
BM_RefsimGnormWalkNaive(benchmark::State& state)
{
    // The same walk with a serial dependent-chain accumulator per dot,
    // which cannot vectorize without reassociation. The ratio against
    // BM_RefsimGnormWalk is what the four-accumulator association buys.
    constexpr std::size_t kRows = 512;
    constexpr std::size_t kCols = 128;
    std::vector<double> xs(kRows), xs2(kRows), g(kCols * kRows);
    Rng rng(7);
    for (std::size_t i = 0; i < kRows; ++i) {
        xs[i] = rng.uniform();
        xs2[i] = xs[i] * xs[i];
    }
    for (double& v : g)
        v = rng.uniform();
    for (auto _ : state) {
        double total = 0.0;
        for (std::size_t k = 0; k < kCols; ++k) {
            const double* gr = &g[k * kRows];
            double s = 0.0, e = 0.0;
            for (std::size_t c = 0; c < kRows; ++c) {
                s += xs[c] * gr[c];
                e += xs2[c] * gr[c];
            }
            benchmark::DoNotOptimize(s);
            total += s + e;
        }
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kRows * kCols));
}
BENCHMARK(BM_RefsimGnormWalkNaive);

void
BM_RefsimTileWalk(benchmark::State& state)
{
    // The value-level walk's inner loop: one vector's 8 input-bit slices
    // (1-bit DAC levels, rows of a 1152-wide slice buffer) against every
    // conductance row of a 128-row tile, one dotRows pass per row.
    constexpr std::size_t kTileRows = 128;
    constexpr std::size_t kSlices = 8;
    constexpr std::size_t kStride = 1152;     // the layer's C * R * S
    constexpr std::size_t kCondRows = 512;    // k * wb rows in the tile
    std::vector<double> xn(kSlices * kStride), tile(kCondRows * kTileRows);
    Rng rng(7);
    for (double& v : xn)
        v = rng.uniform() < 0.5 ? 0.0 : 1.0;
    for (double& v : tile)
        v = rng.uniform() < 0.5 ? 0.0 : 1.0;
    std::vector<double> dots(kSlices);
    for (auto _ : state) {
        double total = 0.0;
        for (std::size_t r = 0; r < kCondRows; ++r) {
            dist::dotRows(xn.data(), kStride, kSlices, &tile[r * kTileRows],
                          kTileRows, dots.data());
            total += dots[0] + dots[kSlices - 1];
        }
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(kSlices * kCondRows * kTileRows));
}
BENCHMARK(BM_RefsimTileWalk);

void
BM_RefsimBitWalk(benchmark::State& state)
{
    // BM_RefsimTileWalk's walk on the bit-plane path (1-bit slices on
    // 1-bit cells): the 8 input-bit slices and every conductance row of
    // the 128-row tile packed 64 rows per word, one andCountRows pass
    // per row. Same items, so the two rates compare directly.
    constexpr std::size_t kTileRows = 128;
    constexpr std::size_t kWords = kTileRows / 64;
    constexpr std::size_t kSlices = 8;
    constexpr std::size_t kCondRows = 512; // k * wb rows in the tile
    std::vector<std::uint64_t> xs(kSlices * kWords), planes(kCondRows *
                                                              kWords);
    Rng rng(7);
    for (std::uint64_t& v : xs)
        v = rng.next();
    for (std::uint64_t& v : planes)
        v = rng.next();
    std::vector<std::uint32_t> counts(kSlices);
    for (auto _ : state) {
        std::uint64_t total = 0;
        for (std::size_t r = 0; r < kCondRows; ++r) {
            dist::andCountRows(xs.data(), kWords, kSlices,
                               &planes[r * kWords], kWords, counts.data());
            total += counts[0] + counts[kSlices - 1];
        }
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(kSlices * kCondRows * kTileRows));
}
BENCHMARK(BM_RefsimBitWalk);

refsim::RefSimConfig
refsimBenchConfig()
{
    refsim::RefSimConfig cfg;
    cfg.maxVectors = 8;
    return cfg;
}

void
BM_RefSimValueLevel(benchmark::State& state)
{
    refsim::RefSimConfig cfg = refsimBenchConfig();
    const workload::Layer& layer = benchLayer();
    std::int64_t vectors = 0;
    for (auto _ : state) {
        refsim::RefSimResult r = refsim::simulateValueLevel(cfg, layer);
        benchmark::DoNotOptimize(r);
        vectors += cfg.maxVectors;
    }
    // Items = sampled vectors: the per-vector cost the refsim pays.
    state.SetItemsProcessed(vectors);
}
BENCHMARK(BM_RefSimValueLevel);

void
BM_FaultPerturbConductances(benchmark::State& state)
{
    // Per-cell counter-derived streams over a full 128x128 array: the
    // one-time injection cost the refsim pays per (layer, fault seed).
    faults::FaultModel model;
    model.stuckOffRate = 0.01;
    model.stuckOnRate = 0.01;
    model.conductanceSigma = 0.2;
    std::vector<double> g_norm(128 * 128, 0.5);
    std::vector<double> scratch;
    for (auto _ : state) {
        scratch = g_norm;
        faults::perturbConductances(model, 7, scratch);
        benchmark::DoNotOptimize(scratch.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(g_norm.size()));
}
BENCHMARK(BM_FaultPerturbConductances);

void
BM_FaultPerturbCellCodes(benchmark::State& state)
{
    // Analytic PMF perturbation (stuck atoms + variance inflation +
    // lattice re-quantization): the statistical pipeline's per-slice
    // cost when faults are enabled.
    faults::FaultModel model;
    model.stuckOffRate = 0.01;
    model.stuckOnRate = 0.01;
    model.conductanceSigma = 0.2;
    dist::Pmf codes = dist::Pmf::quantizedGaussian(128.0, 40.0, 0, 255);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            faults::perturbedCellCodes(model, codes, 255.0));
    }
}
BENCHMARK(BM_FaultPerturbCellCodes);

void
BM_RefSimFaulty(benchmark::State& state)
{
    // Full value-level run with every fault mechanism on; compare with
    // BM_RefSimValueLevel for the injection overhead.
    refsim::RefSimConfig cfg = refsimBenchConfig();
    cfg.faults.stuckOffRate = 0.01;
    cfg.faults.stuckOnRate = 0.01;
    cfg.faults.conductanceSigma = 0.2;
    cfg.faults.adcNoiseSigma = 0.01;
    const workload::Layer& layer = benchLayer();
    for (auto _ : state) {
        refsim::RefSimResult r = refsim::simulateValueLevel(cfg, layer);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_RefSimFaulty);

void
BM_RefSimParallel(benchmark::State& state)
{
    // arg = worker threads; results are bit-identical at every count, so
    // this isolates the parallel speedup (and fan-out overhead at 1).
    refsim::RefSimConfig cfg = refsimBenchConfig();
    cfg.maxVectors = 32;
    cfg.threads = static_cast<int>(state.range(0));
    const workload::Layer& layer = benchLayer();
    for (auto _ : state) {
        refsim::RefSimResult r = refsim::simulateValueLevel(cfg, layer);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_RefSimParallel)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void
BM_ObsCounterAdd(benchmark::State& state)
{
    // The always-on cost at an instrumented call site: one relaxed
    // fetch_add on a cache-line-aligned atomic, registry lookup hoisted
    // into a function-local static exactly as instrumented code does it.
    static obs::Counter& c = obs::counter("bench.obs.counter_add");
    for (auto _ : state) {
        c.add();
    }
}
BENCHMARK(BM_ObsCounterAdd);

void
BM_ObsSpanDisabled(benchmark::State& state)
{
    // The default path: timing off, a span is two branches and no clock
    // reads. This is the overhead every CIM_SPAN site pays in normal
    // (non---metrics) runs, quoted in docs/architecture.md.
    obs::setTimingEnabled(false);
    for (auto _ : state) {
        CIM_SPAN("bench.obs.span_disabled");
    }
}
BENCHMARK(BM_ObsSpanDisabled);

void
BM_ObsSpanEnabled(benchmark::State& state)
{
    // With --metrics: two steady_clock reads plus a mutex-guarded
    // aggregate update at span close.
    obs::setTimingEnabled(true);
    for (auto _ : state) {
        CIM_SPAN("bench.obs.span_enabled");
    }
    obs::setTimingEnabled(false);
}
BENCHMARK(BM_ObsSpanEnabled);

void
BM_ObsEvaluateOverhead(benchmark::State& state)
{
    // End-to-end guard for the "< 2% with obs disabled" budget: a full
    // mapping evaluation with every counter live but timing off —
    // compare against BM_Evaluate in a snapshot diff.
    obs::setTimingEnabled(false);
    engine::PerActionTable table =
        engine::precompute(benchArch(), benchLayer());
    mapping::Mapper mapper(benchArch().hierarchy, table.extLayer,
                           {.seed = 1});
    mapping::Mapping m = mapper.greedy();
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine::evaluate(benchArch(), table, m));
    }
}
BENCHMARK(BM_ObsEvaluateOverhead);

/** Sweep-spec parse + grid materialization (no evaluation). */
void
BM_DseMaterializeGrid(benchmark::State& state)
{
    dse::SweepSpec spec;
    spec.network = "mvm";
    spec.scaledAdc = true;
    spec.addAxis("array", {64, 128, 256, 512});
    spec.addAxis("dac_bits", {1, 2, 3, 4});
    spec.addAxis("conductance_sigma", {0.0, 0.1, 0.3});
    spec.validate();
    for (auto _ : state) {
        for (std::size_t i = 0; i < spec.pointCount(); ++i)
            benchmark::DoNotOptimize(dse::materializePoint(spec, i));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(spec.pointCount()));
}
BENCHMARK(BM_DseMaterializeGrid);

/** Pareto extraction over a synthetic 256-point 3-objective cloud. */
void
BM_DseParetoIndices(benchmark::State& state)
{
    std::vector<std::vector<double>> objectives;
    Rng rng(42);
    for (int i = 0; i < 256; ++i)
        objectives.push_back(
            {rng.uniform(), rng.uniform(), rng.uniform()});
    for (auto _ : state) {
        benchmark::DoNotOptimize(dse::paretoIndices(objectives));
    }
}
BENCHMARK(BM_DseParetoIndices);

/**
 * Streaming frontier maintenance at million-point scale: inserts per
 * second into an incrementally pruned ParetoFront — the structure that
 * replaced the O(n^2) end-of-run scan. The argument sweeps the insert
 * count so the report shows how cost tracks the (small, self-pruning)
 * frontier rather than the stream length.
 */
void
BM_DseParetoFrontInsert(benchmark::State& state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(42);
    std::vector<std::vector<double>> rows;
    rows.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        rows.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
    for (auto _ : state) {
        ParetoFront front(3);
        for (std::size_t i = 0; i < n; ++i)
            front.insert(i, rows[i]);
        benchmark::DoNotOptimize(front.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DseParetoFrontInsert)->Arg(1024)->Arg(16384)->Arg(131072);

/**
 * End-to-end sweep throughput (points/sec) on a small engine-backed
 * grid — the number BENCH_*.json tracks for the dse executor.
 */
void
BM_DseSweepMvm(benchmark::State& state)
{
    dse::SweepSpec spec;
    spec.network = "mvm";
    spec.mappings = 10;
    spec.scaledAdc = true;
    spec.addAxis("array", {128, 256});
    spec.addAxis("dac_bits", {1, 2});
    for (auto _ : state) {
        // Clear the per-action cache so every iteration measures real
        // precompute + search work, not 100% cache hits.
        engine::clearPerActionCache();
        benchmark::DoNotOptimize(dse::runSweep(spec));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(spec.pointCount()));
}
BENCHMARK(BM_DseSweepMvm);

} // namespace

int
main(int argc, char** argv)
{
    // `--json` is shorthand for google-benchmark's JSON reporter; the
    // snapshot script (scripts/bench_snapshot.sh) relies on it.
    static char json_flag[] = "--benchmark_format=json";
    std::vector<char*> args(argv, argv + argc);
    for (char*& arg : args) {
        if (std::strcmp(arg, "--json") == 0)
            arg = json_flag;
    }
    int argc2 = static_cast<int>(args.size());
    benchmark::Initialize(&argc2, args.data());
    if (benchmark::ReportUnrecognizedArguments(argc2, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
