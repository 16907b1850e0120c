/**
 * @file
 * Reproduces paper Table II: modeling speed in (mappings x layers)/second
 * for the value-level reference simulator (the paper's NeuroSim column)
 * vs CiMLoop's statistical pipeline, at 1 mapping and at many mappings
 * per layer (amortization of the per-(arch, layer) precompute), single-
 * and multi-threaded. Every rate is the median of 5 trials of at least
 * 0.5 s each.
 */
#include "common.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "cimloop/engine/evaluate.hh"
#include "cimloop/macros/macros.hh"
#include "cimloop/refsim/refsim.hh"
#include "cimloop/workload/networks.hh"

using namespace cimloop;

namespace {

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** ResNet18 layers shrunk so the value-level run finishes in minutes. */
std::vector<workload::Layer>
benchLayers()
{
    workload::Network net = workload::resnet18();
    std::vector<workload::Layer> layers;
    for (std::size_t i = 1; i < net.layers.size(); i += 4) {
        workload::Layer l = net.layers[i];
        l.dims[workload::dimIndex(workload::Dim::P)] =
            std::min<std::int64_t>(l.size(workload::Dim::P), 7);
        l.dims[workload::dimIndex(workload::Dim::Q)] =
            std::min<std::int64_t>(l.size(workload::Dim::Q), 7);
        layers.push_back(l);
    }
    return layers;
}

/**
 * Median over 5 trials of @p units per second, where each trial repeats
 * @p call until at least 0.5 s have passed. One call of the fast rows
 * lasts a few milliseconds, too short to time alone.
 */
template <typename Call>
double
medianRate(double units, Call&& call)
{
    constexpr int kTrials = 5;
    constexpr double kMinTrialSeconds = 0.5;
    std::vector<double> rates;
    for (int t = 0; t < kTrials; ++t) {
        Clock::time_point start = Clock::now();
        int calls = 0;
        double dt = 0.0;
        do {
            call();
            ++calls;
            dt = seconds(start, Clock::now());
        } while (dt < kMinTrialSeconds);
        rates.push_back(units * calls / dt);
    }
    std::sort(rates.begin(), rates.end());
    return rates[kTrials / 2];
}

/**
 * (mappings x layers)/s for the CiMLoop statistical pipeline, timed on
 * the search path users run: searchMappings() scores the greedy mapping
 * plus mappings - 1 samples per layer. Each call starts from an empty
 * per-action cache, so every layer's precompute is in the time too.
 */
double
cimloopRate(const std::vector<workload::Layer>& layers, int mappings,
            int threads)
{
    engine::Arch arch = macros::baseMacro();
    auto evalLayer = [&](const workload::Layer& layer) {
        return engine::searchMappings(arch, layer, mappings - 1, 7)
            .best.energyPj;
    };
    auto call = [&] {
        engine::clearPerActionCache();
        volatile double sink = 0.0;
        if (threads <= 1) {
            for (const workload::Layer& l : layers)
                sink = sink + evalLayer(l);
            return;
        }
        std::vector<std::thread> pool;
        std::atomic<std::size_t> next{0};
        for (int t = 0; t < threads; ++t) {
            pool.emplace_back([&] {
                for (std::size_t i = next.fetch_add(1);
                     i < layers.size(); i = next.fetch_add(1)) {
                    volatile double local = evalLayer(layers[i]);
                    (void)local;
                }
            });
        }
        for (std::thread& t : pool)
            t.join();
    };
    return medianRate(static_cast<double>(mappings) *
                          static_cast<double>(layers.size()),
                      call);
}

/**
 * Intra-layer search throughput (mappings/s): one layer, the sample
 * budget sharded over worker threads. The GPT-2-style case — few distinct
 * layers — leaves layer-level fan-out with nothing to do; this is where
 * the intra-layer shards earn their keep.
 */
double
intraLayerRate(const workload::Layer& layer, int mappings, int threads,
               engine::SearchResult* out = nullptr)
{
    engine::Arch arch = macros::baseMacro();
    return medianRate(mappings, [&] {
        engine::SearchResult sr = engine::searchMappings(
            arch, layer, mappings, 7, {.threads = threads});
        if (out)
            *out = std::move(sr);
    });
}

/** (mappings x layers)/s for the value-level reference simulator. */
double
refsimRate(const std::vector<workload::Layer>& layers)
{
    refsim::RefSimConfig cfg;
    cfg.rows = 128;
    cfg.cols = 128;
    cfg.maxVectors = 24;
    return medianRate(static_cast<double>(layers.size()), [&] {
        volatile double sink = 0.0;
        for (const workload::Layer& l : layers)
            sink = sink + refsim::simulateValueLevel(cfg, l).totalPj();
    });
}

} // namespace

int
main()
{
    benchutil::banner("Table II",
                      "modeling speed, (mappings x layers) per second");

    std::vector<workload::Layer> layers = benchLayers();
    unsigned hw = std::max(1u, std::thread::hardware_concurrency());

    double ref = refsimRate(layers);
    double cim_1 = cimloopRate(layers, 1, 1);
    double cim_5000 = cimloopRate(layers, 5000, 1);
    double cim_mt_1 = cimloopRate(layers, 1, static_cast<int>(hw));
    double cim_mt_5000 = cimloopRate(layers, 5000, static_cast<int>(hw));

    benchutil::Table table({"model", "# cores", "1 mapping",
                            "5000 mappings"});
    table.row({"value-level sim (NeuroSim role)", "1",
               benchutil::num(ref), "-"});
    table.row({"CiMLoop", "1", benchutil::num(cim_1),
               benchutil::num(cim_5000)});
    table.row({"CiMLoop", std::to_string(hw), benchutil::num(cim_mt_1),
               benchutil::num(cim_mt_5000)});
    table.print();

    std::printf("\nspeedup at 1 mapping:     %.0fx\n", cim_1 / ref);
    std::printf("speedup at 5000 mappings: %.0fx\n", cim_5000 / ref);
    std::printf("amortization gain (5000 vs 1 mapping, per mapping): "
                "%.0fx\n",
                cim_5000 / cim_1);
    std::printf("\npaper Table II shape: orders-of-magnitude faster than "
                "the value-level model, and faster still when the "
                "per-layer precompute amortizes over many mappings — "
                "reproduced: %s\n",
                (cim_5000 / ref > 100.0 && cim_5000 > cim_1) ? "YES"
                                                             : "NO");

    // Intra-layer parallel search: a single-layer workload, 2000+
    // mappings, serial vs sharded-parallel, with the determinism
    // contract checked (identical winner for any thread count).
    const int kIntraMappings = 2000;
    workload::Layer single = layers.front();
    engine::clearPerActionCache();
    // Warm the per-action cache.
    (void)engine::searchMappings(macros::baseMacro(), single, 64, 7);

    engine::SearchResult sr1, sr8;
    double intra_1 = intraLayerRate(single, kIntraMappings, 1, &sr1);
    double intra_8 = intraLayerRate(single, kIntraMappings, 8, &sr8);
    bool identical = sr1.bestMapping == sr8.bestMapping &&
                     sr1.best.energyPj == sr8.best.energyPj;

    std::printf("\nintra-layer search, 1 layer x %d mappings:\n",
                kIntraMappings);
    benchutil::Table intra({"search threads", "mappings/s", "speedup"});
    intra.row({"1 (serial)", benchutil::num(intra_1), "1.0x"});
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx", intra_8 / intra_1);
    intra.row({"8", benchutil::num(intra_8), speedup});
    intra.print();
    std::printf("best mapping identical across 1/8 threads: %s "
                "(%.6g pJ, %d evaluated, %d rejected)\n",
                identical ? "YES" : "NO", sr1.best.energyPj,
                sr1.evaluated, sr1.rejected);
    std::printf("(speedup scales with physical cores; %u available "
                "here)\n", hw);
    return 0;
}
