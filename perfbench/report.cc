#include "report.hh"

#include <sys/resource.h>

#include <map>

namespace perfbench {

std::vector<double>
walls(const std::vector<OpResult>& ops)
{
    std::vector<double> v;
    for (const OpResult& r : ops)
        v.push_back(r.wallMs);
    return v;
}

/** The end-to-end metrics of untraced @p ops. */
std::vector<Metric>
endToEnd(const std::vector<OpResult>& ops, double setup_s, Tail& tail)
{
    double wall = 0.0, cpu = 0.0, work = 0.0;
    for (const OpResult& r : ops) {
        wall += r.wallMs;
        cpu += r.cpuMs;
        work += r.workUnits;
    }
    tail = tailPercentile(walls(ops));
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    double n = static_cast<double>(ops.size());
    return {
        {"setup_s", setup_s, "s"},
        {"op_p50_ms", median(walls(ops)), "ms"},
        {"op_tail_ms", tail.value, "ms"},
        {"ops_per_s", n / wall * 1e3, "1/s"},
        {"work_units_per_s", work / wall * 1e3, "1/s"},
        {"cpu_ms_per_op", cpu / n, "ms"},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
    };
}

namespace {

/** How a per-layer metric is read off the traced ops. */
enum class From { Calls, SelfMs, PerCall, Extra };

struct LayerMetric
{
    const char* name;
    const char* unit;
    From from;
    const char* span; //!< span name (not for Extra)
};

/** Per-op means unless noted; see README.md for what each should move. */
const LayerMetric kLayerMetrics[] = {
    {"mapping.next.calls", "count", From::Calls, "mapping.next"},
    {"mapping.next.self_ms", "ms", From::SelfMs, "mapping.next"},
    {"mapping.nest.calls", "count", From::Calls, "mapping.nest"},
    {"mapping.nest.self_ms", "ms", From::SelfMs, "mapping.nest"},
    {"mapping.valid_ratio", "ratio", From::Extra, nullptr},
    {"mapping.rejected_per_sample", "ratio", From::Extra, nullptr},
    {"engine.evaluate.self_ms", "ms", From::SelfMs, "engine.evaluate"},
    {"engine.search.other_ms", "ms", From::SelfMs, "engine.search"},
    {"engine.precompute.calls", "count", From::Calls, "engine.precompute"},
    {"engine.precompute.self_ms", "ms", From::SelfMs, "engine.precompute"},
    {"engine.cache.hit_ratio", "ratio", From::Extra, nullptr},
    {"engine.cache.key_ms", "ms", From::SelfMs, "engine.cache.key"},
    {"dist.synthesize.self_ms", "ms", From::SelfMs, "dist.synthesize"},
    {"dist.encode.self_ms", "ms", From::SelfMs, "dist.encode"},
    {"dist.slice.self_ms", "ms", From::SelfMs, "dist.slice"},
    {"dist.lattice_ratio", "ratio", From::Extra, nullptr},
    {"models.estimate.calls", "count", From::Calls, "models.estimate"},
    {"models.estimate.self_ms", "ms", From::SelfMs, "models.estimate"},
    {"yaml.load.self_ms", "ms", From::SelfMs, "yaml.load"},
    {"dse.materialize.self_ms", "ms", From::SelfMs, "dse.materialize"},
    {"dse.report.self_ms", "ms", From::SelfMs, "dse.report"},
    {"dse.points_failed", "count", From::Extra, nullptr},
    {"refsim.value_level.self_ms", "ms", From::SelfMs, "refsim.value_level"},
    {"refsim.statistical.self_ms", "ms", From::SelfMs,
     "refsim.statistical"},
    {"refsim.fixed.self_ms", "ms", From::SelfMs, "refsim.fixed"},
    {"refsim.values", "count", From::Extra, nullptr},
    {"model_err_pct", "%", From::Extra, nullptr},
    {"serve.parse.self_ms", "ms", From::SelfMs, "serve.parse"},
    {"serve.respond.self_ms", "ms", From::SelfMs, "serve.respond"},
    {"serve.execute.self_ms", "ms", From::SelfMs, "serve.execute"},
    {"serve.ping_rtt_ms", "ms", From::PerCall, "serve.socket"},
    {"serve.cache.hit_ratio", "ratio", From::Extra, nullptr},
};

} // namespace

std::vector<Metric>
perLayer(const Workload& w, const std::vector<OpResult>& traced,
         const std::vector<OpResult>& untraced, const Tail& tail)
{
    std::map<std::string, LayerTotals> sum;
    double wall = 0.0, self = 0.0;
    for (const OpResult& r : traced) {
        wall += r.trace.wallMs;
        self += r.trace.selfSumMs;
        for (const auto& [name, lt] : r.trace.layers) {
            sum[name].calls += lt.calls;
            sum[name].selfMs += lt.selfMs;
        }
    }
    const double n = static_cast<double>(traced.size());
    const std::map<std::string, double> extras = w.layerExtras();
    std::vector<Metric> out;
    for (const LayerMetric& m : kLayerMetrics) {
        double v = 0.0;
        if (m.from == From::Extra) {
            auto it = extras.find(m.name);
            v = it == extras.end() ? 0.0 : it->second;
        } else {
            const LayerTotals& lt = sum[m.span];
            if (m.from == From::Calls)
                v = static_cast<double>(lt.calls) / n;
            else if (m.from == From::SelfMs)
                v = lt.selfMs / n;
            else
                v = lt.calls ? lt.selfMs / static_cast<double>(lt.calls)
                             : 0.0;
        }
        out.push_back({m.name, v, m.unit});
    }
    std::vector<double> traced_walls;
    for (const OpResult& r : traced)
        traced_walls.push_back(r.trace.wallMs);
    double base = median(walls(untraced));
    out.push_back({"trace.coverage", wall > 0 ? self / wall : 0.0, "ratio"});
    out.push_back({"trace.overhead_pct",
                   base > 0 ? (median(traced_walls) / base - 1.0) * 100.0
                            : 0.0,
                   "%"});
    out.push_back({"op_tail.percentile", tail.percentile, "%"});
    out.push_back(
        {"op_tail.beyond", static_cast<double>(tail.beyond), "count"});
    return out;
}

const std::vector<std::string>&
endToEndNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        Tail t;
        for (const Metric& m : endToEnd({OpResult{}}, 1.0, t))
            v.push_back(m.name);
        return v;
    }();
    return names;
}

std::vector<std::string>
perLayerNames(const Workload& w)
{
    std::vector<std::string> v;
    for (const Metric& m : perLayer(w, {OpResult{}}, {OpResult{}}, Tail{}))
        v.push_back(m.name);
    return v;
}

} // namespace perfbench
