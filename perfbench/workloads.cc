#include "workloads.hh"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "cimloop/cli/cli.hh"
#include "cimloop/common/arena.hh"
#include "cimloop/common/util.hh"
#include "cimloop/dist/encoding.hh"
#include "cimloop/dist/operands.hh"
#include "cimloop/dse/dse.hh"
#include "cimloop/macros/macros.hh"
#include "cimloop/mapping/mapper.hh"
#include "cimloop/mapping/nest.hh"
#include "cimloop/models/component.hh"
#include "cimloop/obs/obs.hh"
#include "cimloop/refsim/refsim.hh"
#include "cimloop/serve/json.hh"
#include "cimloop/serve/protocol.hh"
#include "cimloop/serve/server.hh"
#include "cimloop/workload/networks.hh"
#include "stats.hh"

namespace perfbench {

using namespace cimloop;

namespace {

/** Shards per search; must match engine::searchMappings. */
constexpr int kSearchShards = 16;

using Counters = std::vector<std::pair<std::string, std::uint64_t>>;

Counters
counters()
{
    return obs::snapshot().counters;
}

/** Counter-wise b - a over the names in b. */
Counters
delta(const Counters& a, const Counters& b)
{
    std::map<std::string, std::uint64_t> before(a.begin(), a.end());
    Counters d;
    for (const auto& [name, v] : b) {
        std::uint64_t d_v = v - before[name];
        if (d_v)
            d.emplace_back(name, d_v);
    }
    return d;
}

double
cpuMs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) * 1e-6;
}

/** Times one region into an OpResult. */
class OpTimer
{
  public:
    explicit OpTimer(OpResult& r) : r_(r), wall0_(nowNs()), cpu0_(cpuMs())
    {}
    void stop()
    {
        r_.wallMs = static_cast<double>(nowNs() - wall0_) * 1e-6;
        r_.cpuMs = cpuMs() - cpu0_;
    }

  private:
    OpResult& r_;
    std::int64_t wall0_;
    double cpu0_;
};

void
fail(OpResult& r, const std::string& why)
{
    if (r.ok) {
        r.ok = false;
        r.error = why;
    }
}

/** The lattice share of Pmf::fromPoints calls since the last reset. */
struct LatticeCount
{
    double lattice = 0.0;
    double fallback = 0.0;
    void read()
    {
        lattice += static_cast<double>(
            obs::counter("dist.pmf.from_points.lattice").value());
        fallback += static_cast<double>(
            obs::counter("dist.pmf.from_points.fallback").value());
    }
    double ratio() const
    {
        double n = lattice + fallback;
        return n > 0.0 ? lattice / n : 0.0;
    }
};

/** Per-action cache hits / lookups over a window. */
struct CacheWindow
{
    double hits = 0.0;
    double lookups = 0.0;
    engine::PerActionCacheStats start;
    void begin() { start = engine::perActionCacheStats(); }
    void end()
    {
        engine::PerActionCacheStats s = engine::perActionCacheStats();
        // clearPerActionCache() resets the counters, so a window always
        // starts after the op's own clear.
        hits += static_cast<double>(s.hits - start.hits);
        lookups += static_cast<double>(s.hits + s.misses - start.hits -
                                       start.misses);
    }
    double ratio() const { return lookups > 0.0 ? hits / lookups : 0.0; }
};

bool
samePmf(const dist::Pmf& a, const dist::Pmf& b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a.points()[i].value != b.points()[i].value ||
            a.points()[i].prob != b.points()[i].prob)
            return false;
    }
    return true;
}

bool
sameEstimate(const models::ComponentEstimate& a,
             const models::ComponentEstimate& b)
{
    return a.areaUm2 == b.areaUm2 && a.latencyNs == b.latencyNs &&
           a.readEnergyPj == b.readEnergyPj &&
           a.fillEnergyPj == b.fillEnergyPj &&
           a.actionEnergyPj == b.actionEnergyPj &&
           a.staticPowerUw == b.staticPowerUw;
}

std::string
compareTables(const engine::PerActionTable& replay,
              const engine::PerActionTable& real)
{
    if (replay.extLayer.dims != real.extLayer.dims)
        return "extended layer dims differ";
    if (!samePmf(replay.profile.inputs, real.profile.inputs) ||
        !samePmf(replay.profile.weights, real.profile.weights) ||
        !samePmf(replay.profile.outputs, real.profile.outputs))
        return "operand profile differs";
    if (replay.nodes.size() != real.nodes.size())
        return "node count differs";
    for (std::size_t i = 0; i < real.nodes.size(); ++i) {
        if (!sameEstimate(replay.nodes[i], real.nodes[i]))
            return "estimate of node " + std::to_string(i) + " differs";
    }
    return "";
}

/**
 * engine::precompute() stage by stage, each stage a shadow span under
 * the caller's open engine.precompute span. Faults are off in every
 * workload, so analog and digital components see the same slices.
 */
engine::PerActionTable
shadowPrecompute(Tracer& t, const engine::Arch& arch,
                 const workload::Layer& layer)
{
    constexpr int kI = spec::tensorIndex(workload::TensorKind::Input);
    constexpr int kW = spec::tensorIndex(workload::TensorKind::Weight);
    constexpr int kO = spec::tensorIndex(workload::TensorKind::Output);
    if (arch.faults.enabled())
        throw std::logic_error("perfbench replays fault-free arches only");

    ArenaScope scratch(scratchArena());
    engine::PerActionTable table;
    table.extLayer = arch.extendLayer(layer);
    {
        Span s(t, "dist.synthesize", kShadow);
        const std::string network =
            layer.network.empty() ? layer.name : layer.network;
        table.profile = dist::synthesizeOperands(
            network, layer.index,
            std::max(layer.networkLayers, layer.index + 1),
            arch.inputBitsFor(layer), arch.weightBitsFor(layer));
    }
    dist::EncodedTensor in_full, wt_full, out_full, in_sliced, wt_sliced;
    {
        Span s(t, "dist.encode", kShadow);
        in_full = dist::encodeOperands(table.profile.inputs,
                                       arch.rep.inputEncoding,
                                       arch.inputBitsFor(layer));
    }
    {
        Span s(t, "dist.encode", kShadow);
        wt_full = dist::encodeOperands(table.profile.weights,
                                       arch.rep.weightEncoding,
                                       arch.weightBitsFor(layer));
    }
    {
        Span s(t, "dist.encode", kShadow);
        out_full = dist::encodeOperands(table.profile.outputs,
                                        dist::Encoding::TwosComplement,
                                        arch.rep.outputBits);
    }
    {
        Span s(t, "dist.slice", kShadow);
        in_sliced = dist::sliceMixture(in_full, arch.rep.dacBits);
    }
    {
        Span s(t, "dist.slice", kShadow);
        wt_sliced = dist::sliceMixture(wt_full, arch.rep.cellBits);
    }

    models::PluginRegistry& registry = models::PluginRegistry::instance();
    for (const spec::SpecNode& node : arch.hierarchy.nodes) {
        std::string klass = node.klass.empty() ? "Wire" : node.klass;
        models::ComponentContext ctx;
        ctx.node = &node;
        ctx.technologyNm = arch.technologyNm;
        ctx.supplyVoltage = arch.supplyVoltage;
        ctx.tensors[kI] = in_sliced;
        ctx.tensors[kW] = wt_sliced;
        ctx.tensors[kO] = out_full;
        if (toLower(klass) == "adc") {
            Span s(t, "dist.encode", kShadow);
            int res = static_cast<int>(node.attrInt("resolution", 8));
            ctx.tensors[kO] = dist::encodeOperands(
                table.profile.outputs, dist::Encoding::Offset, res);
        }
        Span s(t, "models.estimate", kShadow);
        table.nodes.push_back(registry.require(klass).estimate(ctx));
    }
    return table;
}

/** cachedPrecompute under a span named for what it turned out to be:
 *  engine.precompute on a miss, engine.cache.hit on a hit. */
std::shared_ptr<const engine::PerActionTable>
tracedLookup(Tracer& t, const engine::Arch& arch,
             const workload::Layer& layer, PrecomputeChecks& checks)
{
    int id = t.open("engine.cache.hit");
    std::string key;
    {
        Span s(t, "engine.cache.key", kShadow);
        key = engine::perActionKey(arch, layer);
    }
    const bool hit = engine::perActionCacheContains(key);
    std::shared_ptr<const engine::PerActionTable> table =
        engine::cachedPrecompute(arch, layer);
    if (!hit) {
        // The shadow stages run after the real call, so the real call
        // pays the cold-cache costs it pays in the untraced op.
        t.rename(id, "engine.precompute");
        checks.pending.emplace_back(shadowPrecompute(t, arch, layer), table);
    }
    t.close(id);
    return table;
}

engine::Evaluation
tracedEvaluate(Tracer& t, const engine::Arch& arch,
               const engine::PerActionTable& table,
               const mapping::Mapping& m)
{
    Span e(t, "engine.evaluate");
    engine::Evaluation ev = engine::evaluate(arch, table, m, nullptr);
    // After the real call, like the precompute stages: the shadow nest
    // analysis reruns on warm caches and stands in for evaluate()'s own.
    Span n(t, "mapping.nest", kShadow);
    mapping::NestResult nest =
        mapping::analyzeNest(arch.hierarchy, m, table.extLayer);
    if (nest.valid != ev.valid)
        throw std::logic_error("nest analysis disagrees with evaluate");
    return ev;
}

} // namespace

std::string
PrecomputeChecks::finish()
{
    std::string first;
    for (const auto& [replay, real] : pending) {
        std::string diff = compareTables(replay, *real);
        if (!diff.empty() && first.empty())
            first = "replayed precompute of layer '" + real->extLayer.name +
                    "': " + diff;
    }
    pending.clear();
    return first;
}

ReplayedSearch
replaySearch(Tracer& t, const engine::Arch& arch,
             const workload::Layer& layer, int num_mappings,
             std::uint64_t seed, SearchCounts& counts,
             PrecomputeChecks& checks)
{
    if (arch.layoutSearch || !arch.layout.empty())
        throw std::logic_error("perfbench replays layout-free arches only");
    Span search(t, "engine.search");
    std::shared_ptr<const engine::PerActionTable> table =
        tracedLookup(t, arch, layer, checks);
    const mapping::Mapper mapper(arch.hierarchy, table->extLayer,
                                 {.seed = seed});

    struct Shard
    {
        bool have = false;
        double value = 0.0;
        mapping::Mapping best;
        engine::Evaluation eval;
        int evaluated = 0, invalid = 0, rejected = 0;
        bool exhausted = false;
    };
    const int shards = std::min(kSearchShards, std::max(num_mappings, 0));
    std::vector<Shard> outs(static_cast<std::size_t>(shards));
    for (int s = 0; s < shards; ++s) {
        Shard& out = outs[static_cast<std::size_t>(s)];
        Rng rng = Rng::forStream(seed, static_cast<std::uint64_t>(s));
        int budget =
            num_mappings / shards + (s < num_mappings % shards ? 1 : 0);
        for (int i = 0; i < budget; ++i) {
            std::optional<mapping::Mapping> m;
            int rejected_before = out.rejected;
            {
                Span n(t, "mapping.next");
                m = mapper.next(rng, out.rejected);
            }
            counts.rejected += out.rejected - rejected_before;
            counts.samples += out.rejected - rejected_before + (m ? 1 : 0);
            if (!m) {
                out.exhausted = true;
                break;
            }
            engine::Evaluation ev = tracedEvaluate(t, arch, *table, *m);
            if (!ev.valid) {
                ++out.invalid;
                continue;
            }
            ++out.evaluated;
            counts.valid += 1.0;
            if (!out.have || ev.energyPj < out.value) {
                out.have = true;
                out.value = ev.energyPj;
                out.eval = std::move(ev);
                out.best = std::move(*m);
            }
        }
    }

    // Merge in searchMappings' (value, shard, sample) order with the
    // greedy mapping ahead of every shard.
    ReplayedSearch r;
    const mapping::Mapping greedy = mapper.greedy();
    engine::Evaluation gev = tracedEvaluate(t, arch, *table, greedy);
    if (gev.valid) {
        ++r.evaluated;
        r.have = true;
        r.bestValue = gev.energyPj;
        r.best = std::move(gev);
        r.bestMapping = greedy;
    } else {
        ++r.invalid;
    }
    for (Shard& out : outs) {
        r.evaluated += out.evaluated;
        r.invalid += out.invalid;
        r.rejected += out.rejected;
        r.exhausted += out.exhausted ? 1 : 0;
        if (out.have && (!r.have || out.value < r.bestValue)) {
            r.have = true;
            r.bestValue = out.value;
            r.best = std::move(out.eval);
            r.bestMapping = std::move(out.best);
        }
    }
    return r;
}

std::string
compareSearch(const ReplayedSearch& replay,
              const engine::SearchResult& real)
{
    if (!replay.have)
        return "replay found no valid mapping";
    if (replay.bestValue != real.best.energyPj)
        return "best energy differs";
    if (!(replay.bestMapping == real.bestMapping))
        return "best mapping differs";
    if (replay.evaluated != real.evaluated ||
        replay.invalid != real.invalid ||
        replay.rejected != real.rejected ||
        replay.exhausted != real.exhausted)
        return "sample counts differ";
    return "";
}

namespace {

/** Per-layer best energy, latency and mapping of a network evaluation. */
void
digestNetwork(Digest& d, const engine::Arch& arch,
              const engine::NetworkEvaluation& ev)
{
    for (const engine::SearchResult& sr : ev.layers) {
        d.add(sr.best.energyPj);
        d.add(sr.best.latencyNs);
        d.add(sr.bestMapping.toString(arch.hierarchy));
    }
}

/** Empty when @p ev reproduces @p ref layer by layer. */
std::string
compareNetworks(const engine::NetworkEvaluation& ev,
                const engine::NetworkEvaluation& ref)
{
    if (ev.layers.size() != ref.layers.size() || !ev.complete())
        return "layer results missing";
    for (std::size_t i = 0; i < ref.layers.size(); ++i) {
        const engine::SearchResult& a = ev.layers[i];
        const engine::SearchResult& b = ref.layers[i];
        if (a.best.energyPj != b.best.energyPj ||
            a.best.latencyNs != b.best.latencyNs ||
            !(a.bestMapping == b.bestMapping))
            return "layer " + std::to_string(i) + " result differs";
    }
    return "";
}

double
searchWork(const engine::NetworkEvaluation& ev)
{
    double n = 0.0;
    for (const engine::SearchResult& sr : ev.layers)
        n += sr.evaluated + sr.invalid;
    return n;
}

std::map<std::string, double>
searchExtras(const SearchCounts& c)
{
    return {
        {"mapping.valid_ratio", c.samples > 0 ? c.valid / c.samples : 0.0},
        {"mapping.rejected_per_sample",
         c.samples > 0 ? c.rejected / c.samples : 0.0},
    };
}

// ---------------------------------------------------------------------
// resnet18_search: in-process `cimloop --macro base --network resnet18`.

class Resnet18Search : public Workload
{
  public:
    /** About 0.3 s per op on a 4-core x86 host: long enough that an
     *  op's median holds within a few percent between runs. */
    static constexpr int kMappings = 1500;

    explicit Resnet18Search(std::uint64_t seed) : seed_(seed) {}

    const char* workUnit() const override { return "mapping evaluation"; }

    void setUp() override
    {
        arch_ = macros::macroByName("base");
        net_ = workload::networkByName("resnet18");
        engine::clearPerActionCache();
        obs::resetAll();
        ref_ = engine::evaluateNetwork(arch_, net_, kMappings, seed_);
        refCounters_ = counters();
    }

    OpResult op() override
    {
        OpResult r;
        engine::clearPerActionCache();
        obs::resetAll();
        OpTimer timer(r);
        engine::NetworkEvaluation ev =
            engine::evaluateNetwork(arch_, net_, kMappings, seed_);
        timer.stop();
        r.workUnits = searchWork(ev);
        std::string diff = compareNetworks(ev, ref_);
        if (!diff.empty())
            fail(r, diff);
        if (counters() != refCounters_)
            fail(r, "obs counters differ from the warm-up op");
        return r;
    }

    OpResult tracedOp(Tracer& t) override
    {
        OpResult r;
        engine::clearPerActionCache();
        obs::resetAll();
        cache_.begin();
        std::vector<ReplayedSearch> replays;
        PrecomputeChecks checks;
        t.openOp();
        for (const workload::Layer& layer : net_.layers) {
            replays.push_back(replaySearch(t, arch_, layer, kMappings,
                                           seed_ + layer.index, counts_,
                                           checks));
        }
        r.trace = t.closeOp();
        cache_.end();
        lattice_.read();
        std::string mismatch = checks.finish();
        if (!mismatch.empty())
            fail(r, mismatch);
        for (std::size_t i = 0; i < replays.size(); ++i) {
            r.workUnits += replays[i].evaluated + replays[i].invalid;
            std::string diff = compareSearch(replays[i], ref_.layers[i]);
            if (!diff.empty())
                fail(r, "replayed search of layer " + std::to_string(i) +
                            ": " + diff);
        }
        return r;
    }

    std::string digest() const override
    {
        Digest d;
        digestNetwork(d, arch_, ref_);
        return d.hex();
    }

    std::map<std::string, double> layerExtras() const override
    {
        std::map<std::string, double> x = searchExtras(counts_);
        x["engine.cache.hit_ratio"] = cache_.ratio();
        x["dist.lattice_ratio"] = lattice_.ratio();
        return x;
    }

  private:
    std::uint64_t seed_;
    engine::Arch arch_;
    workload::Network net_;
    engine::NetworkEvaluation ref_;
    Counters refCounters_;
    SearchCounts counts_;
    CacheWindow cache_;
    LatticeCount lattice_;
};

// ---------------------------------------------------------------------
// precompute_sweep: dse::runSweep over distinct operating points.

class PrecomputeSweep : public Workload
{
  public:
    PrecomputeSweep(std::uint64_t seed, std::string scratch)
        : seed_(seed), scratch_(std::move(scratch))
    {}

    const char* workUnit() const override { return "design point"; }

    /** The sweep spec for a seed: six distinct supply voltages drawn
     *  from 0.75..1.10 V, two DAC and two cell widths, and a two-value
     *  mapper budget so half the points hit the per-action cache. */
    static std::string specText(std::uint64_t seed)
    {
        Rng rng = Rng::forStream(seed, 0x5eed);
        std::vector<int> mv;
        for (int v = 750; v <= 1100; v += 10)
            mv.push_back(v);
        for (std::size_t i = mv.size(); i > 1; --i)
            std::swap(mv[i - 1], mv[rng.below(i)]);
        mv.resize(6);
        std::sort(mv.begin(), mv.end());
        std::ostringstream os;
        os << "sweep:\n  name: perfbench-precompute\n  macro: base\n"
           << "  network: resnet18\n  seed: " << 1 + seed % 1000000
           << "\n  objective: energy\n  axes:\n"
           << "    - field: voltage\n      values: [";
        for (std::size_t i = 0; i < mv.size(); ++i)
            os << (i ? ", " : "") << mv[i] / 1000 << "."
               << (mv[i] % 1000 < 100 ? "0" : "") << mv[i] % 1000;
        os << "]\n    - field: dac_bits\n      values: [1, 2]\n"
           << "    - field: cell_bits\n      values: [1, 2]\n"
           << "    - field: mappings\n      values: [4, 8]\n";
        return os.str();
    }

    void setUp() override
    {
        specPath_ = scratch_ + "/precompute_sweep-" +
                    std::to_string(::getpid()) + ".yaml";
        {
            std::ofstream f(specPath_);
            f << specText(seed_);
            if (!f)
                throw std::runtime_error("cannot write " + specPath_);
        }
        spec_ = dse::SweepSpec::fromFile(specPath_);
        for (const std::string& key : dse::sweepNetworkKeys(spec_))
            nets_.emplace(key, workload::networkByName(key.substr(5)));
        engine::clearPerActionCache();
        obs::resetAll();
        ref_ = dse::runSweep(spec_, sweepOptions());
        refReport_ = report(ref_);
        refCounters_ = counters();
        if (ref_.failed || ref_.skipped)
            throw std::runtime_error("precompute_sweep: points failed");
    }

    OpResult op() override
    {
        OpResult r;
        engine::clearPerActionCache();
        obs::resetAll();
        OpTimer timer(r);
        dse::SweepResult res = dse::runSweep(
            dse::SweepSpec::fromFile(specPath_), sweepOptions());
        std::string rep = report(res);
        timer.stop();
        r.workUnits = static_cast<double>(res.evaluated);
        if (rep != refReport_)
            fail(r, "sweep table/CSV/JSON differ from the warm-up op");
        if (counters() != refCounters_)
            fail(r, "obs counters differ from the warm-up op");
        return r;
    }

    OpResult tracedOp(Tracer& t) override
    {
        OpResult r;
        engine::clearPerActionCache();
        obs::resetAll();
        cache_.begin();
        PrecomputeChecks checks;
        std::vector<std::vector<double>> rows;
        t.openOp();
        dse::SweepSpec spec;
        {
            Span y(t, "yaml.load");
            spec = dse::SweepSpec::fromFile(specPath_);
        }
        for (std::size_t p = 0; p < spec.pointCount(); ++p) {
            dse::SweepPoint point;
            {
                Span m(t, "dse.materialize");
                point = dse::materializePoint(spec, p);
                if (!dse::pointIsValid(spec, point))
                    fail(r, "point " + std::to_string(p) + " skipped");
            }
            Span s(t, "dse.point");
            engine::Arch arch =
                macros::macroByName(point.macroName, point.params);
            arch.faults = point.faults;
            const workload::Network& net =
                nets_.at("name:" + point.networkName);
            double energy = 0.0, latency = 0.0, macs = 0.0;
            for (const workload::Layer& layer : net.layers) {
                ReplayedSearch rs =
                    replaySearch(t, arch, layer, point.mappings,
                                 point.seed + layer.index, counts_,
                                 checks);
                double reps = static_cast<double>(layer.count);
                energy += rs.best.energyPj * reps;
                latency += rs.best.latencyNs * reps;
                macs += rs.best.macs * reps;
            }
            const dse::PointResult* ref = ref_.findPoint(p);
            if (!ref || ref->energyPj != energy || ref->latencyNs != latency)
                fail(r, "replayed point " + std::to_string(p) +
                            " differs from runSweep");
            rows.push_back({macs > 0 ? energy / macs : 0.0, latency});
            r.workUnits += 1.0;
        }
        {
            Span rep(t, "dse.report");
            std::vector<std::size_t> front = dse::paretoIndices(rows);
            std::string text = report(ref_);
            if (front.size() != ref_.frontier.size() || text != refReport_)
                fail(r, "replayed report differs");
        }
        r.trace = t.closeOp();
        cache_.end();
        lattice_.read();
        std::string mismatch = checks.finish();
        if (!mismatch.empty())
            fail(r, mismatch);
        return r;
    }

    void tearDown() override
    {
        if (!specPath_.empty())
            std::remove(specPath_.c_str());
    }

    std::string digest() const override
    {
        Digest d;
        d.add(refReport_);
        return d.hex();
    }

    std::map<std::string, double> layerExtras() const override
    {
        std::map<std::string, double> x = searchExtras(counts_);
        x["engine.cache.hit_ratio"] = cache_.ratio();
        x["dist.lattice_ratio"] = lattice_.ratio();
        x["dse.points_failed"] = static_cast<double>(ref_.failed);
        return x;
    }

  private:
    static dse::SweepOptions sweepOptions()
    {
        dse::SweepOptions o;
        o.threads = 1;
        return o;
    }

    /** What `cimloop --sweep FILE --csv --json` writes: the table, CSV
     *  and JSON. An op loads the spec and runs the sweep, as that
     *  command does. */
    static std::string report(const dse::SweepResult& res)
    {
        return dse::formatTable(res) + dse::toCsv(res) + dse::toJson(res);
    }

    std::uint64_t seed_;
    std::string scratch_;
    std::string specPath_;
    dse::SweepSpec spec_;
    std::map<std::string, workload::Network> nets_;
    dse::SweepResult ref_;
    std::string refReport_;
    Counters refCounters_;
    SearchCounts counts_;
    CacheWindow cache_;
    LatticeCount lattice_;
};

// ---------------------------------------------------------------------
// refsim_fig6: the Fig. 6 accuracy check (bench/fig6_accuracy layers).

class RefsimFig6 : public Workload
{
  public:
    /**
     * Vectors per layer. bench/fig6_accuracy samples 32, which takes
     * about 11 s per op at one thread; two keep the same layers, array
     * and ADC at about 1.4 s per op and the same ~0.7% model error.
     */
    static constexpr std::int64_t kVectors = 2;

    explicit RefsimFig6(std::uint64_t seed) : seed_(seed) {}

    const char* workUnit() const override { return "simulated value"; }

    void setUp() override
    {
        cfg_.rows = 128;
        cfg_.cols = 128;
        cfg_.adcBits = 5;
        cfg_.maxVectors = kVectors;
        cfg_.threads = 1;
        cfg_.seed = 1 + seed_ % 1000000;
        workload::Network net = workload::resnet18();
        for (std::size_t i = 1; i < net.layers.size(); i += 2) {
            workload::Layer l = net.layers[i];
            for (workload::Dim d : {workload::Dim::P, workload::Dim::Q}) {
                l.dims[workload::dimIndex(d)] =
                    std::min<std::int64_t>(l.size(d), 7);
            }
            layers_.push_back(l);
        }
        obs::resetAll();
        ref_ = run(nullptr);
        refCounters_ = counters();
    }

    OpResult op() override
    {
        OpResult r;
        obs::resetAll();
        OpTimer timer(r);
        Results res = run(nullptr);
        timer.stop();
        r.workUnits = res.values;
        if (!same(res, ref_))
            fail(r, "refsim results differ from the warm-up op");
        if (counters() != refCounters_)
            fail(r, "obs counters differ from the warm-up op");
        return r;
    }

    OpResult tracedOp(Tracer& t) override
    {
        OpResult r;
        obs::resetAll();
        t.openOp();
        Results res = run(&t);
        r.trace = t.closeOp();
        lattice_.read();
        values_ += res.values;
        ++tracedOps_;
        r.workUnits = res.values;
        if (!same(res, ref_))
            fail(r, "traced refsim results differ from the warm-up op");
        return r;
    }

    std::string digest() const override
    {
        Digest d;
        for (const auto* v : {&ref_.truth, &ref_.stat, &ref_.fixed}) {
            for (const refsim::RefSimResult& x : *v) {
                for (double e : {x.dacPj, x.cellPj, x.adcPj, x.digitalPj,
                                 x.bufferPj, x.ops})
                    d.add(e);
            }
        }
        return d.hex();
    }

    std::map<std::string, double> layerExtras() const override
    {
        return {
            {"dist.lattice_ratio", lattice_.ratio()},
            {"refsim.values", tracedOps_ ? values_ / tracedOps_ : 0.0},
            {"model_err_pct", modelErrPct()},
        };
    }

    /** Mean |statistical - value-level| / value-level over the layers. */
    double modelErrPct() const
    {
        double sum = 0.0;
        for (std::size_t i = 0; i < ref_.truth.size(); ++i) {
            double truth = ref_.truth[i].totalPj();
            sum += std::abs(ref_.stat[i].totalPj() - truth) / truth;
        }
        return ref_.truth.empty() ? 0.0 : 100.0 * sum / ref_.truth.size();
    }

  private:
    struct Results
    {
        std::vector<refsim::RefSimResult> truth, stat, fixed;
        double values = 0.0;
    };

    /** simulateValueLevel per layer, then both estimators, as
     *  `cimloop --refsim` and bench/fig6_accuracy do. */
    Results run(Tracer* t)
    {
        auto span = [t](const char* name) -> std::unique_ptr<Span> {
            return t ? std::make_unique<Span>(*t, name) : nullptr;
        };
        Results res;
        std::vector<dist::OperandProfile> profiles;
        for (const workload::Layer& l : layers_) {
            dist::OperandProfile prof;
            auto s = span("refsim.value_level");
            res.truth.push_back(refsim::simulateValueLevel(cfg_, l, &prof));
            res.values +=
                static_cast<double>(res.truth.back().valuesSimulated);
            profiles.push_back(std::move(prof));
        }
        dist::OperandProfile avg = refsim::averageProfiles(profiles);
        for (std::size_t i = 0; i < layers_.size(); ++i) {
            {
                auto s = span("refsim.statistical");
                res.stat.push_back(refsim::estimateStatistical(
                    cfg_, layers_[i], profiles[i]));
            }
            auto s = span("refsim.fixed");
            res.fixed.push_back(
                refsim::estimateFixedEnergy(cfg_, layers_[i], avg));
        }
        return res;
    }

    static bool same(const Results& a, const Results& b)
    {
        auto eq = [](const std::vector<refsim::RefSimResult>& x,
                     const std::vector<refsim::RefSimResult>& y) {
            if (x.size() != y.size())
                return false;
            for (std::size_t i = 0; i < x.size(); ++i) {
                if (x[i].dacPj != y[i].dacPj || x[i].cellPj != y[i].cellPj ||
                    x[i].adcPj != y[i].adcPj ||
                    x[i].digitalPj != y[i].digitalPj ||
                    x[i].bufferPj != y[i].bufferPj || x[i].ops != y[i].ops ||
                    x[i].valuesSimulated != y[i].valuesSimulated)
                    return false;
            }
            return true;
        };
        return eq(a.truth, b.truth) && eq(a.stat, b.stat) &&
               eq(a.fixed, b.fixed);
    }

    std::uint64_t seed_;
    refsim::RefSimConfig cfg_;
    std::vector<workload::Layer> layers_;
    Results ref_;
    Counters refCounters_;
    LatticeCount lattice_;
    double values_ = 0.0;
    int tracedOps_ = 0;
};

// ---------------------------------------------------------------------
// serve_mixed: `cimloop serve` on a Unix socket, one closed-loop client.

/** A blocking NDJSON client connection. */
class LineClient
{
  public:
    LineClient() = default;
    LineClient(const LineClient&) = delete;
    LineClient& operator=(const LineClient&) = delete;
    ~LineClient() { close(); }

    /** Connects, retrying while the daemon starts. */
    bool connect(const std::string& path, double timeout_s)
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (path.size() >= sizeof(addr.sun_path))
            return false;
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        std::int64_t deadline =
            nowNs() + static_cast<std::int64_t>(timeout_s * 1e9);
        while (nowNs() < deadline) {
            fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
            if (fd_ < 0)
                return false;
            if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)) == 0)
                return true;
            close();
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        return false;
    }

    /** Sends one line and reads one response line. */
    bool roundTrip(const std::string& line, std::string& response)
    {
        std::string out = line + "\n";
        std::size_t off = 0;
        while (off < out.size()) {
            ssize_t n = ::send(fd_, out.data() + off, out.size() - off,
                               MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            off += static_cast<std::size_t>(n);
        }
        for (;;) {
            std::size_t nl = buf_.find('\n');
            if (nl != std::string::npos) {
                response = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                return true;
            }
            char chunk[65536];
            ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            buf_.append(chunk, static_cast<std::size_t>(n));
        }
    }

    void close()
    {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = -1;
        buf_.clear();
    }

  private:
    int fd_ = -1;
    std::string buf_;
};

class ServeMixed : public Workload
{
  public:
    /** Requests per seeded sequence; ops cycle through it. */
    static constexpr std::size_t kSequence = 4096;

    ServeMixed(std::uint64_t seed, std::string scratch)
        : seed_(seed), scratch_(std::move(scratch))
    {}
    ~ServeMixed() override { tearDown(); }

    const char* workUnit() const override { return "mapping evaluation"; }

    void setUp() override
    {
        mix_ = serveRequestMix(seed_, kSequence);
        socket_ = scratch_ + "/serve-" + std::to_string(::getpid()) +
                  ".sock";
        daemon_ = std::thread([this] {
            std::ostringstream out, err;
            serve::runServe({"--listen", socket_, "--threads", "1"}, out,
                            err);
        });
        if (!client_.connect(socket_, 30.0))
            throw std::runtime_error("serve_mixed: cannot connect to " +
                                     socket_);
        // Warm every request class and variant, in sequence order, so
        // the cross-request cache and every memo are filled. These
        // responses are the reference every later op must reproduce.
        for (const ServeRequest& rq : mix_) {
            if (warm_.count(rq.key))
                continue;
            std::string resp;
            if (!client_.roundTrip(rq.line, resp))
                throw std::runtime_error("serve_mixed: warm-up failed");
            std::optional<serve::JsonValue> v = serve::parseJson(resp);
            if (!v)
                throw std::runtime_error("serve_mixed: bad response");
            warm_[rq.key] = {withoutId(resp), *v};
        }
    }

    OpResult op() override
    {
        const ServeRequest& rq = mix_[next_++ % mix_.size()];
        OpResult r;
        r.opClass = rq.cls;
        Counters before = counters();
        std::string resp;
        bool io = false;
        {
            OpTimer timer(r);
            io = client_.roundTrip(rq.line, resp);
            timer.stop();
        }
        Counters d = delta(before, counters());
        if (!io) {
            fail(r, "socket round trip failed");
            return r;
        }
        std::string why = check(rq, resp);
        if (!why.empty())
            fail(r, rq.key + ": " + why);
        auto [it, fresh] = opCounters_.emplace(rq.key, d);
        if (!fresh && it->second != d)
            fail(r, rq.key + ": obs counters differ between repeats");
        r.workUnits = mappingEvaluations(d);
        ++opsByKey_[rq.key];
        return r;
    }

    /** Replays the request the last op() sent, in process. */
    OpResult tracedOp(Tracer& t) override
    {
        const ServeRequest& rq = mix_[(next_ ? next_ - 1 : 0) % mix_.size()];
        OpResult r;
        r.opClass = rq.cls;
        const serve::JsonValue& warm = warm_.at(rq.key).value;
        CancelToken token;
        std::string resp, pong;
        bool io = false;
        cache_.begin();
        Counters before = counters();
        t.openOp();
        {
            Span e(t, "serve.execute");
            resp = serve::handleRequestLine(state_, clientState_, rq.line,
                                            token);
            {
                Span p(t, "serve.parse", kShadow);
                if (!serve::parseJson(rq.line) && rq.errorKind != "parse")
                    fail(r, "request line does not parse");
            }
            {
                Span w(t, "serve.respond", kShadow);
                if (serve::writeJson(warm).empty())
                    fail(r, "empty response");
            }
        }
        {
            Span s(t, "serve.socket");
            io = client_.roundTrip("{\"id\":0,\"kind\":\"ping\"}", pong);
        }
        r.trace = t.closeOp();
        cache_.end();
        r.workUnits = mappingEvaluations(delta(before, counters()));
        ++opsByKey_[rq.key];
        std::string why = check(rq, resp);
        if (!why.empty())
            fail(r, rq.key + " (in process): " + why);
        if (!io || pong.find("\"pong\":true") == std::string::npos)
            fail(r, "socket ping failed");
        return r;
    }

    void tearDown() override
    {
        if (!daemon_.joinable())
            return;
        std::string resp;
        bool sent = client_.roundTrip(
            "{\"id\":0,\"kind\":\"shutdown\"}", resp);
        client_.close();
        if (!sent) {
            // The connection is gone; a fresh one can still stop it.
            LineClient c;
            if (c.connect(socket_, 5.0))
                c.roundTrip("{\"id\":0,\"kind\":\"shutdown\"}", resp);
        }
        daemon_.join();
    }

    /** The one-shot CLI for every executed request key; run after the
     *  daemon stopped, because cli::run clears the shared cache. */
    std::uint64_t verifyAfterRun() override
    {
        std::uint64_t failed = 0;
        std::map<std::string, bool> done;
        for (const ServeRequest& rq : mix_) {
            if (rq.cliArgs.empty() || done[rq.key])
                continue;
            done[rq.key] = true;
            std::ostringstream out, err;
            int rc = cli::run(rq.cliArgs, out, err);
            const serve::JsonValue* so = warm_.at(rq.key).value.get("stdout");
            if (rc != 0 || !so || so->text != out.str()) {
                std::cerr << "perfbench: " << rq.key
                          << ": daemon stdout differs from cli::run\n";
                failed += opsByKey_[rq.key];
            }
        }
        return failed;
    }

    std::string digest() const override
    {
        Digest d;
        for (const auto& [key, w] : warm_) {
            d.add(key);
            if (const serve::JsonValue* so = w.value.get("stdout"))
                d.add(so->text);
        }
        return d.hex();
    }

    std::map<std::string, double> layerExtras() const override
    {
        return {{"serve.cache.hit_ratio", cache_.ratio()},
                {"engine.cache.hit_ratio", cache_.ratio()}};
    }

  private:
    struct Warm
    {
        std::string text; //!< response without its id
        serve::JsonValue value;
    };

    /** The response after its `"id":...,` prefix, which differs per
     *  request; every other byte must repeat. */
    static std::string withoutId(const std::string& resp)
    {
        std::size_t comma = resp.find(',');
        return comma == std::string::npos ? resp : resp.substr(comma);
    }

    static double mappingEvaluations(const Counters& d)
    {
        double n = 0.0;
        for (const auto& [name, v] : d) {
            if (name == "mapping.search.evaluated" ||
                name == "mapping.search.invalid")
                n += static_cast<double>(v);
        }
        return n;
    }

    /** Empty when @p resp is the right answer to @p rq. */
    std::string check(const ServeRequest& rq, const std::string& resp) const
    {
        std::optional<serve::JsonValue> v = serve::parseJson(resp);
        if (!v || !v->isObject())
            return "response is not a JSON object";
        const serve::JsonValue* ok = v->get("ok");
        if (!ok || !ok->isBool())
            return "response lacks ok";
        if (!rq.errorKind.empty()) {
            const serve::JsonValue* err = v->get("error");
            const serve::JsonValue* kind = err ? err->get("kind") : nullptr;
            if (ok->boolean || !kind || kind->text != rq.errorKind)
                return "expected a structured " + rq.errorKind + " error";
            return "";
        }
        if (!ok->boolean)
            return "request failed: " + resp.substr(0, 200);
        if (rq.cls == "metrics")
            return v->get("result") ? "" : "response lacks result";
        if (withoutId(resp) != warm_.at(rq.key).text)
            return "response differs from the warm-up response";
        return "";
    }

    std::uint64_t seed_;
    std::string scratch_;
    std::string socket_;
    std::vector<ServeRequest> mix_;
    std::map<std::string, Warm> warm_;
    std::map<std::string, Counters> opCounters_;
    std::map<std::string, std::uint64_t> opsByKey_;
    std::thread daemon_;
    LineClient client_;
    serve::ServerState state_;
    serve::ClientState clientState_;
    std::size_t next_ = 0;
    CacheWindow cache_;
};

} // namespace

std::vector<ServeRequest>
serveRequestMix(std::uint64_t seed, std::size_t n)
{
    // Requests come in shuffled blocks of 20 with a fixed class
    // composition, so every run sees the same mix whatever its length,
    // and the executed classes use the same three request seeds for
    // every benchmark seed (which picks the order and the variants), so
    // runs differ only in order. The heavy evaluate class holds 35% of
    // requests: the tail percentile (ten samples beyond it) sits inside
    // it rather than on a few rare requests. The sweep class spans the
    // 35th to 65th percentiles, so the median is its median.
    struct Class
    {
        const char* name;
        int perBlock;
    };
    static const Class kClasses[] = {
        {"eval_heavy", 7}, {"sweep", 6},   {"eval_light", 3},
        {"ping", 2},       {"metrics", 1}, {"malformed", 1},
    };
    static const char* const kMalformed[][2] = {
        {"this is not json", "parse"},
        {"{\"kind\":\"teleport\"}", "protocol"},
        {"{\"kind\":\"evaluate\",\"mappings\":\"many\"}", "protocol"},
        {"{\"kind\":\"evaluate\",\"macro\":\"base\",\"network\":\"mvm\","
         "\"mappings\":-5}",
         "usage"},
    };
    constexpr int kVariants = 3; // request seeds per executed class

    std::vector<std::string> block;
    for (const Class& c : kClasses)
        block.insert(block.end(), static_cast<std::size_t>(c.perBlock),
                     c.name);

    Rng rng = Rng::forStream(seed, 0x5e7e);
    std::vector<ServeRequest> mix;
    mix.reserve(n);
    while (mix.size() < n) {
        for (std::size_t i = block.size(); i > 1; --i)
            std::swap(block[i - 1], block[rng.below(i)]);
        for (std::size_t b = 0; b < block.size() && mix.size() < n; ++b) {
            ServeRequest rq;
            rq.cls = block[b];
            const std::string id = std::to_string(mix.size() + 1);
            const int v = static_cast<int>(rng.below(kVariants));
            const std::string s = std::to_string(1 + v);
            if (rq.cls == "eval_heavy" || rq.cls == "eval_light") {
                bool heavy = rq.cls == "eval_heavy";
                std::string net = heavy ? "resnet18" : "mvm";
                std::string maps = heavy ? "1200" : "200";
                rq.key = rq.cls + "/" + std::to_string(v);
                rq.line = "{\"id\":" + id +
                          ",\"kind\":\"evaluate\",\"macro\":\"base\","
                          "\"network\":\"" +
                          net + "\",\"mappings\":" + maps +
                          ",\"seed\":" + s + ",\"threads\":1}";
                rq.cliArgs = {"--macro",    "base", "--network", net,
                              "--mappings", maps,   "--seed",    s,
                              "--threads",  "1"};
            } else if (rq.cls == "sweep") {
                rq.key = rq.cls + "/" + std::to_string(v);
                rq.line = "{\"id\":" + id +
                          ",\"kind\":\"sweep\","
                          "\"sweep\":\"examples/sweep.yaml\",\"seed\":" +
                          s + ",\"threads\":1}";
                rq.cliArgs = {"--sweep", "examples/sweep.yaml", "--seed", s,
                              "--threads", "1"};
            } else if (rq.cls == "ping" || rq.cls == "metrics") {
                rq.key = rq.cls;
                rq.line =
                    "{\"id\":" + id + ",\"kind\":\"" + rq.cls + "\"}";
            } else {
                std::size_t k = rng.below(std::size(kMalformed));
                rq.key = rq.cls + "/" + std::to_string(k);
                rq.line = kMalformed[k][0];
                rq.errorKind = kMalformed[k][1];
            }
            mix.push_back(std::move(rq));
        }
    }
    return mix;
}

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names = {
        "resnet18_search", "precompute_sweep", "refsim_fig6",
        "serve_mixed"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string& name, std::uint64_t seed,
             const std::string& scratch)
{
    if (name == "resnet18_search")
        return std::make_unique<Resnet18Search>(seed);
    if (name == "precompute_sweep")
        return std::make_unique<PrecomputeSweep>(seed, scratch);
    if (name == "refsim_fig6")
        return std::make_unique<RefsimFig6>(seed);
    if (name == "serve_mixed")
        return std::make_unique<ServeMixed>(seed, scratch);
    return nullptr;
}

} // namespace perfbench
