/**
 * @file
 * The chunked parallel sweep executor, its streaming Pareto frontier
 * (over the shared common/pareto.hh front), and checkpoint/resume.
 *
 * Determinism: the grid is sharded into fixed-size chunks processed in
 * grid order; inside a chunk points are claimed dynamically but every
 * worker writes only its own slot, and every order-sensitive step —
 * counting, frontier maintenance, best-point selection, cache-economy
 * accounting, counter bumps — happens on the calling thread after the
 * chunk joins, over the slots in grid order. Combined with the engine's
 * scheduling-invariant search, a sweep's table, CSV/JSON artifacts, and
 * obs counters are byte-identical for any --threads and any chunk size
 * at a fixed seed. Resume folds journaled chunks through the same
 * per-point path, so an interrupted-then-resumed run reproduces an
 * uninterrupted run's bytes exactly.
 *
 * Memory: with SweepOptions::resumeDir each completed chunk commits to
 * the on-disk journal, and grids past maxPointsInMemory keep only the
 * frontier, a few failure samples, and the summary in RAM — million-
 * point sweeps run in O(chunk + frontier) memory.
 */
#include "cimloop/dse/dse.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <sstream>
#include <unordered_set>

#include "cimloop/common/error.hh"
#include "cimloop/common/parallel.hh"
#include "cimloop/common/pareto.hh"
#include "cimloop/common/util.hh"
#include "cimloop/dse/journal.hh"
#include "cimloop/layout/layout.hh"
#include "cimloop/obs/obs.hh"
#include "cimloop/workload/networks.hh"

namespace cimloop::dse {

namespace {

/** Points per chunk when SweepOptions::chunkSize is 0. */
constexpr std::size_t kDefaultChunkSize = 1024;

/** Non-Ok points kept for the report in memory-bounded mode. */
constexpr std::size_t kFailureSampleCap = 20;

/** Key of the network a point runs ("name:mvm" / "file:net.yaml"). */
std::string
networkKey(const SweepPoint& point)
{
    return point.workloadPath.empty() ? "name:" + point.networkName
                                      : "file:" + point.workloadPath;
}

/**
 * Loads every distinct network the grid can reference, serially and up
 * front: a bad network name or unreadable workload file is a spec-level
 * error (fatal before any point runs), not a per-point failure, and
 * workers then share immutable Network objects. One load per
 * sweepNetworkKeys() entry — O(#networks), never O(#points).
 */
std::map<std::string, workload::Network>
preloadNetworks(const SweepSpec& spec)
{
    std::map<std::string, workload::Network> nets;
    for (const std::string& key : sweepNetworkKeys(spec)) {
        if (nets.count(key))
            continue;
        nets.emplace(key, startsWith(key, "name:")
                              ? workload::networkByName(key.substr(5))
                              : workload::networkFromFile(
                                    key.substr(5)));
    }
    return nets;
}

/**
 * Prefixes a message with its kind unless the message already starts
 * with it — CIM_FATAL/CIM_PANIC texts carry "fatal: "/"panic: ".
 */
std::string
kindPrefixed(const std::string& kind, const std::string& message)
{
    const std::string prefix = kind + ": ";
    if (message.rfind(prefix, 0) == 0)
        return message;
    return prefix + message;
}

/** "layer 3 (conv4_x): fatal: ..." summary of keep-going diagnostics. */
std::string
describeDiagnostics(const std::vector<engine::LayerDiagnostic>& diags)
{
    std::ostringstream oss;
    for (std::size_t i = 0; i < diags.size(); ++i) {
        if (i)
            oss << "; ";
        oss << "layer " << diags[i].layerIndex << " (" << diags[i].layer
            << "): " << kindPrefixed(diags[i].kind, diags[i].message);
    }
    return oss.str();
}

/** Classifies a caught exception the way LayerDiagnostic.kind does. */
std::string
classifyFailure(std::exception_ptr error)
{
    try {
        std::rethrow_exception(error);
    } catch (const FatalError& e) {
        return kindPrefixed("fatal", e.what());
    } catch (const PanicError& e) {
        return kindPrefixed("panic", e.what());
    } catch (const CancelledError& e) {
        return kindPrefixed("cancelled", e.what());
    } catch (const std::exception& e) {
        return kindPrefixed("exception", e.what());
    }
}

/** Reads one Pareto objective off an evaluated point. */
double
objectiveValue(const PointResult& pr, const std::string& name)
{
    if (name == "energy")
        return pr.energyPj;
    if (name == "energy_per_mac")
        return pr.energyPerMacPj;
    if (name == "latency")
        return pr.latencyNs;
    if (name == "area")
        return pr.areaUm2;
    if (name == "accuracy")
        return pr.accuracyLoss;
    CIM_PANIC("unvalidated pareto objective '", name, "'");
}

/** Evaluates one point in place; never throws. */
void
evaluatePoint(const SweepSpec& spec,
              const std::map<std::string, workload::Network>& networks,
              int inner_threads, PointResult& pr)
{
    std::string reason;
    if (!pointIsValid(spec, pr.point, &reason)) {
        pr.status = PointStatus::Skipped;
        pr.statusDetail = reason;
        return;
    }
    try {
        // Per-point fault values come from axes, so out-of-range ones
        // are a point failure (with the axis values in the label), not
        // a spec failure.
        pr.point.faults.validate();
        engine::Arch arch =
            macros::macroByName(pr.point.macroName, pr.point.params);
        arch.faults = pr.point.faults;
        if (pr.point.layoutName == "search") {
            arch.layoutSearch = true;
        } else if (pr.point.layoutName != "none") {
            // A bad preset name or unreadable layout file is a point
            // failure (the axis value names it), caught below.
            arch.layout = layout::presetLayout(pr.point.layoutName,
                                               arch.hierarchy);
        }
        const workload::Network& net =
            networks.at(networkKey(pr.point));
        pr.engineTouched = true;
        engine::NetworkEvaluation ev = engine::evaluateNetwork(
            arch, net, pr.point.mappings, pr.point.seed,
            {.objective = pr.point.objective,
             .threads = inner_threads,
             .keepGoing = true});
        if (!ev.complete()) {
            pr.status = PointStatus::Failed;
            pr.layerDiagnostics = ev.diagnostics;
            pr.statusDetail = describeDiagnostics(ev.diagnostics);
            return;
        }
        pr.status = PointStatus::Ok;
        pr.energyPj = ev.energyPj;
        pr.energyPerMacPj = ev.energyPerMacPj();
        pr.latencyNs = ev.latencyNs;
        pr.areaUm2 = ev.areaUm2;
        pr.macs = ev.macs;
        pr.topsPerWatt = ev.topsPerWatt();
        pr.accuracyLoss =
            accuracyLossProxy(pr.point.params, pr.point.faults);
        // A NaN/inf objective compares false against everything, so it
        // would silently survive every dominance check and sit on the
        // frontier; demote it to an explicit failure instead.
        if (const char* bad = nonFiniteMetric(pr)) {
            pr.status = PointStatus::Failed;
            pr.statusDetail =
                std::string("non-finite metric ") + bad +
                " — the design evaluated to NaN/inf and cannot be "
                "ranked";
        }
    } catch (...) {
        pr.status = PointStatus::Failed;
        pr.statusDetail = classifyFailure(std::current_exception());
    }
}

/**
 * Serialization of everything that decides whether two points share
 * per-action tables: the resolved design (macro + every MacroParams
 * field), the fault model, and the network. Points that differ only in
 * mapper budget / seed / objective — or layout, which reshapes the
 * latency model but never the per-action energies — share tables. The
 * cache economy in SweepResult is computed from the set of these, which
 * makes it a pure function of the point stream — identical for resumed
 * runs whose process-local cache starts cold.
 */
std::string
designSignature(const SweepPoint& point)
{
    const macros::MacroParams& p = point.params;
    const faults::FaultModel& f = point.faults;
    std::ostringstream oss;
    oss.precision(17);
    oss << toLower(point.macroName) << '\x1f' << p.rows << ' '
        << p.cols << ' ' << p.inputBits << ' ' << p.weightBits << ' '
        << p.dacBits << ' ' << p.cellBits << ' ' << p.adcBits << ' '
        << p.technologyNm << ' ' << p.supplyVoltage << ' '
        << static_cast<int>(p.inputEncoding) << ' '
        << static_cast<int>(p.weightEncoding) << ' ' << p.bufferKb
        << ' ' << p.outputReuseCols << ' ' << p.adderOperands << ' '
        << p.weightBankRows << '\x1f' << f.stuckOffRate << ' '
        << f.stuckOnRate << ' ' << f.conductanceSigma << ' '
        << f.adcOffset << ' ' << f.adcNoiseSigma << ' ' << f.seed
        << '\x1f' << networkKey(point);
    return oss.str();
}

/** Rebuilds a PointResult from its journal record. */
PointResult
restoreRecord(const SweepSpec& spec, const JournalRecord& rec)
{
    PointResult pr;
    try {
        pr.point = materializePoint(spec, rec.index);
    } catch (...) {
        // The original run recorded this materialization failure; the
        // shell keeps the index and axis columns printable.
        pr.point = pointShell(spec, rec.index);
    }
    pr.status = rec.status;
    pr.engineTouched = rec.engineTouched;
    pr.statusDetail = rec.statusDetail;
    pr.energyPj = rec.metrics[0];
    pr.energyPerMacPj = rec.metrics[1];
    pr.latencyNs = rec.metrics[2];
    pr.areaUm2 = rec.metrics[3];
    pr.macs = rec.metrics[4];
    pr.topsPerWatt = rec.metrics[5];
    pr.accuracyLoss = rec.metrics[6];
    return pr;
}

/**
 * Rebuilds a point of a committed chunk that has no journal record:
 * only skips are unjournaled (validity is a pure function of the spec),
 * so a valid point without a record means the journal and the spec
 * disagree.
 */
PointResult
restoreSkipped(const SweepSpec& spec, std::size_t index,
               const std::string& dir)
{
    PointResult pr;
    pr.point = materializePoint(spec, index);
    std::string reason;
    if (pointIsValid(spec, pr.point, &reason)) {
        CIM_FATAL("sweep journal at '", dir,
                  "' has no record for valid point ", index,
                  " of a committed chunk — journal corrupt or spec "
                  "drifted; use a fresh --resume directory");
    }
    pr.status = PointStatus::Skipped;
    pr.statusDetail = reason;
    return pr;
}

} // namespace

const char*
nonFiniteMetric(const PointResult& pr)
{
    if (!std::isfinite(pr.energyPj))
        return "energy_pj";
    if (!std::isfinite(pr.energyPerMacPj))
        return "energy_per_mac_pj";
    if (!std::isfinite(pr.latencyNs))
        return "latency_ns";
    if (!std::isfinite(pr.areaUm2))
        return "area_um2";
    if (!std::isfinite(pr.macs))
        return "macs";
    if (!std::isfinite(pr.topsPerWatt))
        return "tops_per_watt";
    if (!std::isfinite(pr.accuracyLoss))
        return "accuracy_loss";
    return nullptr;
}

std::vector<std::string>
sweepNetworkKeys(const SweepSpec& spec)
{
    for (const Axis& axis : spec.axes) {
        if (axis.field != "network")
            continue;
        // The network choice depends only on this axis's coordinate
        // (validate() forbids combining it with sweep.workload).
        std::vector<std::string> keys;
        for (const AxisValue& v : axis.values) {
            std::string key = "name:" + v.text;
            if (std::find(keys.begin(), keys.end(), key) == keys.end())
                keys.push_back(std::move(key));
        }
        return keys;
    }
    return {spec.workloadPath.empty() ? "name:" + spec.network
                                      : "file:" + spec.workloadPath};
}

std::vector<std::size_t>
paretoIndices(const std::vector<std::vector<double>>& objectives)
{
    if (objectives.empty())
        return {};
    ParetoFront front(objectives.front().size());
    for (std::size_t i = 0; i < objectives.size(); ++i)
        front.insert(i, objectives[i]);
    return front.indices();
}

const PointResult*
SweepResult::findPoint(std::size_t index) const
{
    auto it = std::lower_bound(
        points.begin(), points.end(), index,
        [](const PointResult& pr, std::size_t i) {
            return pr.point.index < i;
        });
    if (it == points.end() || it->point.index != index)
        return nullptr;
    return &*it;
}

SweepResult
runSweep(const SweepSpec& spec, const SweepOptions& opts)
{
    static obs::Counter& c_total = obs::counter("dse.points_total");
    static obs::Counter& c_eval = obs::counter("dse.points_evaluated");
    static obs::Counter& c_failed = obs::counter("dse.points_failed");
    static obs::Counter& c_skipped = obs::counter("dse.points_skipped");
    static obs::Counter& c_pareto = obs::counter("dse.points_pareto");
    static obs::Counter& c_hits = obs::counter("dse.cache.hits");
    static obs::Counter& c_misses = obs::counter("dse.cache.misses");
    static obs::Counter& c_chunks_total =
        obs::counter("dse.chunks_total");
    static obs::Counter& c_chunks_exec =
        obs::counter("dse.chunks_executed");
    static obs::Counter& c_chunks_resumed =
        obs::counter("dse.chunks_resumed");
    static obs::Counter& c_resume_skip =
        obs::counter("dse.resume.points_skipped");
    static obs::Counter& c_cancelled = obs::counter("dse.cancelled");

    spec.validate();
    CIM_SPAN("dse.sweep");
    const std::size_t n = spec.pointCount();
    const auto networks = preloadNetworks(spec);

    SweepResult result;
    result.name = spec.name;
    result.paretoObjectives = spec.paretoObjectives;
    for (const Axis& axis : spec.axes)
        result.axisFields.push_back(axis.field);
    result.totalPoints = n;

    const std::size_t chunkSize = std::min<std::size_t>(
        std::max<std::size_t>(n, 1),
        opts.chunkSize ? opts.chunkSize : kDefaultChunkSize);
    result.chunksTotal = (n + chunkSize - 1) / chunkSize;
    const bool bounded = n > opts.maxPointsInMemory;
    result.pointsStored = !bounded;
    if (!bounded)
        result.points.reserve(n);

    std::optional<SweepJournal> journal;
    if (!opts.resumeDir.empty()) {
        journal.emplace(opts.resumeDir, specFingerprint(spec), n,
                        chunkSize, spec.name);
    }

    ParetoFront front(spec.paretoObjectives.size());
    std::map<std::size_t, PointResult> frontierPoints; // bounded mode
    std::unordered_set<std::uint64_t> designsSeen;
    std::uint64_t lookups = 0;
    std::uint64_t misses = 0;
    std::size_t bestIdx = static_cast<std::size_t>(-1);
    double bestVal = 0.0;

    auto layerCount = [&](const SweepPoint& point) -> std::uint64_t {
        auto it = networks.find(networkKey(point));
        return it == networks.end() ? 0 : it->second.layers.size();
    };

    // Folds one point — live or journal-restored — into counts,
    // frontier, best, cache economy, and storage. Called in grid
    // order only.
    auto foldPoint = [&](PointResult&& pr) {
        switch (pr.status) {
        case PointStatus::Ok:
            ++result.evaluated;
            break;
        case PointStatus::Failed:
            ++result.failed;
            break;
        case PointStatus::Skipped:
            ++result.skipped;
            break;
        }
        if (pr.engineTouched) {
            const std::uint64_t layers = layerCount(pr.point);
            lookups += layers;
            if (designsSeen.insert(fnv1a64(designSignature(pr.point)))
                    .second) {
                misses += layers;
            }
        }
        if (pr.status == PointStatus::Ok) {
            std::vector<double> row;
            row.reserve(spec.paretoObjectives.size());
            for (const std::string& name : spec.paretoObjectives)
                row.push_back(objectiveValue(pr, name));
            if (bestIdx == static_cast<std::size_t>(-1) ||
                row[0] < bestVal) {
                bestIdx = pr.point.index;
                bestVal = row[0];
            }
            const ParetoFront::Insertion ins =
                front.insert(pr.point.index, row);
            if (bounded) {
                for (std::size_t ev : ins.evicted)
                    frontierPoints.erase(ev);
                if (ins.added)
                    frontierPoints.emplace(pr.point.index,
                                           std::move(pr));
                return;
            }
        } else if (bounded &&
                   result.failureSamples.size() < kFailureSampleCap) {
            result.failureSamples.push_back(pr);
        }
        if (!bounded)
            result.points.push_back(std::move(pr));
    };

    for (std::size_t chunk = 0; chunk < result.chunksTotal; ++chunk) {
        const std::size_t from = chunk * chunkSize;
        const std::size_t to = std::min(n, from + chunkSize);
        if (journal && journal->chunkCompleted(chunk)) {
            for (std::size_t i = from; i < to; ++i) {
                const JournalRecord* rec = journal->record(i);
                foldPoint(rec ? restoreRecord(spec, *rec)
                              : restoreSkipped(spec, i,
                                               journal->dir()));
            }
            ++result.chunksResumed;
            result.resumedPoints += to - from;
            continue;
        }
        if (opts.maxChunks &&
            result.chunksExecuted >= opts.maxChunks) {
            result.stoppedEarly = true;
            break;
        }
        // The chunk boundary is the only place the sweep acts on its
        // token: the chunk that was in flight when the token fired has
        // already committed (journal and fold alike), so stopping here is
        // indistinguishable from a maxChunks stop — the journal holds
        // only whole chunks and a resumed run reproduces the
        // uninterrupted bytes.
        if (opts.cancel.cancelled()) {
            result.stoppedEarly = true;
            result.cancelled = true;
            c_cancelled.add();
            break;
        }

        // Points fan out first; leftover threads split each point's
        // per-layer/mapping work.
        const std::size_t count = to - from;
        const ThreadSplit split = splitThreads(opts.threads, count);
        std::vector<PointResult> chunkResults(count);
        std::vector<WorkerError> errors =
            parallelForAll(split.outer, count, [&](std::size_t j) {
                PointResult& pr = chunkResults[j];
                pr.point = materializePoint(spec, from + j);
                evaluatePoint(spec, networks, split.inner, pr);
            });
        // evaluatePoint() swallows everything, so only
        // materializePoint() can leak an exception here; record it as
        // a point failure labeled with the shell's axis values rather
        // than aborting a mostly-finished sweep.
        for (const WorkerError& we : errors) {
            PointResult& pr = chunkResults[we.index];
            pr = PointResult{};
            pr.point = pointShell(spec, from + we.index);
            pr.status = PointStatus::Failed;
            pr.statusDetail = classifyFailure(we.error);
        }
        if (journal)
            journal->appendChunk(chunk, from, to, chunkResults);
        for (PointResult& pr : chunkResults)
            foldPoint(std::move(pr));
        ++result.chunksExecuted;
    }

    result.frontier = front.indices();
    if (!bounded) {
        for (std::size_t idx : result.frontier) {
            CIM_ASSERT(idx < result.points.size() &&
                           result.points[idx].point.index == idx,
                       "stored sweep points must be in grid order");
            result.points[idx].onFrontier = true;
        }
    } else {
        result.points.reserve(frontierPoints.size());
        for (auto& [idx, pr] : frontierPoints) {
            (void)idx;
            pr.onFrontier = true;
            result.points.push_back(std::move(pr));
        }
    }
    result.bestIndex = bestIdx;
    result.cacheMisses = misses;
    result.cacheHits = lookups - misses;

    c_total.add(n);
    c_eval.add(result.evaluated);
    c_failed.add(result.failed);
    c_skipped.add(result.skipped);
    c_pareto.add(result.frontier.size());
    c_hits.add(result.cacheHits);
    c_misses.add(result.cacheMisses);
    c_chunks_total.add(result.chunksTotal);
    c_chunks_exec.add(result.chunksExecuted);
    c_chunks_resumed.add(result.chunksResumed);
    c_resume_skip.add(result.resumedPoints);
    return result;
}

std::vector<PointResult>
forEachPoint(const SweepSpec& spec, int threads,
             const std::function<void(const SweepPoint&)>& fn)
{
    spec.validateGrid();
    const std::size_t n = spec.pointCount();
    std::vector<PointResult> results(n);
    parallelForAll(std::max(1, threads), n, [&](std::size_t i) {
        PointResult& pr = results[i];
        pr.point = materializePoint(spec, i);
        std::string reason;
        if (!pointIsValid(spec, pr.point, &reason)) {
            pr.status = PointStatus::Skipped;
            pr.statusDetail = reason;
            return;
        }
        try {
            fn(pr.point);
            pr.status = PointStatus::Ok;
        } catch (...) {
            pr.status = PointStatus::Failed;
            pr.statusDetail = classifyFailure(std::current_exception());
        }
    });
    return results;
}

} // namespace cimloop::dse
