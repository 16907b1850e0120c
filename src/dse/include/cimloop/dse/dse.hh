/**
 * @file
 * Declarative design-space exploration (the paper's motivating use case,
 * Sec. II-B; every sweep figure — 2a/2b, 7-16 — is an instance).
 *
 * A SweepSpec names axes over the macro knobs (rows/cols, DAC/ADC/cell
 * bits, voltage), the fault-model knobs, the network choice, and the
 * mapper budget; the executor materializes the Cartesian grid, shards it
 * over worker threads, evaluates every point through the keep-going
 * network evaluator (one unmappable design never kills the sweep), and
 * merges results in point-index order — so the sweep table, the CSV/JSON
 * artifacts, and every obs counter are byte-identical for any thread
 * count at a fixed seed.
 *
 * Because each point evaluates with the same seed a standalone
 * evaluateNetwork() call would use, a sweep reproduces the exact numbers
 * of the hand-rolled nested loops it replaces, and points that share an
 * (arch, layer) pair — e.g. the same design at two mapper budgets — reuse
 * the process-wide per-action cache instead of re-running precompute.
 */
#ifndef CIMLOOP_DSE_DSE_HH
#define CIMLOOP_DSE_DSE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cimloop/engine/evaluate.hh"
#include "cimloop/faults/faults.hh"
#include "cimloop/macros/macros.hh"

namespace cimloop::yaml {
class Node;
} // namespace cimloop::yaml

namespace cimloop::dse {

/** One axis value: a number for the numeric fields, a string for the
 *  `macro` / `network` fields. `text` is the rendered form used in point
 *  labels and the CSV/JSON exporters. */
struct AxisValue
{
    double num = 0.0;
    std::string text;
    bool isString = false;
};

/** One sweep axis: a field name plus the values it takes. */
struct Axis
{
    std::string field;
    std::vector<AxisValue> values;
};

/** Per-point validity bound on a numeric field (a declarative
 *  predicate): points whose materialized field value falls outside
 *  [min, max] are skipped, not failed. */
struct Constraint
{
    std::string field;
    bool hasMin = false;
    bool hasMax = false;
    double min = 0.0;
    double max = 0.0;
};

struct SweepPoint;

/**
 * A declarative sweep: base design + axes + constraints + objectives.
 *
 * YAML form (either bare or under a top-level `sweep:` key):
 *
 *   sweep:
 *     name: codesign-grid
 *     macro: base                 # base | A | B | C | D | digital
 *     network: resnet18           # exactly one of network / workload
 *     # workload: net.yaml
 *     mappings: 100               # mapper budget per layer
 *     seed: 1
 *     objective: energy           # energy | edp | delay
 *     scaled_adc: true            # adc_bits tracks the array size
 *     pareto: [energy_per_mac, latency]
 *     axes:
 *       - field: array            # sets rows and cols together
 *         values: [64, 128, 256]  # explicit list...
 *       - field: dac_bits
 *         range: {from: 1, to: 8, mult: 2}   # ...or a grid range
 *     constraints:
 *       - {field: adc_bits, max: 14}
 *     faults:                     # base fault model (axes override)
 *       conductance_sigma: 0.1
 *
 * Axis fields: rows, cols, array, dac_bits, adc_bits, cell_bits,
 * input_bits, weight_bits, voltage, tech_nm, buffer_kb, mappings,
 * fault_stuck_rate, stuck_off_rate, stuck_on_rate, fault_sigma,
 * adc_offset, adc_noise_sigma, fault_seed, and the string-valued
 * macro / network / layout.
 */
struct SweepSpec
{
    std::string name = "sweep";
    std::string macro = "base";
    std::string network;      //!< bundled network name
    std::string workloadPath; //!< or a workload YAML file

    int mappings = 100;      //!< mapper budget per layer
    std::uint64_t seed = 1;  //!< search seed, identical for every point
    engine::Objective objective = engine::Objective::Energy;

    /**
     * When set, each point's adc_bits is derived after the axes apply:
     * scaledAdcBits(rows, scaledAdcAnchor) + max(0, dac_bits - 3) — the
     * RAELLA-style truncation rule the co-design sweeps (Fig. 2b) use,
     * so ADC resolution tracks the array instead of being its own axis.
     */
    bool scaledAdc = false;
    int scaledAdcAnchor = 5;

    /** Base fault model; fault axes override individual fields. */
    faults::FaultModel faults;

    /**
     * Base physical layout, overridable by a string-valued `layout`
     * axis. Values: "none" (idealized buffers, the default), "search"
     * (co-search layouts with mappings per layer), a preset name
     * (layout::presetNames()), or a layout spec .yaml path. Layouts
     * change only the latency model, so points differing solely in
     * layout still share per-action tables.
     */
    std::string layout = "none";

    std::vector<Axis> axes;
    std::vector<Constraint> constraints;

    /** Pareto objectives, all minimized: energy, energy_per_mac,
     *  latency, area, accuracy (the accuracy-loss proxy). */
    std::vector<std::string> paretoObjectives = {"energy_per_mac",
                                                 "latency"};

    /** Optional programmatic per-point predicate (C++ API only; runs
     *  after the declarative constraints). Return false to skip. */
    std::function<bool(const SweepPoint&)> validity;

    /** Appends a numeric axis. */
    void addAxis(const std::string& field, std::vector<double> values);

    /** Appends a string axis (macro / network). */
    void addAxis(const std::string& field,
                 std::vector<std::string> values);

    /** Number of grid points (product of axis sizes; 1 when no axes). */
    std::size_t pointCount() const;

    /**
     * Checks the grid: known axis fields, non-empty values, no
     * duplicate axes, well-formed constraints, a sane point count.
     * CIM_FATAL naming the offending spec key (sweep.axes[i].field,
     * sweep.constraints[j], ...) on failure.
     */
    void validateGrid() const;

    /** validateGrid() plus the evaluation half: exactly one of
     *  network / workload, mappings >= 1, known pareto objectives. */
    void validate() const;

    /** Parses a spec from YAML (bare mapping or `sweep:` document).
     *  Fatal on unknown keys, with the full sweep.* key path. */
    static SweepSpec fromYaml(const yaml::Node& node);

    /** Loads a spec from a YAML file; fatal when unreadable. */
    static SweepSpec fromFile(const std::string& path);
};

/** One materialized grid point: the resolved design + evaluation knobs. */
struct SweepPoint
{
    std::size_t index = 0;             //!< flat grid index
    std::vector<std::size_t> coords;   //!< per-axis value index
    std::vector<std::string> axisText; //!< per-axis rendered value

    macros::MacroParams params;
    faults::FaultModel faults;
    std::string macroName;
    std::string networkName;
    std::string workloadPath;
    std::string layoutName = "none"; //!< layout axis value (see SweepSpec)
    int mappings = 100;
    std::uint64_t seed = 1;
    engine::Objective objective = engine::Objective::Energy;

    /** "array=64, dac_bits=2" — the axis values, for labels and error
     *  text (every per-point diagnostic carries this). */
    std::string label(const SweepSpec& spec) const;

    /** Value of a numeric axis/constraint field on this point; fatal on
     *  unknown field names. */
    double fieldValue(const std::string& field) const;
};

/**
 * Materializes grid point @p index of @p spec: axis values apply in
 * declaration order (string axes resolve the macro defaults first), the
 * last axis varying fastest — the same odometer order a hand-written
 * nested loop enumerates. Deterministic: depends only on (spec, index).
 */
SweepPoint materializePoint(const SweepSpec& spec, std::size_t index);

/**
 * The grid-identity half of materializePoint(): index, coords, and
 * axisText only, via pure odometer arithmetic that cannot throw. The
 * executor labels points whose full materialization failed (e.g. a bad
 * macro name on a `macro` axis) with a shell so exporters still print
 * the right index and axis columns instead of indexing an empty
 * axisText.
 */
SweepPoint pointShell(const SweepSpec& spec, std::size_t index);

/**
 * Content hash of the materialized spec (16 lowercase hex digits of an
 * FNV-1a 64 fingerprint): every field that affects what a grid index
 * evaluates to — name, base design, axes with full-precision values,
 * constraints, objectives, fault model, seed. The sweep journal keys
 * its manifest by this so a resume against a drifted spec fails fast
 * instead of merging incompatible results. The programmatic `validity`
 * predicate is not hashable and is NOT covered — callers who resume
 * programmatic sweeps must keep it stable themselves.
 */
std::string specFingerprint(const SweepSpec& spec);

/**
 * Keys of every distinct network the grid can reference
 * ("name:<network>" / "file:<path>"): one per `network`-axis value when
 * that axis exists (the network choice depends only on that coordinate),
 * else the single spec-level network/workload. Preload is O(#networks),
 * not O(#points).
 */
std::vector<std::string> sweepNetworkKeys(const SweepSpec& spec);

/** Checks a point against the declarative constraints and the
 *  programmatic validity predicate. On skip, @p reason names the
 *  violated constraint and the offending value. */
bool pointIsValid(const SweepSpec& spec, const SweepPoint& point,
                  std::string* reason = nullptr);

/**
 * Heuristic accuracy-loss proxy for Pareto trade-offs, in
 * "bits-of-precision-equivalent" units (lower is better):
 *
 *   clipped column-sum bits: max(0, log2(rows) + dac + cell - 2 - adc)
 *   + 8 * (stuck_off_rate + stuck_on_rate)
 *   + conductance_sigma + 4 * adc_noise_sigma + 2 * |adc_offset|
 *
 * It is NOT a simulated accuracy — it ranks designs by how much analog
 * information they discard (ADC truncation) and how severe the injected
 * non-idealities are, which is what the co-design loop trades against
 * energy. Use the value-level refsim for calibrated accuracy numbers.
 */
double accuracyLossProxy(const macros::MacroParams& params,
                         const faults::FaultModel& faults);

/** Point outcome. */
enum class PointStatus { Ok, Skipped, Failed };

/** Human-readable status ("ok" | "skipped" | "failed"). */
const char* pointStatusName(PointStatus s);

/** One evaluated (or skipped/failed) grid point. */
struct PointResult
{
    SweepPoint point;
    PointStatus status = PointStatus::Skipped;

    /** Skip reason, or "kind: message" failure text (the CLI prefixes
     *  it with the point label). */
    std::string statusDetail;

    /** Per-layer keep-going diagnostics behind a Failed status. */
    std::vector<engine::LayerDiagnostic> layerDiagnostics;

    /** @name Metrics (valid when status == Ok) @{ */
    double energyPj = 0.0;
    double energyPerMacPj = 0.0;
    double latencyNs = 0.0;
    double areaUm2 = 0.0;
    double macs = 0.0;
    double topsPerWatt = 0.0;
    double accuracyLoss = 0.0;
    /** @} */

    bool onFrontier = false; //!< nondominated under spec.paretoObjectives

    /** True when the engine actually ran for this point (Ok, or Failed
     *  after reaching evaluation — per-layer diagnostics or non-finite
     *  metrics). False for Skipped and for failures before the engine
     *  (bad macro name, invalid faults, failed materialization). The
     *  cache-economy accounting counts per-action lookups only for
     *  engine-touched points. */
    bool engineTouched = false;
};

/** True when @p pr carries a non-finite (NaN/inf) exported metric;
 *  returns the metric's CSV/JSON field name, else nullptr. Points that
 *  evaluate to non-finite objectives are demoted to Failed — NaN
 *  compares false against everything, so it would otherwise sit on the
 *  Pareto frontier unnoticed. */
const char* nonFiniteMetric(const PointResult& pr);

/** Executor options. */
struct SweepOptions
{
    /**
     * Worker threads: points fan out first; when a chunk has fewer
     * points than threads the leftover threads split each point's
     * per-layer/mapping work, exactly like engine::evaluateNetwork.
     * Results are bit-identical for any value.
     */
    int threads = 1;

    /** Points per execution chunk (0 = default 1024). Chunks run in
     *  grid order; all order-sensitive folding happens post-join per
     *  chunk, so the chunk size never changes result bytes — only the
     *  journal commit granularity. */
    std::size_t chunkSize = 0;

    /**
     * Journal / resume directory. When set, every completed chunk is
     * committed to <dir>/results.jsonl + <dir>/manifest.jsonl, and a
     * rerun of the same spec against the same directory skips the
     * journaled ranges, merging their recorded results back in grid
     * order — artifacts come out byte-identical to an uninterrupted
     * run. A fingerprint mismatch (different spec) is fatal.
     */
    std::string resumeDir;

    /** Stop cleanly after this many live (non-resumed) chunks; 0 = run
     *  to completion. Sets SweepResult::stoppedEarly. With a journal
     *  this is a controlled interruption — tests and CI use it to
     *  exercise kill-and-resume without killing processes. */
    std::size_t maxChunks = 0;

    /** Grids larger than this run memory-bounded: per-point results are
     *  folded into the frontier/summary (and journal) as chunks finish
     *  instead of being stored, so RAM stays O(frontier), not O(n). */
    std::size_t maxPointsInMemory = 262144;

    /**
     * Cooperative cancellation, polled only at the chunk boundary: the
     * chunk in flight when the token fires still completes and commits
     * (journaled sweeps journal only whole chunks), then the run stops
     * exactly as if SweepOptions::maxChunks had been hit, with
     * SweepResult::cancelled set. The token is deliberately NOT passed
     * into per-point evaluation — a point abandoned mid-chunk would
     * journal a "cancelled" failure permanently and break the resumed
     * run's byte-identity. Default-constructed tokens never fire.
     */
    CancelToken cancel;
};

/** A complete sweep run. */
struct SweepResult
{
    std::string name;
    std::vector<std::string> axisFields;    //!< axis order, for exporters
    std::vector<std::string> paretoObjectives;

    /**
     * Per-point results in grid (point-index) order. In memory-bounded
     * mode (pointsStored == false) this holds only the frontier points;
     * everything else was folded into the summary as chunks completed.
     */
    std::vector<PointResult> points;

    std::size_t totalPoints = 0; //!< grid size (== pointCount())
    bool pointsStored = true;    //!< false: points holds the frontier only

    /** Memory-bounded mode: the first few non-Ok points, kept so the
     *  report can still show representative diagnostics. */
    std::vector<PointResult> failureSamples;

    std::size_t evaluated = 0; //!< status == Ok
    std::size_t failed = 0;
    std::size_t skipped = 0;

    bool stoppedEarly = false;      //!< hit maxChunks or was cancelled
    bool cancelled = false;         //!< SweepOptions::cancel fired
    std::size_t chunksTotal = 0;    //!< ceil(totalPoints / chunkSize)
    std::size_t chunksExecuted = 0; //!< evaluated live this run
    std::size_t chunksResumed = 0;  //!< restored from the journal
    std::size_t resumedPoints = 0;  //!< points restored, not re-run

    /** Indices of the Pareto-nondominated Ok points, ascending. */
    std::vector<std::size_t> frontier;

    /** Index of the best Ok point under the first Pareto objective
     *  (ties keep the lowest index); npos when nothing evaluated. */
    std::size_t bestIndex = static_cast<std::size_t>(-1);

    /**
     * Per-action cache economy across this sweep: misses = unique
     * (design, network) fingerprints times their layer counts, hits =
     * the remaining lookups. Computed analytically from the point
     * stream (a pure function of which points reached the engine), not
     * measured live — a resumed run's process-local cache starts cold,
     * so a live delta could never match the uninterrupted run's bytes.
     * Matches the single-flight cache's own counters on any cold
     * uninterrupted run. Cross-point reuse only: no single network
     * evaluation repeats an (arch, layer) key.
     */
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;

    /** The stored result for grid index @p index (binary search over
     *  the grid-ordered points), or nullptr when it is not in memory
     *  (memory-bounded mode, or a chunk past an early stop). */
    const PointResult* findPoint(std::size_t index) const;
};

/**
 * Runs the sweep: validates the spec, shards the grid into fixed-size
 * chunks executed in grid order, evaluates every point with keep-going
 * degradation (a failed point is recorded as a per-point diagnostic
 * carrying its axis values), and maintains the Pareto frontier
 * incrementally as chunks fold in. With SweepOptions::resumeDir,
 * completed chunks journal to disk and a rerun skips them, producing
 * byte-identical artifacts to an uninterrupted run. Obs counters:
 * dse.points_total / evaluated / failed / skipped / pareto,
 * dse.cache.hits / misses, dse.chunks_total / executed / resumed, and
 * dse.resume.points_skipped — all bumped post-merge so they are
 * identical for any thread count (the chunks_executed / chunks_resumed
 * / resume.points_skipped triple necessarily differs between an
 * uninterrupted and a resumed run; everything else matches).
 */
SweepResult runSweep(const SweepSpec& spec, const SweepOptions& opts = {});

/**
 * Grid runner without the engine: materializes every point, checks
 * constraints, and calls @p fn for each valid one on up to @p threads
 * workers (keep-going: one throwing point never aborts the rest).
 * Returns per-point status/diagnostics in grid order. Benches that
 * compute their own per-point metrics (e.g. the refsim fault sweep)
 * use this instead of hand-rolled nested loops; @p fn must write any
 * output it produces into caller-owned slots indexed by point.index.
 */
std::vector<PointResult>
forEachPoint(const SweepSpec& spec, int threads,
             const std::function<void(const SweepPoint&)>& fn);

/**
 * Indices of the nondominated rows of @p objectives (all dimensions
 * minimized), ascending. A row is dominated when another row is <= in
 * every dimension and < in at least one; equal rows are both kept.
 * Implemented by streaming the rows through the shared ParetoFront
 * (common/pareto.hh), O(n * f) instead of an O(n²) all-pairs scan.
 */
std::vector<std::size_t>
paretoIndices(const std::vector<std::vector<double>>& objectives);

/** Per-point CSV: point, axis columns, status, metrics, pareto flag,
 *  and a quoted detail column for skipped/failed points. */
std::string toCsv(const SweepResult& result);

/** JSON artifact: axes, per-point records, frontier, summary. */
std::string toJson(const SweepResult& result);

/** Human-readable sweep report: point table, failures with axis-value
 *  labels, the Pareto frontier, the best point, and the cross-point
 *  cache economy. Byte-identical for any thread count. */
std::string formatTable(const SweepResult& result);

} // namespace cimloop::dse

#endif // CIMLOOP_DSE_DSE_HH
