/**
 * @file
 * The four benchmark workloads and the traced replays of the program's
 * layers. See README.md for why each workload exists and which layer
 * metric should move which end-to-end metric.
 */
#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cimloop/engine/evaluate.hh"
#include "trace.hh"

namespace perfbench {

/** One op's outcome. Failed checks set ok=false with a reason. */
struct OpResult
{
    bool ok = true;
    std::string error;
    double workUnits = 0.0; //!< see Workload::workUnit()
    double wallMs = 0.0;    //!< host wall time of the timed region
    double cpuMs = 0.0;     //!< process user+sys CPU of the timed region
    std::string opClass;    //!< request class (serve_mixed), else empty
    OpTrace trace;          //!< filled by tracedOp()
};

class Workload
{
  public:
    Workload() = default;
    Workload(const Workload&) = delete;
    Workload& operator=(const Workload&) = delete;
    virtual ~Workload() = default;

    /** What one work unit is, for the report. */
    virtual const char* workUnit() const = 0;

    /** Everything a user pays before steady state, ending with the
     *  warm-up op whose outputs every later op must reproduce. */
    virtual void setUp() = 0;

    /** One untraced op: timed, then checked. */
    virtual OpResult op() = 0;

    /** One op replayed through the layers' public calls under @p t. */
    virtual OpResult tracedOp(Tracer& t) = 0;

    /** Stops anything setUp() started. Idempotent. */
    virtual void tearDown() {}

    /** Checks that need the program to itself after tearDown() (serve
     *  against the one-shot CLI); returns the ops they fail. */
    virtual std::uint64_t verifyAfterRun() { return 0; }

    /** Digest of the warm-up op's simulated outputs. */
    virtual std::string digest() const = 0;

    /** Per-layer values that are not span self times, accumulated over
     *  the traced ops (counts, ratios); keyed by metric name. */
    virtual std::map<std::string, double> layerExtras() const = 0;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string>& workloadNames();

/**
 * Builds a workload. @p scratch is a directory inside the checkout for
 * generated inputs and sockets; nullptr for unknown names.
 */
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed,
                                       const std::string& scratch);

/** Counters of one traced mapping search. */
struct SearchCounts
{
    double samples = 0.0;  //!< mapper draws: accepted + rejected
    double rejected = 0.0; //!< draws that failed Mapping::check
    double valid = 0.0;    //!< sampled mappings that evaluated valid
};

/** What a replayed search selected, in searchMappings' terms. */
struct ReplayedSearch
{
    cimloop::mapping::Mapping bestMapping;
    cimloop::engine::Evaluation best;
    double bestValue = 0.0; //!< energy objective
    bool have = false;
    int evaluated = 0;
    int invalid = 0;
    int rejected = 0;
    int exhausted = 0;
};

/**
 * Precompute tables rebuilt by a replay, held for comparison with
 * cachedPrecompute's until the traced op has ended, so the comparison
 * is not timed.
 */
struct PrecomputeChecks
{
    std::vector<std::pair<cimloop::engine::PerActionTable,
                          std::shared_ptr<const cimloop::engine::PerActionTable>>>
        pending;

    /** Compares and clears; empty when every rebuilt table matched. */
    std::string finish();
};

/**
 * Replays engine::searchMappings (threads 1, energy objective, layouts
 * off) through its public parts: cachedPrecompute, Mapper::next per
 * Rng::forStream(seed, shard) shard, evaluate, greedy and the merge.
 * Precompute misses are re-run stage by stage as shadow spans; the
 * rebuilt tables go to @p checks.
 */
ReplayedSearch replaySearch(Tracer& t, const cimloop::engine::Arch& arch,
                            const cimloop::workload::Layer& layer,
                            int num_mappings, std::uint64_t seed,
                            SearchCounts& counts, PrecomputeChecks& checks);

/** Empty when the replay selected what searchMappings selected. */
std::string compareSearch(const ReplayedSearch& replay,
                          const cimloop::engine::SearchResult& real);

/** The serve_mixed request sequence for @p seed: @p n request lines
 *  (ids 1..n) and their class names. Deterministic by seed. */
struct ServeRequest
{
    std::string cls;  //!< request class
    std::string key;  //!< class plus variant; equal keys, equal outputs
    std::string line; //!< NDJSON request line, no newline
    std::vector<std::string> cliArgs; //!< one-shot equivalent (executed)
    std::string errorKind; //!< expected error kind (malformed)
};
std::vector<ServeRequest> serveRequestMix(std::uint64_t seed,
                                          std::size_t n);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
