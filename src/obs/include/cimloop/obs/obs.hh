#pragma once
/**
 * cimloop::obs — always-compiled observability: named monotonic counters,
 * RAII timing spans, and exporters (summary table, metrics JSON, Chrome
 * trace-event JSON).
 *
 * Design contract (see docs/architecture.md, "Observability"):
 *
 *  - Counters are always on. An increment is one relaxed atomic add on a
 *    cache-line-owned uint64, cheap enough to leave in hot loops when the
 *    use site hoists the registry lookup:
 *
 *        static obs::Counter& hits = obs::counter("engine.cache.hits");
 *        hits.add();
 *
 *    Registry references are stable for the life of the process; resetAll()
 *    zeroes values but never invalidates references.
 *
 *  - Counter values are deterministic at fixed seed regardless of
 *    --threads. Use sites must count scheduling-invariant events (e.g. a
 *    cache miss is counted by the thread whose insert wins, not by every
 *    thread that raced on the same key). This makes counters a cheap
 *    regression oracle: tests diff them byte-for-byte.
 *
 *  - Spans are off by default. When timing is disabled a CIM_SPAN costs
 *    two branches and no clock reads; when enabled it records wall time
 *    and thread id, aggregated per name (count/total/min/max) so spans
 *    compose with parallelFor/parallelForAll. When tracing is also
 *    enabled, every span additionally appends a Chrome trace event.
 *
 *  - Names are dotted lowercase `module.noun.verb` (or `module.noun`),
 *    e.g. "engine.per_action_cache.hits", "dist.pmf.from_points.lattice".
 */

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace cimloop {
namespace obs {

/** Monotonic counter. add() is a relaxed atomic increment; always-on. */
class Counter {
public:
    void add(std::uint64_t n = 1) noexcept
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }
    std::uint64_t value() const noexcept
    {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

private:
    alignas(64) std::atomic<std::uint64_t> value_{0};
};

/**
 * Look up (creating on first use) the counter registered under `name`.
 * The reference is stable for the process lifetime; hoist it into a
 * function-local static at hot use sites.
 */
Counter& counter(const std::string& name);

/** Enable/disable span wall-clock timing (off by default). */
void setTimingEnabled(bool on) noexcept;
bool timingEnabled() noexcept;

/**
 * Enable/disable Chrome trace-event capture (off by default). Enabling
 * tracing implies timing: spans need clock reads to emit events.
 */
void setTraceEnabled(bool on) noexcept;
bool traceEnabled() noexcept;

/**
 * Small sequential id for the calling thread (0 for the first thread
 * that asks, 1 for the next, ...). Used as `tid` in trace events so
 * traces stay stable and readable across runs.
 */
int currentThreadId() noexcept;

/**
 * RAII timing span. Construct via CIM_SPAN(name); on destruction the
 * elapsed wall time is aggregated under `name` (thread-safe) and, when
 * tracing is on, appended to the trace-event buffer. When timing is
 * disabled construction and destruction are branch-only.
 *
 * `name` must outlive the span; string literals satisfy this.
 */
class Span {
public:
    explicit Span(const char* name) noexcept;
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    const char* name_;
    std::int64_t start_ns_; // -1 when timing was disabled at construction
};

/** Aggregated statistics for one span name. */
struct SpanStats {
    std::string name;
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t min_ns = 0;
    std::int64_t max_ns = 0;
    int threads = 0; ///< distinct thread ids that closed this span
};

/** One Chrome trace event (ph:"X" complete event). */
struct TraceEvent {
    const char* name;
    int tid;
    std::int64_t start_ns;
    std::int64_t dur_ns;
};

/** Point-in-time copy of every registered counter and span aggregate. */
struct MetricsSnapshot {
    /// (name, value) sorted by name; zero-valued counters included here,
    /// filtered by the JSON exporter.
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    /// Sorted by name; empty unless timing was enabled.
    std::vector<SpanStats> spans;
};

/** Copy out the current counters and span aggregates, sorted by name. */
MetricsSnapshot snapshot();

/**
 * Zero every counter, clear span aggregates and the trace buffer.
 * Counter references stay valid. Call at the start of a run so metrics
 * describe exactly one invocation.
 */
void resetAll();

/**
 * Counters as a JSON object fragment, one `"name": value` per line,
 * sorted, zero-valued counters omitted (so unrelated instrumented code
 * paths never pollute a comparison). Deterministic at fixed seed for
 * any thread count — this is the byte-comparable regression surface.
 */
std::string countersJson(const MetricsSnapshot& snap);

/**
 * Full metrics document: `{"counters": {...}, "spans": {...}}`. The
 * counters block is byte-identical to countersJson(); span values are
 * wall-clock and therefore NOT deterministic.
 */
std::string metricsJson(const MetricsSnapshot& snap);

/** Human-readable summary (counter table + span table when timed). */
std::string summaryTable(const MetricsSnapshot& snap);

/**
 * Chrome trace-event JSON (load via chrome://tracing or
 * ui.perfetto.dev): {"traceEvents":[...],"displayTimeUnit":"ms"} with
 * ph:"X" complete events, ts/dur in microseconds. Empty traceEvents
 * unless tracing was enabled during the run.
 */
std::string traceJson();

} // namespace obs
} // namespace cimloop

#define CIM_OBS_CONCAT2(a, b) a##b
#define CIM_OBS_CONCAT(a, b) CIM_OBS_CONCAT2(a, b)

/** Open a RAII timing span for the rest of the enclosing scope. */
#define CIM_SPAN(name)                                                       \
    ::cimloop::obs::Span CIM_OBS_CONCAT(cim_span_, __LINE__)(name)
