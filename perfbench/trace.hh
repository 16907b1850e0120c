/**
 * @file
 * The benchmark's own span recorder. Spans are opened and closed by the
 * benchmark around its calls into the program's public functions; nothing
 * inside the program is instrumented.
 *
 * A span is real or a shadow. A real span wraps work the program really
 * does on this op. A shadow span wraps a replay-only duplicate of work a
 * real public call performs internally and cannot be split from outside
 * (evaluate()'s nest analysis, cachedPrecompute()'s key and sub-stages):
 * the duplicate runs on the same inputs inside its real parent, and its
 * duration stands in for the hidden portion. Shadow spans are leaves.
 *
 * Self times per op (see Tracer::closeOp):
 *   real_dur(S) = interval(S) - sum of shadow durations inside S
 *   self(S)     = real_dur(S) - sum over children C of real_dur(C)
 *                 - sum over shadow children X of dur(X)
 *   self(X)     = dur(X) for a shadow X
 *   op wall     = real_dur(op root)
 * so the self times of an op sum to its wall time less the benchmark's
 * own glue, as if each shadow had run inside its parent's call.
 */
#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

/** Monotonic host time in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Per-name totals of one or more ops. */
struct LayerTotals
{
    std::uint64_t calls = 0;
    double selfMs = 0.0;
};

/** One finished op's self times by span name, plus its wall time. */
struct OpTrace
{
    double wallMs = 0.0; //!< op root's real duration
    double selfSumMs = 0.0; //!< sum of self times below the root
    std::map<std::string, LayerTotals> layers;
};

class Tracer
{
  public:
    struct Record
    {
        std::uint32_t name = 0;
        std::int32_t parent = -1; //!< index in the op's records, -1 = root
        bool shadow = false;
        std::int64_t start = 0;
        std::int64_t end = 0;
    };

    /** Starts an op; its root span is named "op". */
    void openOp();

    /**
     * Ends the op, turns its spans into self times, and keeps the raw
     * spans of the first op only (for writeSpans); later ops' spans are
     * dropped once aggregated so memory stays bounded.
     */
    OpTrace closeOp();

    /** Opens a span under the innermost open span; returns its id. */
    int open(const char* name, bool shadow = false);
    void close(int id);

    /** Renames an open span, for spans whose kind is known only after
     *  they start (a cache lookup that turns out to be a miss). */
    void rename(int id, const char* name);

    /** Writes the kept spans as TSV: op, id, parent, name, shadow,
     *  start_ns, end_ns (start rebased to the op's start). */
    void writeSpans(std::ostream& os) const;

    /** Turns one op's records into self times (exposed for tests). */
    static OpTrace aggregate(const std::vector<Record>& records,
                             const std::vector<std::string>& names);

  private:
    std::uint32_t intern(const char* name);

    std::unordered_map<const char*, std::uint32_t> ids_;
    std::vector<std::string> names_;
    std::vector<Record> records_;
    std::vector<int> stack_;
    std::vector<Record> kept_;
    int ops_ = 0;
};

/** RAII span. */
class Span
{
  public:
    Span(Tracer& t, const char* name, bool shadow = false)
        : tracer_(t), id_(t.open(name, shadow))
    {}
    ~Span() { tracer_.close(id_); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    Tracer& tracer_;
    int id_;
};

/** Marks a shadow span (see the file comment). */
inline constexpr bool kShadow = true;

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
