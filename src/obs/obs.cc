/** Registry, span aggregation, and exporters for cimloop::obs. */
#include "cimloop/obs/obs.hh"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <iomanip>

#include "cimloop/common/json.hh"

namespace cimloop {
namespace obs {
namespace {

std::int64_t nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Per-name span aggregate plus the set of thread ids that closed it. */
struct SpanAgg {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t min_ns = 0;
    std::int64_t max_ns = 0;
    std::set<int> tids;
};

struct Registry {
    std::mutex mutex;
    // std::map: stable element addresses and sorted iteration for free.
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, SpanAgg> spans;
    std::vector<TraceEvent> trace;
};

Registry& registry()
{
    static Registry r;
    return r;
}

std::atomic<bool> g_timing{false};
std::atomic<bool> g_trace{false};
std::atomic<int> g_next_tid{0};

} // namespace

Counter& counter(const std::string& name)
{
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    std::unique_ptr<Counter>& slot = r.counters[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

void setTimingEnabled(bool on) noexcept
{
    g_timing.store(on, std::memory_order_relaxed);
}

bool timingEnabled() noexcept
{
    return g_timing.load(std::memory_order_relaxed);
}

void setTraceEnabled(bool on) noexcept
{
    g_trace.store(on, std::memory_order_relaxed);
    if (on) // tracing needs clock reads
        g_timing.store(true, std::memory_order_relaxed);
}

bool traceEnabled() noexcept
{
    return g_trace.load(std::memory_order_relaxed);
}

int currentThreadId() noexcept
{
    thread_local int tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
    return tid;
}

Span::Span(const char* name) noexcept : name_(name), start_ns_(-1)
{
    if (timingEnabled())
        start_ns_ = nowNs();
}

Span::~Span()
{
    if (start_ns_ < 0)
        return;
    const std::int64_t end_ns = nowNs();
    const std::int64_t dur = end_ns - start_ns_;
    const int tid = currentThreadId();
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    SpanAgg& agg = r.spans[name_];
    if (agg.count == 0) {
        agg.min_ns = dur;
        agg.max_ns = dur;
    } else {
        agg.min_ns = std::min(agg.min_ns, dur);
        agg.max_ns = std::max(agg.max_ns, dur);
    }
    ++agg.count;
    agg.total_ns += dur;
    agg.tids.insert(tid);
    if (traceEnabled())
        r.trace.push_back(TraceEvent{name_, tid, start_ns_, dur});
}

MetricsSnapshot snapshot()
{
    MetricsSnapshot snap;
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    snap.counters.reserve(r.counters.size());
    for (const auto& [name, c] : r.counters)
        snap.counters.emplace_back(name, c->value());
    snap.spans.reserve(r.spans.size());
    for (const auto& [name, agg] : r.spans) {
        SpanStats s;
        s.name = name;
        s.count = agg.count;
        s.total_ns = agg.total_ns;
        s.min_ns = agg.min_ns;
        s.max_ns = agg.max_ns;
        s.threads = static_cast<int>(agg.tids.size());
        snap.spans.push_back(std::move(s));
    }
    return snap; // std::map iteration is already name-sorted
}

void resetAll()
{
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (auto& [name, c] : r.counters)
        c->reset();
    r.spans.clear();
    r.trace.clear();
}

std::string countersJson(const MetricsSnapshot& snap)
{
    // Keep this format in sync with scripts/metrics_regress.sh, which
    // extracts the block between `"counters": {` and `},` with sed.
    std::ostringstream out;
    out << "\"counters\": {\n";
    bool first = true;
    for (const auto& [name, value] : snap.counters) {
        if (value == 0)
            continue; // unrelated instrumentation must not pollute diffs
        if (!first)
            out << ",\n";
        first = false;
        out << "  \"" << jsonEscape(name) << "\": " << value;
    }
    out << "\n}";
    return out.str();
}

std::string metricsJson(const MetricsSnapshot& snap)
{
    std::ostringstream out;
    out << "{\n" << countersJson(snap) << ",\n";
    out << "\"spans\": {\n";
    bool first = true;
    for (const SpanStats& s : snap.spans) {
        if (!first)
            out << ",\n";
        first = false;
        out << "  \"" << jsonEscape(s.name) << "\": {\"count\": " << s.count
            << ", \"total_ns\": " << s.total_ns
            << ", \"min_ns\": " << s.min_ns << ", \"max_ns\": " << s.max_ns
            << ", \"threads\": " << s.threads << "}";
    }
    out << "\n}\n}\n";
    return out.str();
}

std::string summaryTable(const MetricsSnapshot& snap)
{
    std::ostringstream out;
    out << "== metrics ==\n";
    std::size_t width = 7; // "counter"
    for (const auto& [name, value] : snap.counters)
        if (value != 0)
            width = std::max(width, name.size());
    for (const SpanStats& s : snap.spans)
        width = std::max(width, s.name.size());
    out << std::left << std::setw(static_cast<int>(width)) << "counter"
        << "  value\n";
    for (const auto& [name, value] : snap.counters) {
        if (value == 0)
            continue;
        out << std::left << std::setw(static_cast<int>(width)) << name
            << "  " << value << "\n";
    }
    if (!snap.spans.empty()) {
        out << std::left << std::setw(static_cast<int>(width)) << "span"
            << "  count  total_ms  avg_us  threads\n";
        for (const SpanStats& s : snap.spans) {
            const double total_ms = static_cast<double>(s.total_ns) / 1e6;
            const double avg_us =
                s.count ? static_cast<double>(s.total_ns) / 1e3
                              / static_cast<double>(s.count)
                        : 0.0;
            out << std::left << std::setw(static_cast<int>(width)) << s.name
                << "  " << s.count << "  " << std::fixed
                << std::setprecision(3) << total_ms << "  "
                << std::setprecision(1) << avg_us << "  " << s.threads
                << "\n";
            out.unsetf(std::ios::fixed);
        }
    }
    return out.str();
}

std::string traceJson()
{
    std::vector<TraceEvent> events;
    {
        Registry& r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        events = r.trace;
    }
    // Chrome's trace viewer wants ts in microseconds; rebase to the
    // earliest event so timestamps start near zero.
    std::sort(events.begin(), events.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                  return a.start_ns < b.start_ns;
              });
    const std::int64_t base = events.empty() ? 0 : events.front().start_ns;
    std::ostringstream out;
    out << "{\"traceEvents\":[";
    bool first = true;
    for (const TraceEvent& e : events) {
        if (!first)
            out << ",";
        first = false;
        const std::int64_t ts = e.start_ns - base;
        out << "\n{\"name\":\"" << jsonEscape(e.name)
            << "\",\"cat\":\"cimloop\",\"ph\":\"X\",\"pid\":1,\"tid\":"
            << e.tid << ",\"ts\":" << ts / 1000 << "." << std::setw(3)
            << std::setfill('0') << ts % 1000 << ",\"dur\":"
            << e.dur_ns / 1000 << "." << std::setw(3) << std::setfill('0')
            << e.dur_ns % 1000 << "}";
        out << std::setfill(' ');
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
    return out.str();
}

} // namespace obs
} // namespace cimloop
