/**
 * cimloop::obs unit tests: counter registry semantics, span aggregation
 * (including under parallelFor), reset behavior, and the three exporters.
 *
 * Suites are prefixed "Obs" so the CI ThreadSanitizer job can select
 * them with --gtest_filter='Obs*'.
 */
#include "cimloop/obs/obs.hh"

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <thread>

#include "cimloop/common/json.hh"
#include "cimloop/common/parallel.hh"

namespace cimloop {
namespace {

/** Every obs test starts from zeroed counters and disabled timing. */
class ObsFixture : public ::testing::Test {
protected:
    void SetUp() override
    {
        obs::setTraceEnabled(false);
        obs::setTimingEnabled(false);
        obs::resetAll();
    }
    void TearDown() override
    {
        obs::setTraceEnabled(false);
        obs::setTimingEnabled(false);
        obs::resetAll();
    }
};

using ObsCounter = ObsFixture;
using ObsSpan = ObsFixture;
using ObsExport = ObsFixture;

std::uint64_t
counterValue(const obs::MetricsSnapshot& snap, const std::string& name)
{
    for (const auto& [n, v] : snap.counters)
        if (n == name)
            return v;
    return static_cast<std::uint64_t>(-1);
}

TEST_F(ObsCounter, StartsAtZeroAndAccumulates)
{
    obs::Counter& c = obs::counter("obs_test.basic");
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST_F(ObsCounter, SameNameYieldsSameCounter)
{
    obs::Counter& a = obs::counter("obs_test.same");
    obs::Counter& b = obs::counter("obs_test.same");
    EXPECT_EQ(&a, &b);
    a.add(3);
    EXPECT_EQ(b.value(), 3u);
}

TEST_F(ObsCounter, ReferencesSurviveReset)
{
    obs::Counter& c = obs::counter("obs_test.survives_reset");
    c.add(7);
    obs::resetAll();
    EXPECT_EQ(c.value(), 0u);
    c.add(2); // the old reference still targets the live counter
    EXPECT_EQ(obs::counter("obs_test.survives_reset").value(), 2u);
}

TEST_F(ObsCounter, ConcurrentIncrementsAreLossless)
{
    obs::Counter& c = obs::counter("obs_test.concurrent");
    parallelFor(8, 10000, [&](std::size_t) { c.add(); });
    EXPECT_EQ(c.value(), 10000u);
}

TEST_F(ObsCounter, SnapshotIsSortedByName)
{
    obs::counter("obs_test.zzz").add();
    obs::counter("obs_test.aaa").add();
    obs::MetricsSnapshot snap = obs::snapshot();
    ASSERT_GE(snap.counters.size(), 2u);
    for (std::size_t i = 1; i < snap.counters.size(); ++i)
        EXPECT_LT(snap.counters[i - 1].first, snap.counters[i].first);
}

TEST_F(ObsSpan, DisabledTimingRecordsNothing)
{
    {
        CIM_SPAN("obs_test.span.disabled");
    }
    EXPECT_TRUE(obs::snapshot().spans.empty());
}

TEST_F(ObsSpan, EnabledTimingAggregatesCountAndTotals)
{
    obs::setTimingEnabled(true);
    for (int i = 0; i < 5; ++i) {
        CIM_SPAN("obs_test.span.agg");
    }
    obs::MetricsSnapshot snap = obs::snapshot();
    ASSERT_EQ(snap.spans.size(), 1u);
    EXPECT_EQ(snap.spans[0].name, "obs_test.span.agg");
    EXPECT_EQ(snap.spans[0].count, 5u);
    EXPECT_GE(snap.spans[0].total_ns, 0);
    EXPECT_LE(snap.spans[0].min_ns, snap.spans[0].max_ns);
    EXPECT_GE(snap.spans[0].total_ns,
              snap.spans[0].min_ns * 5); // total >= 5 * min
}

TEST_F(ObsSpan, MeasuresElapsedWallTime)
{
    obs::setTimingEnabled(true);
    {
        CIM_SPAN("obs_test.span.sleep");
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    obs::MetricsSnapshot snap = obs::snapshot();
    ASSERT_EQ(snap.spans.size(), 1u);
    EXPECT_GE(snap.spans[0].total_ns, 2'000'000);
}

TEST_F(ObsSpan, ComposesWithParallelFor)
{
    obs::setTimingEnabled(true);
    parallelFor(4, 64, [&](std::size_t) {
        CIM_SPAN("obs_test.span.parallel");
    });
    obs::MetricsSnapshot snap = obs::snapshot();
    ASSERT_EQ(snap.spans.size(), 1u);
    EXPECT_EQ(snap.spans[0].count, 64u);
    EXPECT_GE(snap.spans[0].threads, 1);
    EXPECT_LE(snap.spans[0].threads, 5); // 4 workers + maybe the caller
}

TEST_F(ObsSpan, EnablingTraceImpliesTiming)
{
    obs::setTraceEnabled(true);
    EXPECT_TRUE(obs::timingEnabled());
    {
        CIM_SPAN("obs_test.span.traced");
    }
    std::string trace = obs::traceJson();
    EXPECT_NE(trace.find("obs_test.span.traced"), std::string::npos);
}

TEST_F(ObsSpan, ThreadIdsAreSmallAndStablePerThread)
{
    int a = obs::currentThreadId();
    int b = obs::currentThreadId();
    EXPECT_EQ(a, b);
    EXPECT_GE(a, 0);
}

TEST_F(ObsExport, CountersJsonOmitsZeroesAndSorts)
{
    obs::counter("obs_test.json.zero"); // registered, stays zero
    obs::counter("obs_test.json.b").add(2);
    obs::counter("obs_test.json.a").add(1);
    std::string json = obs::countersJson(obs::snapshot());
    EXPECT_EQ(json.find("obs_test.json.zero"), std::string::npos);
    std::size_t pa = json.find("obs_test.json.a");
    std::size_t pb = json.find("obs_test.json.b");
    ASSERT_NE(pa, std::string::npos);
    ASSERT_NE(pb, std::string::npos);
    EXPECT_LT(pa, pb);
    EXPECT_NE(json.find("\"obs_test.json.a\": 1"), std::string::npos);
}

TEST_F(ObsExport, CountersJsonIsReproducible)
{
    obs::counter("obs_test.repro").add(9);
    std::string a = obs::countersJson(obs::snapshot());
    std::string b = obs::countersJson(obs::snapshot());
    EXPECT_EQ(a, b); // same state, byte-identical export
}

TEST_F(ObsExport, MetricsJsonEmbedsCountersBlockVerbatim)
{
    obs::counter("obs_test.embed").add(4);
    const std::string ctl_name = std::string("obs_test.embed\x01") + "ctl";
    obs::counter(ctl_name).add(2); // the control byte must be escaped
    obs::setTimingEnabled(true);
    {
        CIM_SPAN("obs_test.embed.span");
    }
    obs::MetricsSnapshot snap = obs::snapshot();
    std::string full = obs::metricsJson(snap);
    // The counters block inside the full document is byte-identical to
    // countersJson() — scripts extract it by line range and diff it.
    EXPECT_NE(full.find(obs::countersJson(snap)), std::string::npos);
    EXPECT_NE(full.find("\"spans\": {"), std::string::npos);

    // The whole document is strict JSON and decodes back to the names.
    std::string error;
    std::optional<JsonValue> doc = parseJson(full, &error);
    ASSERT_TRUE(doc.has_value()) << error << "\n" << full;
    const JsonValue* counters = doc->get("counters");
    ASSERT_TRUE(counters && counters->isObject());
    const JsonValue* ctl = counters->get(ctl_name);
    ASSERT_TRUE(ctl && ctl->isNumber());
    EXPECT_EQ(ctl->raw, "2");
    const JsonValue* spans = doc->get("spans");
    ASSERT_TRUE(spans && spans->isObject());
    EXPECT_NE(spans->get("obs_test.embed.span"), nullptr);
}

TEST_F(ObsExport, SummaryTableListsNonZeroCounters)
{
    obs::counter("obs_test.table.visible").add(123);
    obs::counter("obs_test.table.hidden");
    std::string table = obs::summaryTable(obs::snapshot());
    EXPECT_NE(table.find("obs_test.table.visible"), std::string::npos);
    EXPECT_NE(table.find("123"), std::string::npos);
    EXPECT_EQ(table.find("obs_test.table.hidden"), std::string::npos);
}

TEST_F(ObsExport, TraceJsonIsStructurallyChromeLoadable)
{
    obs::setTraceEnabled(true);
    {
        CIM_SPAN("obs_test.trace.one");
    }
    parallelFor(2, 4, [&](std::size_t) {
        CIM_SPAN("obs_test.trace.worker");
    });
    std::string trace = obs::traceJson();
    // Top-level object with the required trace-event fields.
    EXPECT_EQ(trace.find("{\"traceEvents\":["), 0u);
    EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(trace.find("\"ts\":"), std::string::npos);
    EXPECT_NE(trace.find("\"dur\":"), std::string::npos);
    EXPECT_NE(trace.find("\"pid\":1"), std::string::npos);
    EXPECT_NE(trace.find("\"tid\":"), std::string::npos);
    EXPECT_NE(trace.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
    // 5 spans closed while tracing: 5 events.
    std::size_t events = 0;
    for (std::size_t p = trace.find("\"ph\":\"X\"");
         p != std::string::npos; p = trace.find("\"ph\":\"X\"", p + 1))
        ++events;
    EXPECT_EQ(events, 5u);

    std::string error;
    std::optional<JsonValue> doc = parseJson(trace, &error);
    ASSERT_TRUE(doc.has_value()) << error << "\n" << trace;
    const JsonValue* list = doc->get("traceEvents");
    ASSERT_TRUE(list && list->isArray());
    EXPECT_EQ(list->items.size(), 5u);
}

TEST_F(ObsExport, TraceBufferClearsOnReset)
{
    obs::setTraceEnabled(true);
    {
        CIM_SPAN("obs_test.trace.cleared");
    }
    obs::resetAll();
    EXPECT_EQ(obs::traceJson().find("obs_test.trace.cleared"),
              std::string::npos);
}

TEST_F(ObsExport, SnapshotCarriesRegisteredZeroCounters)
{
    // snapshot() itself keeps zero-valued counters (library users may
    // want them); only the JSON exporter filters.
    obs::counter("obs_test.snapshot.zero");
    EXPECT_EQ(counterValue(obs::snapshot(), "obs_test.snapshot.zero"), 0u);
}

} // namespace
} // namespace cimloop
