/**
 * Sweep executor: the grid reproduces the exact numbers of the
 * hand-rolled nested loops it replaces, keep-going turns an unmappable
 * design into a per-point diagnostic carrying its axis values, points
 * sharing an (arch, layer) pair reuse the per-action cache, and every
 * artifact (table, CSV, JSON) is byte-identical for any thread count.
 */
#include "cimloop/dse/dse.hh"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cimloop/common/error.hh"
#include "cimloop/common/json.hh"
#include "cimloop/engine/evaluate.hh"
#include "cimloop/macros/macros.hh"
#include "cimloop/obs/obs.hh"
#include "cimloop/workload/networks.hh"
#include "support/scratch.hh"

namespace cimloop::dse {
namespace {

/** Quote, backslash, CR, BS, FF, DEL and a UTF-8 euro sign. */
const std::string kHostile = "q\" s\\ \r\b\f\x7f \xE2\x82\xAC";

/**
 * Parses a toJson() document strictly and checks that the sweep name,
 * the last point's axis value and its failure detail decode back to
 * exactly @p name, @p axis and @p detail.
 */
void
expectJsonDecodesTo(const std::string& json, const std::string& name,
                    const std::string& axis, const std::string& detail)
{
    std::string error;
    std::optional<JsonValue> doc = parseJson(json, &error);
    ASSERT_TRUE(doc.has_value()) << error << "\n" << json;
    const JsonValue* sweep = doc->get("sweep");
    ASSERT_TRUE(sweep && sweep->isString());
    EXPECT_EQ(sweep->text, name);
    const JsonValue* points = doc->get("points");
    ASSERT_TRUE(points && points->isArray() && !points->items.empty());
    const JsonValue& last = points->items.back();
    const JsonValue* axes = last.get("axes");
    ASSERT_TRUE(axes && axes->isObject() && !axes->members.empty());
    EXPECT_EQ(axes->members.back().second.text, axis);
    const JsonValue* got = last.get("detail");
    ASSERT_TRUE(got && got->isString());
    EXPECT_EQ(got->text, detail);
}

TEST(DseSweep, CrossCheckMatchesHandRolledLoop)
{
    // The fig-2b-style grid: array size x DAC resolution with the
    // scaled-ADC rule. Every point must reproduce the pJ/MAC a
    // standalone evaluateNetwork() call computes for the same
    // design — the sweep is a refactor of the nested loops, not an
    // approximation of them.
    SweepSpec spec;
    spec.network = "mvm";
    spec.mappings = 8;
    spec.seed = 1;
    spec.scaledAdc = true;
    spec.addAxis("array", std::vector<double>{64, 128});
    spec.addAxis("dac_bits", std::vector<double>{1, 2});

    SweepResult result = runSweep(spec);
    ASSERT_EQ(result.points.size(), 4u);
    ASSERT_EQ(result.evaluated, 4u);

    workload::Network net = workload::networkByName("mvm");
    std::size_t i = 0;
    for (std::int64_t array : {64, 128}) {
        for (int dac : {1, 2}) {
            macros::MacroParams p = macros::defaultsByName("base");
            p.rows = array;
            p.cols = array;
            p.dacBits = dac;
            p.adcBits = macros::scaledAdcBits(array, 5) +
                        std::max(0, dac - 3);
            engine::Arch arch = macros::macroByName("base", p);
            engine::NetworkEvaluation ev =
                engine::evaluateNetwork(arch, net, spec.mappings,
                                        spec.seed);
            const PointResult& pr = result.points[i++];
            ASSERT_EQ(pr.status, PointStatus::Ok)
                << pr.point.label(spec) << ": " << pr.statusDetail;
            EXPECT_DOUBLE_EQ(pr.energyPj, ev.energyPj)
                << pr.point.label(spec);
            EXPECT_DOUBLE_EQ(pr.energyPerMacPj, ev.energyPerMacPj())
                << pr.point.label(spec);
            EXPECT_DOUBLE_EQ(pr.latencyNs, ev.latencyNs)
                << pr.point.label(spec);
        }
    }
}

TEST(DseSweep, KeepGoingRecordsUnmappablePointWithAxisValues)
{
    // adc_bits = 15 exceeds the ADC survey regression's range, so that
    // design CIM_FATALs inside precompute. The sweep must finish, keep
    // the good point, and pin the failure to its axis values.
    SweepSpec spec;
    spec.network = "mvm";
    spec.mappings = 4;
    spec.addAxis("adc_bits", std::vector<double>{6, 15});

    SweepResult result = runSweep(spec);
    ASSERT_EQ(result.points.size(), 2u);
    EXPECT_EQ(result.evaluated, 1u);
    EXPECT_EQ(result.failed, 1u);

    const PointResult& bad = result.points[1];
    EXPECT_EQ(bad.status, PointStatus::Failed);
    EXPECT_NE(bad.statusDetail.find("resolution"), std::string::npos)
        << bad.statusDetail;
    ASSERT_FALSE(bad.layerDiagnostics.empty());
    EXPECT_EQ(bad.layerDiagnostics[0].kind, "fatal");

    // Every artifact names the failing design by its axis values.
    EXPECT_NE(formatTable(result).find("adc_bits=15"),
              std::string::npos);
    EXPECT_NE(toCsv(result).find("failed"), std::string::npos);

    EXPECT_EQ(result.bestIndex, 0u);
    EXPECT_EQ(result.frontier, (std::vector<std::size_t>{0}));
    EXPECT_TRUE(result.points[0].onFrontier);
    EXPECT_FALSE(result.points[1].onFrontier);
}

TEST(DseSweep, ConstraintSkipsInsteadOfFailing)
{
    // Same out-of-range design, but declared invalid: it must be
    // skipped (never sent to the engine), not failed.
    SweepSpec spec;
    spec.network = "mvm";
    spec.mappings = 4;
    spec.addAxis("adc_bits", std::vector<double>{6, 15});
    Constraint c;
    c.field = "adc_bits";
    c.hasMax = true;
    c.max = 14.0;
    spec.constraints.push_back(c);

    SweepResult result = runSweep(spec);
    EXPECT_EQ(result.evaluated, 1u);
    EXPECT_EQ(result.failed, 0u);
    EXPECT_EQ(result.skipped, 1u);
    EXPECT_EQ(result.points[1].status, PointStatus::Skipped);
    EXPECT_NE(result.points[1].statusDetail.find("constraint"),
              std::string::npos);
}

TEST(DseSweep, SharedDesignsReuseThePerActionCache)
{
    // Two points differing only in mapper budget share the per-action
    // key, so the second one's precompute is a cache hit — the
    // cross-point economy the sweep is built around.
    engine::clearPerActionCache();
    SweepSpec spec;
    spec.network = "mvm";
    spec.addAxis("array", std::vector<double>{64});
    spec.addAxis("mappings", std::vector<double>{4, 8});

    SweepResult result = runSweep(spec);
    ASSERT_EQ(result.evaluated, 2u);
    EXPECT_EQ(result.cacheMisses, 1u); // mvm is a single layer
    EXPECT_EQ(result.cacheHits, 1u);
    EXPECT_EQ(result.points[0].point.mappings, 4);
    EXPECT_EQ(result.points[1].point.mappings, 8);
}

TEST(DseSweep, ArtifactsByteIdenticalAcrossThreadCounts)
{
    SweepSpec spec;
    spec.network = "mvm";
    spec.mappings = 6;
    spec.scaledAdc = true;
    spec.addAxis("array", std::vector<double>{64, 128});
    spec.addAxis("dac_bits", std::vector<double>{1, 2, 8});

    std::string table, csv, json;
    for (int threads : {1, 4, 8}) {
        // Reset the process-wide cache so each run sees the same
        // hit/miss economy (the CLI does this per run too).
        engine::clearPerActionCache();
        SweepOptions opts;
        opts.threads = threads;
        SweepResult result = runSweep(spec, opts);
        if (threads == 1) {
            table = formatTable(result);
            csv = toCsv(result);
            json = toJson(result);
        } else {
            EXPECT_EQ(formatTable(result), table)
                << "table differs at --threads " << threads;
            EXPECT_EQ(toCsv(result), csv)
                << "CSV differs at --threads " << threads;
            EXPECT_EQ(toJson(result), json)
                << "JSON differs at --threads " << threads;
        }
    }
}

TEST(DseSweep, ForEachPointKeepsGoingAndReportsStatuses)
{
    SweepSpec spec;
    spec.addAxis("dac_bits", std::vector<double>{1, 2, 3, 4});
    Constraint c;
    c.field = "dac_bits";
    c.hasMax = true;
    c.max = 3.0;
    spec.constraints.push_back(c);

    std::vector<std::size_t> visited;
    std::vector<PointResult> statuses = forEachPoint(
        spec, /*threads=*/1, [&](const SweepPoint& point) {
            visited.push_back(point.index);
            if (point.params.dacBits == 2)
                CIM_FATAL("dac_bits = 2 is cursed");
        });

    ASSERT_EQ(statuses.size(), 4u);
    EXPECT_EQ(visited, (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_EQ(statuses[0].status, PointStatus::Ok);
    EXPECT_EQ(statuses[1].status, PointStatus::Failed);
    EXPECT_NE(statuses[1].statusDetail.find("cursed"),
              std::string::npos);
    EXPECT_EQ(statuses[2].status, PointStatus::Ok);
    EXPECT_EQ(statuses[3].status, PointStatus::Skipped);
}

TEST(DseSweep, CsvAndJsonCarryTheGrid)
{
    SweepSpec spec;
    spec.network = "mvm";
    spec.mappings = 4;
    spec.addAxis("dac_bits", std::vector<double>{1, 2});

    SweepResult result = runSweep(spec);
    const std::string csv = toCsv(result);
    EXPECT_EQ(csv.compare(0, 6, "point,"), 0) << csv.substr(0, 40);
    EXPECT_NE(csv.find("dac_bits"), std::string::npos);
    // Header plus one row per point, newline-terminated.
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);

    const std::string json = toJson(result);
    EXPECT_NE(json.find("\"summary\""), std::string::npos);
    EXPECT_NE(json.find("\"frontier\""), std::string::npos);
    EXPECT_NE(json.find("\"dac_bits\": \"2\""), std::string::npos);

    // A sweep name and a string-axis value full of JSON-hostile bytes:
    // the failing point's axis text and diagnostic both carry them, and
    // the document still parses and decodes back to the exact strings.
    SweepSpec odd;
    odd.name = kHostile;
    odd.network = "mvm";
    odd.mappings = 4;
    odd.addAxis("macro", std::vector<std::string>{"base", kHostile});
    SweepResult oddResult = runSweep(odd);
    ASSERT_EQ(oddResult.points.size(), 2u);
    const PointResult& bad = oddResult.points[1];
    ASSERT_EQ(bad.status, PointStatus::Failed);
    EXPECT_NE(bad.statusDetail.find(kHostile), std::string::npos)
        << bad.statusDetail;
    expectJsonDecodesTo(toJson(oddResult), kHostile, kHostile,
                        bad.statusDetail);
}

TEST(DseSweep, CountsAreConsistent)
{
    SweepSpec spec;
    spec.network = "mvm";
    spec.mappings = 4;
    spec.scaledAdc = true;
    spec.addAxis("array", std::vector<double>{64, 4096});
    spec.addAxis("dac_bits", std::vector<double>{1, 8});
    // (4096, dac 8) derives a 15-bit ADC and fails; everything else is
    // evaluable.
    SweepResult result = runSweep(spec);
    EXPECT_EQ(result.evaluated + result.failed + result.skipped,
              result.points.size());
    EXPECT_EQ(result.failed, 1u);
    for (std::size_t idx : result.frontier)
        EXPECT_TRUE(result.points[idx].onFrontier);
    ASSERT_NE(result.bestIndex, static_cast<std::size_t>(-1));
    EXPECT_TRUE(result.points[result.bestIndex].onFrontier)
        << "the best point under the first objective is nondominated "
           "by construction";
}

TEST(DseSweep, ChunkSizeNeverChangesResultBytes)
{
    // Chunks are an execution/commit granularity, not a semantic one:
    // every artifact must come out byte-identical whether the grid runs
    // as one chunk or point-by-point.
    SweepSpec spec;
    spec.network = "mvm";
    spec.mappings = 4;
    spec.scaledAdc = true;
    spec.addAxis("array", std::vector<double>{64, 128});
    spec.addAxis("dac_bits", std::vector<double>{1, 2, 8});

    engine::clearPerActionCache();
    SweepResult mono = runSweep(spec);
    const std::string table = formatTable(mono);
    const std::string csv = toCsv(mono);
    const std::string json = toJson(mono);

    for (std::size_t chunk : {std::size_t{1}, std::size_t{2},
                              std::size_t{5}, std::size_t{100}}) {
        engine::clearPerActionCache();
        SweepOptions opts;
        opts.chunkSize = chunk;
        opts.threads = 4;
        SweepResult result = runSweep(spec, opts);
        EXPECT_EQ(formatTable(result), table)
            << "table differs at chunk size " << chunk;
        EXPECT_EQ(toCsv(result), csv)
            << "CSV differs at chunk size " << chunk;
        EXPECT_EQ(toJson(result), json)
            << "JSON differs at chunk size " << chunk;
        EXPECT_EQ(result.chunksTotal, (6 + chunk - 1) / chunk);
        EXPECT_EQ(result.chunksExecuted, result.chunksTotal);
        EXPECT_EQ(result.chunksResumed, 0u);
    }
}

TEST(DseSweep, NonFiniteMetricsDemoteThePointToFailed)
{
    // An absurd supply voltage overflows the quadratic energy factor to
    // inf. NaN/inf compares false against everything, so such a point
    // would silently sit on the Pareto frontier; the executor must
    // demote it to Failed with a diagnostic instead.
    SweepSpec spec;
    spec.network = "mvm";
    spec.mappings = 4;
    spec.addAxis("voltage", std::vector<double>{0.8, 1e200});

    SweepResult result = runSweep(spec);
    ASSERT_EQ(result.points.size(), 2u);
    EXPECT_EQ(result.evaluated, 1u);
    EXPECT_EQ(result.failed, 1u);
    EXPECT_EQ(result.points[1].status, PointStatus::Failed);
    EXPECT_NE(result.points[1].statusDetail.find("non-finite metric"),
              std::string::npos)
        << result.points[1].statusDetail;
    EXPECT_EQ(result.frontier, (std::vector<std::size_t>{0}));
    EXPECT_EQ(result.bestIndex, 0u);
}

TEST(DseSweep, NonFiniteMetricNamesTheFirstBadField)
{
    PointResult pr;
    pr.status = PointStatus::Ok;
    EXPECT_EQ(nonFiniteMetric(pr), nullptr);
    pr.latencyNs = std::numeric_limits<double>::quiet_NaN();
    ASSERT_NE(nonFiniteMetric(pr), nullptr);
    EXPECT_STREQ(nonFiniteMetric(pr), "latency_ns");
    pr.latencyNs = 0.0;
    pr.topsPerWatt = std::numeric_limits<double>::infinity();
    EXPECT_STREQ(nonFiniteMetric(pr), "tops_per_watt");
}

TEST(DseSweep, MaterializeFailureStillExportsAxisColumns)
{
    // A bad value on a string axis makes materializePoint() itself
    // throw, so the executor only has the grid-identity shell for that
    // point. Every exporter must still print the right index and axis
    // columns instead of indexing an empty axisText (the old
    // out-of-bounds read) or dropping CSV columns.
    SweepSpec spec;
    spec.network = "mvm";
    spec.mappings = 4;
    spec.addAxis("macro", std::vector<std::string>{"base", "gremlin"});
    spec.addAxis("dac_bits", std::vector<double>{1, 2});

    SweepResult result = runSweep(spec);
    ASSERT_EQ(result.points.size(), 4u);
    EXPECT_EQ(result.evaluated, 2u);
    EXPECT_EQ(result.failed, 2u);
    EXPECT_EQ(result.points[2].status, PointStatus::Failed);
    EXPECT_NE(result.points[2].statusDetail.find("unknown macro"),
              std::string::npos);
    // The shell still carries the axis values...
    ASSERT_EQ(result.points[2].point.axisText.size(), 2u);
    EXPECT_EQ(result.points[2].point.axisText[0], "gremlin");
    // ...so the table names the design and the CSV row keeps its
    // column count.
    EXPECT_NE(formatTable(result).find("macro=gremlin, dac_bits=1"),
              std::string::npos);
    const std::string csv = toCsv(result);
    std::size_t lineStart = 0;
    int lines = 0;
    const std::size_t headerCommas =
        static_cast<std::size_t>(std::count(
            csv.begin(), csv.begin() + csv.find('\n'), ','));
    auto fieldSeparators = [](const std::string& line) {
        // Commas inside quoted fields are payload, not separators.
        std::size_t n = 0;
        bool quoted = false;
        for (char ch : line) {
            if (ch == '"')
                quoted = !quoted;
            else if (ch == ',' && !quoted)
                ++n;
        }
        return n;
    };
    while (lineStart < csv.size()) {
        std::size_t lineEnd = csv.find('\n', lineStart);
        std::string line = csv.substr(lineStart, lineEnd - lineStart);
        EXPECT_EQ(fieldSeparators(line), headerCommas)
            << "row has wrong column count: " << line;
        lineStart = lineEnd + 1;
        ++lines;
    }
    EXPECT_EQ(lines, 5); // header + 4 points
    EXPECT_NE(toJson(result).find("\"macro\": \"gremlin\""),
              std::string::npos);
}

TEST(DseSweep, ExportersToleratePointsWithEmptyAxisText)
{
    // Regression for the exporters' out-of-bounds axisText[a] read:
    // a hand-built result whose point never materialized (empty
    // axisText) must render with padded (empty) axis columns.
    SweepResult result;
    result.name = "oob";
    result.axisFields = {"array", "dac_bits"};
    result.paretoObjectives = {"energy_per_mac", "latency"};
    result.totalPoints = 1;
    result.failed = 1;
    PointResult pr;
    pr.point.index = 0; // axisText left empty
    pr.status = PointStatus::Failed;
    pr.statusDetail = "fatal: broke before materialization\rwith a CR";
    result.points.push_back(pr);

    const std::string csv = toCsv(result);
    EXPECT_NE(csv.find("0,,,failed"), std::string::npos) << csv;
    // The carriage return rides inside a quoted field, so the CSV still
    // has exactly two record separators (header + row).
    EXPECT_NE(csv.find('\r'), std::string::npos);
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);
    EXPECT_NE(csv.find("\"fatal: broke before materialization\rwith"),
              std::string::npos)
        << csv;
    EXPECT_NE(toJson(result).find("\"array\": \"\""), std::string::npos);
    EXPECT_NE(formatTable(result).find("failed"), std::string::npos);

    // The same point with hostile bytes in every string the JSON
    // exporter writes. BS, FF, CR and DEL take their short (or \u007f)
    // escapes — pinned here — and everything decodes back exactly.
    result.name = kHostile;
    result.points[0].point.axisText = {kHostile, kHostile};
    result.points[0].statusDetail = kHostile;
    const std::string json = toJson(result);
    EXPECT_NE(json.find("\"detail\": \"q\\\" s\\\\ \\r\\b\\f\\u007f "
                        "\xE2\x82\xAC\""),
              std::string::npos)
        << json;
    expectJsonDecodesTo(json, kHostile, kHostile, kHostile);
}

TEST(DseSweep, MemoryBoundedModeKeepsOnlyTheFrontier)
{
    SweepSpec spec;
    spec.network = "mvm";
    spec.mappings = 4;
    spec.scaledAdc = true;
    spec.addAxis("array", std::vector<double>{64, 128, 4096});
    spec.addAxis("dac_bits", std::vector<double>{1, 2, 8});

    engine::clearPerActionCache();
    SweepResult full = runSweep(spec);
    ASSERT_TRUE(full.pointsStored);

    engine::clearPerActionCache();
    SweepOptions opts;
    opts.maxPointsInMemory = 4; // grid is 9 points: force bounded mode
    SweepResult bounded = runSweep(spec, opts);

    EXPECT_FALSE(bounded.pointsStored);
    EXPECT_EQ(bounded.totalPoints, 9u);
    EXPECT_EQ(bounded.evaluated, full.evaluated);
    EXPECT_EQ(bounded.failed, full.failed);
    EXPECT_EQ(bounded.skipped, full.skipped);
    EXPECT_EQ(bounded.frontier, full.frontier);
    EXPECT_EQ(bounded.bestIndex, full.bestIndex);
    EXPECT_EQ(bounded.cacheHits, full.cacheHits);
    EXPECT_EQ(bounded.cacheMisses, full.cacheMisses);

    // Only the frontier is stored, in grid order, metrics intact.
    ASSERT_EQ(bounded.points.size(), bounded.frontier.size());
    for (std::size_t k = 0; k < bounded.frontier.size(); ++k) {
        const std::size_t idx = bounded.frontier[k];
        const PointResult* got = bounded.findPoint(idx);
        ASSERT_NE(got, nullptr) << "frontier point " << idx;
        EXPECT_TRUE(got->onFrontier);
        const PointResult* want = full.findPoint(idx);
        ASSERT_NE(want, nullptr);
        EXPECT_DOUBLE_EQ(got->energyPerMacPj, want->energyPerMacPj);
        EXPECT_DOUBLE_EQ(got->latencyNs, want->latencyNs);
    }
    // Dominated points were folded into the summary and released.
    bool sawDominated = false;
    for (std::size_t i = 0; i < 9; ++i) {
        if (full.findPoint(i)->status == PointStatus::Ok &&
            !full.findPoint(i)->onFrontier) {
            EXPECT_EQ(bounded.findPoint(i), nullptr);
            sawDominated = true;
        }
    }
    EXPECT_TRUE(sawDominated) << "fixture lost its dominated points";
    // Failures are sampled for the report.
    ASSERT_FALSE(bounded.failureSamples.empty());
    EXPECT_EQ(bounded.failureSamples[0].status, PointStatus::Failed);
}

/** dse.* counter values relevant to the resume contract. */
struct DseCounters
{
    std::uint64_t evaluated = 0, failed = 0, skipped = 0, pareto = 0;
    std::uint64_t hits = 0, misses = 0;
    std::uint64_t chunksExec = 0, chunksResumed = 0, pointsSkipped = 0;
};

DseCounters
readDseCounters()
{
    auto value = [](const char* name) -> std::uint64_t {
        for (const auto& [n, v] : obs::snapshot().counters)
            if (n == name)
                return v;
        return 0;
    };
    DseCounters c;
    c.evaluated = value("dse.points_evaluated");
    c.failed = value("dse.points_failed");
    c.skipped = value("dse.points_skipped");
    c.pareto = value("dse.points_pareto");
    c.hits = value("dse.cache.hits");
    c.misses = value("dse.cache.misses");
    c.chunksExec = value("dse.chunks_executed");
    c.chunksResumed = value("dse.chunks_resumed");
    c.pointsSkipped = value("dse.resume.points_skipped");
    return c;
}

TEST(DseSweep, InterruptedThenResumedRunIsByteIdentical)
{
    // The resume contract end-to-end: run two chunks, stop (the
    // controlled stand-in for a kill), rerun against the same journal
    // with a different thread count, and require every artifact byte
    // and every order-insensitive counter to match an uninterrupted
    // run.
    SweepSpec spec;
    spec.name = "resume";
    spec.network = "mvm";
    spec.mappings = 4;
    spec.scaledAdc = true;
    spec.addAxis("array", std::vector<double>{64, 128, 4096});
    spec.addAxis("dac_bits", std::vector<double>{1, 2, 8});
    Constraint c;
    c.field = "adc_bits";
    c.hasMax = true;
    c.max = 14.0;
    spec.constraints.push_back(c);

    engine::clearPerActionCache();
    obs::resetAll();
    SweepResult clean = runSweep(spec);
    const DseCounters cleanCounters = readDseCounters();
    const std::string table = formatTable(clean);
    const std::string csv = toCsv(clean);
    const std::string json = toJson(clean);

    for (int resumeThreads : {1, 8}) {
        const std::string dir = support::scratchPath(
            "resume_t" + std::to_string(resumeThreads));
        std::filesystem::remove_all(dir);

        SweepOptions first;
        first.threads = 1;
        first.chunkSize = 2;
        first.maxChunks = 2;
        first.resumeDir = dir;
        engine::clearPerActionCache();
        SweepResult partial = runSweep(spec, first);
        EXPECT_TRUE(partial.stoppedEarly);
        EXPECT_EQ(partial.chunksExecuted, 2u);
        EXPECT_EQ(partial.chunksTotal, 5u);
        EXPECT_NE(formatTable(partial).find("paused after"),
                  std::string::npos);

        SweepOptions second;
        second.threads = resumeThreads;
        second.chunkSize = 2;
        second.resumeDir = dir;
        engine::clearPerActionCache();
        obs::resetAll();
        SweepResult resumed = runSweep(spec, second);
        const DseCounters resumedCounters = readDseCounters();

        EXPECT_FALSE(resumed.stoppedEarly);
        EXPECT_EQ(resumed.chunksResumed, 2u);
        EXPECT_EQ(resumed.chunksExecuted, 3u);
        EXPECT_EQ(resumed.resumedPoints, 4u);
        EXPECT_EQ(formatTable(resumed), table)
            << "resumed table differs at --threads " << resumeThreads;
        EXPECT_EQ(toCsv(resumed), csv);
        EXPECT_EQ(toJson(resumed), json);

        // Every counter except the execution-shape triple matches the
        // uninterrupted run; the triple reports the resume itself.
        EXPECT_EQ(resumedCounters.evaluated, cleanCounters.evaluated);
        EXPECT_EQ(resumedCounters.failed, cleanCounters.failed);
        EXPECT_EQ(resumedCounters.skipped, cleanCounters.skipped);
        EXPECT_EQ(resumedCounters.pareto, cleanCounters.pareto);
        EXPECT_EQ(resumedCounters.hits, cleanCounters.hits);
        EXPECT_EQ(resumedCounters.misses, cleanCounters.misses);
        EXPECT_EQ(resumedCounters.chunksExec, 3u);
        EXPECT_EQ(resumedCounters.chunksResumed, 2u);
        EXPECT_EQ(resumedCounters.pointsSkipped, 4u);

        // Resuming a finished journal re-runs nothing.
        engine::clearPerActionCache();
        SweepResult again = runSweep(spec, second);
        EXPECT_EQ(again.chunksExecuted, 0u);
        EXPECT_EQ(again.chunksResumed, 5u);
        EXPECT_EQ(toCsv(again), csv);
    }
}

TEST(DseSweep, ResumeAgainstADriftedSpecIsFatal)
{
    const std::string dir = support::scratchPath("resume_drift");
    std::filesystem::remove_all(dir);
    SweepSpec spec;
    spec.network = "mvm";
    spec.mappings = 4;
    spec.addAxis("dac_bits", std::vector<double>{1, 2, 3, 4});

    SweepOptions opts;
    opts.chunkSize = 2;
    opts.maxChunks = 1;
    opts.resumeDir = dir;
    SweepResult partial = runSweep(spec, opts);
    EXPECT_TRUE(partial.stoppedEarly);

    // Any evaluation-affecting change — here the seed — must refuse to
    // merge with the journaled half.
    spec.seed = 2;
    opts.maxChunks = 0;
    EXPECT_THROW(runSweep(spec, opts), FatalError);
}

TEST(DseSweep, MillionPointGridRunsMemoryBounded)
{
    // The grid that used to die in validateGrid() with "more than
    // 1000000 points". Constraints prune it to a handful of live
    // evaluations, but every index is still materialized, checked, and
    // folded — proving the executor streams rather than allocates the
    // grid.
    SweepSpec spec;
    spec.network = "mvm";
    spec.mappings = 2;
    std::vector<double> fine;
    for (int i = 0; i < 102; ++i)
        fine.push_back(0.05 + 0.001 * i);
    spec.addAxis("fault_sigma", fine);           // 102
    spec.addAxis("adc_noise_sigma", fine);       // x 102
    spec.addAxis("stuck_off_rate", fine);        // x 102 = 1,061,208
    Constraint c;
    c.field = "fault_sigma";
    c.hasMax = true;
    c.max = 0.0505; // one fine value survives per axis slot
    spec.constraints.push_back(c);
    Constraint c2;
    c2.field = "adc_noise_sigma";
    c2.hasMax = true;
    c2.max = 0.0505;
    spec.constraints.push_back(c2);
    Constraint c3;
    c3.field = "stuck_off_rate";
    c3.hasMax = true;
    // Half a grid step past the second value: 0.05 + 0.001 carries
    // binary roundoff, so the bound cannot sit exactly on it.
    c3.max = 0.0515;
    spec.constraints.push_back(c3);

    ASSERT_GT(spec.pointCount(), 1000000u);
    spec.validate(); // no longer fatal above 1e6

    SweepOptions opts;
    opts.threads = 8;
    opts.chunkSize = 65536;
    SweepResult result = runSweep(spec, opts);
    EXPECT_FALSE(result.pointsStored);
    EXPECT_EQ(result.totalPoints, 1061208u);
    EXPECT_EQ(result.evaluated, 2u); // stuck_off_rate 0.05, 0.051
    EXPECT_EQ(result.skipped, result.totalPoints - 2);
    EXPECT_EQ(result.failed, 0u);
    EXPECT_LE(result.points.size(), 2u);
    ASSERT_FALSE(result.frontier.empty());
    EXPECT_NE(result.findPoint(result.frontier[0]), nullptr);
}

/** The resume-test spec (5 chunks of 2 at chunkSize 2). */
SweepSpec
cancelSpec()
{
    SweepSpec spec;
    spec.name = "cancel";
    spec.network = "mvm";
    spec.mappings = 4;
    spec.scaledAdc = true;
    spec.addAxis("array", std::vector<double>{64, 128, 4096});
    spec.addAxis("dac_bits", std::vector<double>{1, 2, 8});
    Constraint c;
    c.field = "adc_bits";
    c.hasMax = true;
    c.max = 14.0;
    spec.constraints.push_back(c);
    return spec;
}

TEST(DseSweepCancel, PreCancelledTokenStopsBeforeAnyChunk)
{
    SweepSpec spec = cancelSpec();
    SweepOptions opts;
    opts.cancel.cancel(CancelReason::User);
    SweepResult result = runSweep(spec, opts);
    EXPECT_TRUE(result.stoppedEarly);
    EXPECT_TRUE(result.cancelled);
    EXPECT_EQ(result.chunksExecuted, 0u);
    EXPECT_EQ(result.evaluated, 0u);
}

TEST(DseSweepCancel, CancelledResumedSweepIsByteIdentical)
{
    // The acceptance contract: cancel mid-sweep (the token fires while
    // chunk 1 is in flight — that chunk still completes and commits),
    // then resume with a clean token and require the artifacts and
    // deterministic counters to match an uninterrupted run, at several
    // thread counts.
    SweepSpec spec = cancelSpec();

    engine::clearPerActionCache();
    obs::resetAll();
    SweepResult clean = runSweep(spec);
    const DseCounters cleanCounters = readDseCounters();
    const std::string table = formatTable(clean);
    const std::string csv = toCsv(clean);
    const std::string json = toJson(clean);

    for (int resumeThreads : {1, 8}) {
        const std::string dir = support::scratchPath(
            "cancel_t" + std::to_string(resumeThreads));
        std::filesystem::remove_all(dir);

        // The validity hook runs per materialized point, inside the
        // chunk that evaluates it — a deterministic stand-in for a
        // SIGINT landing mid-chunk. It always returns true (skip set
        // unchanged), and fires the token when chunk 1's first point
        // (index 2 at chunkSize 2) materializes. validity is not part
        // of the spec fingerprint, so resuming without it is valid.
        SweepSpec interrupted = cancelSpec();
        SweepOptions first;
        first.threads = 1;
        first.chunkSize = 2;
        first.resumeDir = dir;
        interrupted.validity = [&first](const SweepPoint& p) {
            if (p.index == 2)
                first.cancel.cancel(CancelReason::User);
            return true;
        };
        engine::clearPerActionCache();
        obs::resetAll();
        SweepResult partial = runSweep(interrupted, first);
        EXPECT_TRUE(partial.stoppedEarly);
        EXPECT_TRUE(partial.cancelled);
        // Chunks 0 and 1 committed whole; the token was only acted on
        // at the next chunk boundary.
        EXPECT_EQ(partial.chunksExecuted, 2u);
        EXPECT_EQ(partial.chunksTotal, 5u);
        EXPECT_NE(formatTable(partial).find("paused after"),
                  std::string::npos);
        bool sawCancelCounter = false;
        for (const auto& [name, v] : obs::snapshot().counters)
            if (name == "dse.cancelled")
                sawCancelCounter = v == 1;
        EXPECT_TRUE(sawCancelCounter);

        SweepOptions second;
        second.threads = resumeThreads;
        second.chunkSize = 2;
        second.resumeDir = dir;
        engine::clearPerActionCache();
        obs::resetAll();
        SweepResult resumed = runSweep(spec, second);
        const DseCounters resumedCounters = readDseCounters();

        EXPECT_FALSE(resumed.stoppedEarly);
        EXPECT_FALSE(resumed.cancelled);
        EXPECT_EQ(resumed.chunksResumed, 2u);
        EXPECT_EQ(resumed.chunksExecuted, 3u);
        EXPECT_EQ(formatTable(resumed), table)
            << "resumed table differs at --threads " << resumeThreads;
        EXPECT_EQ(toCsv(resumed), csv);
        EXPECT_EQ(toJson(resumed), json);
        EXPECT_EQ(resumedCounters.evaluated, cleanCounters.evaluated);
        EXPECT_EQ(resumedCounters.failed, cleanCounters.failed);
        EXPECT_EQ(resumedCounters.skipped, cleanCounters.skipped);
        EXPECT_EQ(resumedCounters.pareto, cleanCounters.pareto);
        EXPECT_EQ(resumedCounters.hits, cleanCounters.hits);
        EXPECT_EQ(resumedCounters.misses, cleanCounters.misses);
    }
}

TEST(DseSweepCancel, UncancelledSweepNeverBumpsTheCancelCounter)
{
    // dse.cancelled is registered with the other dse counters, so it is
    // always in the snapshot; an uncancelled sweep must leave it at zero
    // (and the exporters, which skip zero counters, never print it).
    SweepSpec spec = cancelSpec();
    obs::resetAll();
    SweepResult result = runSweep(spec);
    EXPECT_FALSE(result.cancelled);
    for (const auto& [name, v] : obs::snapshot().counters)
        if (name == "dse.cancelled")
            EXPECT_EQ(v, 0u);
}

} // namespace
} // namespace cimloop::dse
