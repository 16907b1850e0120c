/**
 * The on-disk sweep journal: records round-trip through a fresh loader,
 * the manifest header pins (fingerprint, grid size, chunk size) are
 * enforced on reopen, and the commit protocol tolerates a killed
 * writer — an uncommitted tail in results.jsonl is dropped, a
 * truncated manifest line stops the committed set at the last full
 * commit, and records outside committed ranges never load. Every line
 * the writer produces is strict JSON (non-finite metrics become null),
 * and seeded malformed lines never crash the loader.
 */
#include "cimloop/dse/journal.hh"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cimloop/common/error.hh"
#include "cimloop/common/json.hh"
#include "cimloop/common/util.hh"
#include "cimloop/engine/evaluate.hh"
#include "support/scratch.hh"

namespace cimloop::dse {
namespace {

/** A fresh (pre-removed) journal directory in the test's scratch
 *  directory. */
std::string
freshDir(const std::string& tag)
{
    std::string dir = support::scratchPath("journal_" + tag);
    std::filesystem::remove_all(dir);
    return dir;
}

/** Record lines for point 1 that are complete JSON yet break the
 *  record schema in one way each. */
const char* const kWrongTypedRecords[] = {
    "{\"i\":\"1\",\"st\":\"ok\",\"eng\":1,\"d\":\"\",\"m\":[9,9,9,9,9,9,9]}",
    "{\"i\":-1,\"st\":\"ok\",\"eng\":1,\"d\":\"\",\"m\":[9,9,9,9,9,9,9]}",
    "{\"i\":1.5,\"st\":\"ok\",\"eng\":1,\"d\":\"\",\"m\":[9,9,9,9,9,9,9]}",
    "{\"i\":1e0,\"st\":\"ok\",\"eng\":1,\"d\":\"\",\"m\":[9,9,9,9,9,9,9]}",
    "{\"i\":1,\"st\":\"ok\",\"eng\":1,\"d\":\"\",\"m\":[9,9,9,9,9,9]}",
    "{\"i\":1,\"st\":\"ok\",\"eng\":1,\"d\":\"\",\"m\":[9,9,9,9,9,9,9,9]}",
    "{\"i\":1,\"st\":\"ok\",\"eng\":1,\"d\":\"\",\"m\":[9,9,\"9\",9,9,9,9]}",
    "{\"i\":1,\"eng\":1,\"d\":\"\",\"m\":[9,9,9,9,9,9,9]}",
    "{\"i\":1,\"st\":\"bogus\",\"eng\":1,\"d\":\"\",\"m\":[9,9,9,9,9,9,9]}",
    "{\"i\":1,\"st\":\"ok\",\"eng\":true,\"d\":\"\",\"m\":[9,9,9,9,9,9,9]}",
    "{\"i\":1,\"st\":\"ok\",\"eng\":1,\"d\":7,\"m\":[9,9,9,9,9,9,9]}",
    "{\"i\":1,\"st\":\"ok\",\"eng\":1,\"d\":\"\",\"m\":[9,9,9,9,9,9,-nan]}",
};

PointResult
okPoint(std::size_t index, double energy)
{
    PointResult pr;
    pr.point.index = index;
    pr.status = PointStatus::Ok;
    pr.engineTouched = true;
    pr.energyPj = energy;
    pr.energyPerMacPj = energy / 2;
    pr.latencyNs = 3.5;
    pr.areaUm2 = 100.25;
    pr.macs = 64;
    pr.topsPerWatt = 0.5;
    pr.accuracyLoss = 2;
    return pr;
}

PointResult
skippedPoint(std::size_t index)
{
    PointResult pr;
    pr.point.index = index;
    pr.status = PointStatus::Skipped;
    pr.statusDetail = "constraint";
    return pr;
}

TEST(DseJournal, RecordsRoundTripThroughAFreshLoader)
{
    const std::string dir = freshDir("roundtrip");
    {
        SweepJournal j(dir, "00000000deadbeef", 6, 2, "rt");
        EXPECT_EQ(j.completedChunks(), 0u);
        std::vector<PointResult> chunk;
        chunk.push_back(okPoint(2, 8.0));
        PointResult failed;
        failed.point.index = 3;
        failed.status = PointStatus::Failed;
        failed.engineTouched = true;
        failed.statusDetail = "fatal: line1\nline2 \"quoted\"";
        chunk.push_back(failed);
        j.appendChunk(1, 2, 4, chunk);
    }
    SweepJournal j(dir, "00000000deadbeef", 6, 2, "rt");
    EXPECT_EQ(j.completedChunks(), 1u);
    EXPECT_FALSE(j.chunkCompleted(0));
    EXPECT_TRUE(j.chunkCompleted(1));

    const JournalRecord* ok = j.record(2);
    ASSERT_NE(ok, nullptr);
    EXPECT_EQ(ok->status, PointStatus::Ok);
    EXPECT_TRUE(ok->engineTouched);
    EXPECT_DOUBLE_EQ(ok->metrics[0], 8.0);
    EXPECT_DOUBLE_EQ(ok->metrics[1], 4.0);
    EXPECT_DOUBLE_EQ(ok->metrics[3], 100.25);

    const JournalRecord* bad = j.record(3);
    ASSERT_NE(bad, nullptr);
    EXPECT_EQ(bad->status, PointStatus::Failed);
    EXPECT_EQ(bad->statusDetail, "fatal: line1\nline2 \"quoted\"");

    EXPECT_EQ(j.record(0), nullptr); // chunk 0 never committed
}

TEST(DseJournal, SkippedPointsAreNotJournaled)
{
    const std::string dir = freshDir("skipped");
    {
        SweepJournal j(dir, "1111111111111111", 2, 2, "s");
        j.appendChunk(0, 0, 2, {okPoint(0, 1.0), skippedPoint(1)});
    }
    SweepJournal j(dir, "1111111111111111", 2, 2, "s");
    EXPECT_TRUE(j.chunkCompleted(0));
    EXPECT_NE(j.record(0), nullptr);
    // Validity is re-derived from (spec, index); no record exists.
    EXPECT_EQ(j.record(1), nullptr);
}

TEST(DseJournal, HeaderDisagreementIsFatal)
{
    const std::string dir = freshDir("header");
    {
        SweepJournal j(dir, "aaaaaaaaaaaaaaaa", 4, 2, "h");
        j.appendChunk(0, 0, 2, {okPoint(0, 1.0), okPoint(1, 2.0)});
    }
    // Different spec fingerprint: resuming would merge foreign results.
    EXPECT_THROW(SweepJournal(dir, "bbbbbbbbbbbbbbbb", 4, 2, "h"),
                 FatalError);
    // Different grid size or chunking: ranges no longer line up.
    EXPECT_THROW(SweepJournal(dir, "aaaaaaaaaaaaaaaa", 8, 2, "h"),
                 FatalError);
    EXPECT_THROW(SweepJournal(dir, "aaaaaaaaaaaaaaaa", 4, 3, "h"),
                 FatalError);
    // The rejected opens must not have clobbered the journal: the
    // matching triple still loads the committed chunk.
    SweepJournal ok(dir, "aaaaaaaaaaaaaaaa", 4, 2, "h");
    EXPECT_EQ(ok.completedChunks(), 1u);
    EXPECT_NE(ok.record(0), nullptr);
}

TEST(DseJournal, UncommittedResultTailIsDropped)
{
    // Kill-between-flushes: result lines hit disk but the manifest
    // commit line did not. The loader must treat that chunk as never
    // run (its records dropped), so the executor re-executes it.
    const std::string dir = freshDir("tail");
    {
        SweepJournal j(dir, "cccccccccccccccc", 4, 2, "t");
        j.appendChunk(0, 0, 2, {okPoint(0, 1.0), okPoint(1, 2.0)});
    }
    {
        std::ofstream results(dir + "/results.jsonl", std::ios::app);
        results << "{\"i\":2,\"st\":\"ok\",\"eng\":1,\"d\":\"\","
                   "\"m\":[9,9,9,9,9,9,9]}\n";
        results << "{\"i\":3,\"st\":\"ok\",\"eng\":1,"; // cut mid-write
    }
    SweepJournal j(dir, "cccccccccccccccc", 4, 2, "t");
    EXPECT_EQ(j.completedChunks(), 1u);
    EXPECT_NE(j.record(0), nullptr);
    EXPECT_EQ(j.record(2), nullptr) << "uncommitted record survived";
    EXPECT_EQ(j.record(3), nullptr);

    // Wrong-typed re-records of a committed point are dropped like a
    // cut-off tail: the last *well-formed* occurrence still wins.
    {
        std::ofstream results(dir + "/results.jsonl", std::ios::app);
        results << '\n';
        for (const char* bad : kWrongTypedRecords)
            results << bad << '\n';
    }
    SweepJournal again(dir, "cccccccccccccccc", 4, 2, "t");
    const JournalRecord* kept = again.record(1);
    ASSERT_NE(kept, nullptr);
    EXPECT_DOUBLE_EQ(kept->metrics[0], 2.0);
    EXPECT_EQ(kept->status, PointStatus::Ok);
}

TEST(DseJournal, TruncatedManifestLineStopsAtLastFullCommit)
{
    const std::string dir = freshDir("manifest");
    {
        SweepJournal j(dir, "dddddddddddddddd", 6, 2, "m");
        j.appendChunk(0, 0, 2, {okPoint(0, 1.0), okPoint(1, 2.0)});
    }
    {
        // A commit line cut off mid-write (the crash case the protocol
        // exists for).
        std::ofstream manifest(dir + "/manifest.jsonl", std::ios::app);
        manifest << "{\"chunk\":1,\"fr";
    }
    SweepJournal j(dir, "dddddddddddddddd", 6, 2, "m");
    EXPECT_EQ(j.completedChunks(), 1u);
    EXPECT_TRUE(j.chunkCompleted(0));
    EXPECT_FALSE(j.chunkCompleted(1));

    // A complete but wrong-typed commit line stops the committed set
    // just the same, even with a good commit after it.
    for (const char* bad :
         {"{\"chunk\":\"1\",\"from\":2,\"to\":4}",
          "{\"chunk\":1,\"from\":-2,\"to\":4}",
          "{\"chunk\":1,\"from\":2,\"to\":4.0}",
          "{\"chunk\":99999999999999999999,\"from\":2,\"to\":4}",
          "{\"chunk\":1,\"from\":2}", "[1,2,4]"}) {
        const std::string typed = freshDir("manifest_typed");
        {
            SweepJournal w(typed, "dddddddddddddddd", 6, 2, "m");
            w.appendChunk(0, 0, 2, {okPoint(0, 1.0), okPoint(1, 2.0)});
        }
        {
            std::ofstream manifest(typed + "/manifest.jsonl",
                                   std::ios::app);
            manifest << bad << "\n{\"chunk\":2,\"from\":4,\"to\":6}\n";
        }
        SweepJournal t(typed, "dddddddddddddddd", 6, 2, "m");
        EXPECT_EQ(t.completedChunks(), 1u) << bad;
        EXPECT_TRUE(t.chunkCompleted(0)) << bad;
    }
}

TEST(DseJournal, ReExecutedChunkOverwritesItsRecords)
{
    // First attempt: records flushed, commit lost (simulated by hand).
    // The re-run re-journals the chunk; the last occurrence of an index
    // wins on load.
    const std::string dir = freshDir("rewrite");
    { SweepJournal j(dir, "eeeeeeeeeeeeeeee", 2, 2, "w"); }
    {
        std::ofstream results(dir + "/results.jsonl", std::ios::app);
        results << "{\"i\":0,\"st\":\"ok\",\"eng\":1,\"d\":\"\","
                   "\"m\":[1,1,1,1,1,1,1]}\n";
    }
    {
        SweepJournal j(dir, "eeeeeeeeeeeeeeee", 2, 2, "w");
        EXPECT_EQ(j.record(0), nullptr); // dropped: never committed
        j.appendChunk(0, 0, 2, {okPoint(0, 42.0), okPoint(1, 2.0)});
    }
    SweepJournal j(dir, "eeeeeeeeeeeeeeee", 2, 2, "w");
    const JournalRecord* rec = j.record(0);
    ASSERT_NE(rec, nullptr);
    EXPECT_DOUBLE_EQ(rec->metrics[0], 42.0);
}

TEST(DseJournal, CorruptCommitGeometryIsFatal)
{
    // A commit line whose range disagrees with chunk * chunk_size means
    // the journal was hand-edited or written by different code — merging
    // it would silently misplace results.
    const std::string dir = freshDir("geometry");
    { SweepJournal j(dir, "ffffffffffffffff", 6, 2, "g"); }
    {
        std::ofstream manifest(dir + "/manifest.jsonl", std::ios::app);
        manifest << "{\"chunk\":1,\"from\":0,\"to\":2}\n";
    }
    EXPECT_THROW(SweepJournal(dir, "ffffffffffffffff", 6, 2, "g"),
                 FatalError);
}

TEST(DseJournal, NonFiniteMetricsJournalAsNullAndResumeByteIdentical)
{
    // 1e200 V overflows the energy model; the executor demotes that
    // point to Failed with NaN/inf metrics. The journal must still be
    // line-by-line valid JSON (null, not a bare nan token), and a run
    // restored entirely from it must export the same bytes.
    SweepSpec spec;
    spec.name = "nonfinite";
    spec.network = "mvm";
    spec.mappings = 4;
    spec.addAxis("voltage", std::vector<double>{0.8, 1e200});

    engine::clearPerActionCache();
    SweepResult clean = runSweep(spec);
    ASSERT_EQ(clean.failed, 1u);

    const std::string dir = freshDir("nonfinite");
    SweepOptions opts;
    opts.chunkSize = 1;
    opts.resumeDir = dir;
    engine::clearPerActionCache();
    SweepResult journaled = runSweep(spec, opts);
    EXPECT_EQ(journaled.chunksExecuted, 2u);

    // The manifest holds the header and two commits; the results file
    // one record per point.
    for (const auto& [file, expectLines] :
         {std::pair<const char*, int>{"manifest.jsonl", 3},
          std::pair<const char*, int>{"results.jsonl", 2}}) {
        std::ifstream in(dir + "/" + file);
        std::string line;
        int lines = 0;
        while (std::getline(in, line)) {
            ++lines;
            std::string error;
            EXPECT_TRUE(parseJson(line, &error).has_value())
                << file << " line " << lines << ": " << error << "\n"
                << line;
        }
        EXPECT_EQ(lines, expectLines) << file;
    }

    {
        SweepJournal j(dir, specFingerprint(spec), 2, 1, spec.name);
        const JournalRecord* failed = j.record(1);
        ASSERT_NE(failed, nullptr);
        EXPECT_EQ(failed->status, PointStatus::Failed);
        int nonFinite = 0;
        for (double m : failed->metrics) {
            if (!std::isfinite(m)) {
                ++nonFinite;
                EXPECT_TRUE(std::isnan(m)) << "null loads as NaN";
            }
        }
        EXPECT_GT(nonFinite, 0);
    }

    engine::clearPerActionCache();
    SweepResult resumed = runSweep(spec, opts);
    EXPECT_EQ(resumed.chunksExecuted, 0u);
    EXPECT_EQ(resumed.chunksResumed, 2u);
    EXPECT_EQ(formatTable(resumed), formatTable(clean));
    EXPECT_EQ(toCsv(resumed), toCsv(clean));
    EXPECT_EQ(toJson(resumed), toJson(clean));
}

/** Replaces the value of member @p key in a flat journal line (up to
 *  the next ',' or '}', or the whole array). */
std::string
withValue(std::string line, const std::string& key,
          const std::string& value)
{
    const std::string marker = "\"" + key + "\":";
    const std::size_t from = line.find(marker) + marker.size();
    const std::size_t to = line[from] == '['
                               ? line.find(']', from) + 1
                               : line.find_first_of(",}", from);
    return line.replace(from, to - from, value);
}

TEST(DseJournal, TwoHundredMalformedLinesNeverCrashTheLoader)
{
    // Seeded mutations of one header, commit or record line each. The
    // loader must never crash, a malformed header must stay fatal, a
    // malformed commit must stop the committed set, and a malformed
    // record must be dropped; every record that does load is for a
    // committed index and carries the expected values.
    const std::string fp = "0123456789abcdef";
    const std::string header =
        "{\"cimloop_sweep_journal\":1,\"fingerprint\":\"" + fp +
        "\",\"points\":8,\"chunk_size\":2,\"name\":\"fuzz\"}";
    auto commitLine = [](std::size_t k) {
        return "{\"chunk\":" + std::to_string(k) + ",\"from\":" +
               std::to_string(2 * k) + ",\"to\":" +
               std::to_string(2 * k + 2) + "}";
    };
    auto recordLine = [](std::size_t i) {
        return "{\"i\":" + std::to_string(i) +
               ",\"st\":\"ok\",\"eng\":1,\"d\":\"d\",\"m\":[" +
               std::to_string(10 + i) + ",1,2,3,4,5,6]}";
    };
    const std::vector<std::vector<std::string>> intKeys = {
        {"cimloop_sweep_journal", "points", "chunk_size"},
        {"chunk", "from", "to"},
        {"i", "eng"}};

    int malformedCount = 0;
    for (int c = 0; c < 200; ++c) {
        Rng rng = Rng::forStream(0x10C4A1, static_cast<std::uint64_t>(c));
        const int target = c % 3; // 0 header, 1 commit 1, 2 record 1
        std::string line = target == 0   ? header
                           : target == 1 ? commitLine(1)
                                         : recordLine(1);
        // Header and commit lines carry only integers; records add
        // the metric array and the status.
        const std::uint64_t mutation = rng.below(target == 2 ? 10 : 5);
        const std::vector<std::string>& keys = intKeys[target];
        const std::string& key = keys[rng.below(keys.size())];
        bool malformed = true;
        switch (mutation) {
        case 0: line.resize(rng.below(line.size())); break;
        case 1: {
            // A byte flip that is not a newline (that would split the
            // line in two, which the truncation case already covers).
            const std::size_t at = rng.below(line.size());
            char flipped = line[at];
            while (flipped == line[at] || flipped == '\n')
                flipped = static_cast<char>(
                    line[at] ^ (1 << rng.below(8)));
            line[at] = flipped;
            malformed = !parseJson(line).has_value();
            break;
        }
        case 2: line = withValue(line, key, "\"2\""); break;
        case 3: line = withValue(line, key, "-1"); break;
        case 4: line = withValue(line, key, "1.5"); break;
        case 5: line = withValue(line, "m", "[10,1,2,3,4,5]"); break;
        case 6: line = withValue(line, "m", "[10,1,2,3,4,5,6,7]"); break;
        case 7: line = withValue(line, "m", "[10,1,\"2\",3,4,5,6]"); break;
        case 8: line.erase(line.find(",\"st\":\"ok\""), 10); break;
        default: line = withValue(line, "st", "\"paused\""); break;
        }
        malformedCount += malformed;

        const std::string dir = freshDir("fuzz");
        std::filesystem::create_directories(dir);
        {
            std::ofstream manifest(dir + "/manifest.jsonl");
            manifest << (target == 0 ? line : header) << '\n';
            for (std::size_t k = 0; k < 3; ++k)
                manifest << (target == 1 && k == 1 ? line : commitLine(k))
                         << '\n';
            std::ofstream results(dir + "/results.jsonl");
            for (std::size_t i = 0; i < 6; ++i)
                results << (target == 2 && i == 1 ? line : recordLine(i))
                        << '\n';
        }

        std::optional<SweepJournal> j;
        bool fatal = false;
        try {
            j.emplace(dir, fp, 8, 2, "fuzz");
        } catch (const FatalError&) {
            fatal = true;
        }
        SCOPED_TRACE("case " + std::to_string(c) + ": " + line);
        if (target == 0) {
            if (malformed) {
                EXPECT_TRUE(fatal) << "malformed header was accepted";
            }
            continue;
        }
        ASSERT_FALSE(fatal && malformed);
        if (fatal)
            continue; // a well-formed commit with a corrupt geometry
        EXPECT_TRUE(j->chunkCompleted(0));
        if (target == 1 && malformed) {
            EXPECT_EQ(j->completedChunks(), 1u);
        }
        if (target == 2 && malformed) {
            EXPECT_EQ(j->record(1), nullptr);
        }
        for (std::size_t i = 0; i < 8; ++i) {
            const JournalRecord* rec = j->record(i);
            if (rec == nullptr)
                continue;
            EXPECT_EQ(rec->index, i);
            EXPECT_TRUE(j->chunkCompleted(i / 2));
            EXPECT_TRUE(rec->status == PointStatus::Ok ||
                        rec->status == PointStatus::Failed);
            if (i >= 2) { // written after the mutated line: untouched
                EXPECT_EQ(rec->metrics[0], static_cast<double>(10 + i));
                EXPECT_EQ(rec->statusDetail, "d");
            }
        }
    }
    // The generator is overwhelmingly malformed by construction.
    EXPECT_GT(malformedCount, 150);
}

} // namespace
} // namespace cimloop::dse
