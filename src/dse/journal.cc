/**
 * @file
 * Sweep journal read/write (see journal.hh for the layout and commit
 * protocol). Every line is one JSON object: the writers below format
 * their fixed layout by hand (escaping strings with the common
 * jsonEscape, and writing a non-finite metric as null), and the loader
 * reads each line back through the common strict parser plus typed
 * field lookups. A header that fails to load is fatal; a commit or
 * record line that fails is an uncommitted tail and is dropped.
 */
#include "cimloop/dse/journal.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "cimloop/common/error.hh"
#include "cimloop/common/json.hh"
#include "../detail.hh"

namespace cimloop::dse {

AppendFile::~AppendFile()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
AppendFile::open(const std::string& path, bool truncate)
{
    CIM_ASSERT(fd_ < 0, "AppendFile is single-open");
    int flags = O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC;
    if (truncate)
        flags |= O_TRUNC;
    fd_ = ::open(path.c_str(), flags, 0644);
}

bool
AppendFile::write(const std::string& data)
{
    if (fd_ < 0)
        return false;
    std::size_t done = 0;
    while (done < data.size()) {
        const ssize_t n =
            ::write(fd_, data.data() + done, data.size() - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += static_cast<std::size_t>(n);
    }
    return true;
}

bool
AppendFile::sync()
{
    if (fd_ < 0)
        return false;
    int rc;
    do {
        rc = ::fsync(fd_);
    } while (rc != 0 && errno == EINTR);
    return rc == 0;
}

namespace {

constexpr int kJournalVersion = 1;

bool
journalFsyncEnabled()
{
    const char* env = std::getenv("CIMLOOP_JOURNAL_NO_FSYNC");
    return env == nullptr || std::strcmp(env, "1") != 0;
}

/** Non-negative integer member @p key of object @p obj, read from the
 *  number's raw token: digits only — no sign, fraction or exponent —
 *  and no wrap-around. */
bool
uintField(const JsonValue& obj, const char* key, std::size_t& out)
{
    const JsonValue* v = obj.get(key);
    if (v == nullptr || !v->isNumber() ||
        v->raw.find_first_not_of("0123456789") != std::string::npos)
        return false;
    errno = 0;
    out = std::strtoull(v->raw.c_str(), nullptr, 10);
    return errno != ERANGE;
}

/** String member @p key of object @p obj. */
bool
stringField(const JsonValue& obj, const char* key, std::string& out)
{
    const JsonValue* v = obj.get(key);
    if (v == nullptr || !v->isString())
        return false;
    out = v->text;
    return true;
}

std::string
recordLine(const PointResult& pr)
{
    std::ostringstream oss;
    oss << "{\"i\":" << pr.point.index << ",\"st\":\""
        << pointStatusName(pr.status)
        << "\",\"eng\":" << (pr.engineTouched ? 1 : 0) << ",\"d\":\""
        << jsonEscape(pr.statusDetail) << "\",\"m\":[";
    const double m[kJournalMetricCount] = {
        pr.energyPj, pr.energyPerMacPj, pr.latencyNs, pr.areaUm2,
        pr.macs,     pr.topsPerWatt,    pr.accuracyLoss};
    // JSON has no NaN/inf: a non-finite metric (only Failed points carry
    // one, and no exporter prints a Failed point's metrics) is null.
    for (std::size_t k = 0; k < kJournalMetricCount; ++k)
        oss << (k ? "," : "")
            << (std::isfinite(m[k]) ? detail::fmtFull(m[k]) : "null");
    oss << "]}";
    return oss.str();
}

bool
parseRecordLine(const std::string& line, JournalRecord& rec)
{
    const std::optional<JsonValue> doc = parseJson(line);
    std::size_t eng = 0;
    std::string st;
    if (!doc || !uintField(*doc, "i", rec.index) ||
        !stringField(*doc, "st", st) || !uintField(*doc, "eng", eng) ||
        !stringField(*doc, "d", rec.statusDetail))
        return false;
    const JsonValue* m = doc->get("m");
    if (m == nullptr || !m->isArray() ||
        m->items.size() != kJournalMetricCount)
        return false;
    for (std::size_t k = 0; k < kJournalMetricCount; ++k) {
        const JsonValue& v = m->items[k];
        if (v.isNull())
            rec.metrics[k] = std::numeric_limits<double>::quiet_NaN();
        else if (v.isNumber())
            rec.metrics[k] = v.number;
        else
            return false;
    }
    rec.engineTouched = eng != 0;
    if (st == "ok")
        rec.status = PointStatus::Ok;
    else if (st == "failed")
        rec.status = PointStatus::Failed;
    else
        return false;
    return true;
}

std::string
headerLine(const std::string& fingerprint, std::size_t points,
           std::size_t chunkSize, const std::string& name)
{
    std::ostringstream oss;
    oss << "{\"cimloop_sweep_journal\":" << kJournalVersion
        << ",\"fingerprint\":\"" << jsonEscape(fingerprint)
        << "\",\"points\":" << points << ",\"chunk_size\":" << chunkSize
        << ",\"name\":\"" << jsonEscape(name) << "\"}";
    return oss.str();
}

} // namespace

SweepJournal::SweepJournal(std::string dir, std::string fingerprint,
                           std::size_t points, std::size_t chunkSize,
                           const std::string& sweepName)
    : dir_(std::move(dir)), chunkSize_(chunkSize),
      fsync_(journalFsyncEnabled())
{
    CIM_ASSERT(chunkSize_ > 0, "sweep journal chunk size must be > 0");
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        CIM_FATAL("cannot create sweep journal directory '", dir_,
                  "': ", ec.message());
    }
    const std::string manifestPath = dir_ + "/manifest.jsonl";
    const std::string resultsPath = dir_ + "/results.jsonl";
    const bool existing = std::filesystem::exists(manifestPath);
    if (existing) {
        load(fingerprint, points, chunkSize, sweepName);
        resultsOut_.open(resultsPath, /*truncate=*/false);
        manifestOut_.open(manifestPath, /*truncate=*/false);
    } else {
        resultsOut_.open(resultsPath, /*truncate=*/true);
        manifestOut_.open(manifestPath, /*truncate=*/true);
        if (manifestOut_.isOpen()) {
            const bool ok =
                manifestOut_.write(headerLine(fingerprint, points,
                                              chunkSize, sweepName) +
                                   '\n') &&
                (!fsync_ || manifestOut_.sync());
            if (!ok) {
                CIM_FATAL("cannot write sweep journal header to '",
                          manifestPath, "'");
            }
        }
    }
    if (!resultsOut_.isOpen() || !manifestOut_.isOpen()) {
        CIM_FATAL("cannot open sweep journal files under '", dir_,
                  "'");
    }
}

void
SweepJournal::load(const std::string& fingerprint, std::size_t points,
                   std::size_t chunkSize, const std::string& sweepName)
{
    (void)sweepName; // the header's name is informational only
    const std::string manifestPath = dir_ + "/manifest.jsonl";
    std::ifstream manifest(manifestPath);
    if (!manifest) {
        CIM_FATAL("cannot read sweep journal manifest '", manifestPath,
                  "'");
    }
    std::string line;
    if (!std::getline(manifest, line)) {
        CIM_FATAL("'", manifestPath,
                  "' is empty — not a cimloop sweep journal");
    }
    {
        const std::optional<JsonValue> doc = parseJson(line);
        std::size_t version = 0, hdrPoints = 0, hdrChunk = 0;
        std::string hdrFp, hdrName;
        const bool ok = doc &&
                        uintField(*doc, "cimloop_sweep_journal", version) &&
                        stringField(*doc, "fingerprint", hdrFp) &&
                        uintField(*doc, "points", hdrPoints) &&
                        uintField(*doc, "chunk_size", hdrChunk) &&
                        stringField(*doc, "name", hdrName);
        if (!ok) {
            CIM_FATAL("'", manifestPath,
                      "' does not start with a cimloop sweep journal "
                      "header");
        }
        if (version != static_cast<std::size_t>(kJournalVersion)) {
            CIM_FATAL("sweep journal '", dir_, "' has version ",
                      version, "; this build reads version ",
                      kJournalVersion);
        }
        if (hdrFp != fingerprint) {
            CIM_FATAL("sweep journal '", dir_,
                      "' was written for a different spec "
                      "(fingerprint ", hdrFp, ", current ", fingerprint,
                      "); use a fresh --resume directory or rerun the "
                      "original spec");
        }
        if (hdrPoints != points) {
            CIM_FATAL("sweep journal '", dir_, "' covers ", hdrPoints,
                      " points but the spec enumerates ", points);
        }
        if (hdrChunk != chunkSize) {
            CIM_FATAL("sweep journal '", dir_,
                      "' was written with --chunk-size ", hdrChunk,
                      "; resume with the same chunk size (got ",
                      chunkSize, ")");
        }
    }
    // Commit lines. A line the loader rejects is an append that was
    // cut short by a kill; nothing after it can be committed either, so
    // stop there.
    while (std::getline(manifest, line)) {
        const std::optional<JsonValue> doc = parseJson(line);
        std::size_t chunk = 0, from = 0, to = 0;
        const bool ok = doc && uintField(*doc, "chunk", chunk) &&
                        uintField(*doc, "from", from) &&
                        uintField(*doc, "to", to);
        if (!ok)
            break;
        const std::size_t expectFrom = chunk * chunkSize_;
        const std::size_t expectTo =
            std::min(points, expectFrom + chunkSize_);
        if (from != expectFrom || to != expectTo || to > points) {
            CIM_FATAL("sweep journal '", dir_, "' commit for chunk ",
                      chunk, " covers [", from, ", ", to,
                      ") but the grid expects [", expectFrom, ", ",
                      expectTo, ") — journal corrupt");
        }
        completed_.insert(chunk);
    }
    // Result records: keep the last occurrence of each index (a chunk
    // whose first attempt was killed mid-write gets re-executed and
    // re-journaled), then drop everything outside committed ranges.
    std::ifstream results(dir_ + "/results.jsonl");
    while (results && std::getline(results, line)) {
        JournalRecord rec;
        if (!parseRecordLine(line, rec))
            continue;
        if (rec.index >= points)
            continue;
        records_[rec.index] = std::move(rec);
    }
    for (auto it = records_.begin(); it != records_.end();) {
        if (completed_.count(it->first / chunkSize_) == 0)
            it = records_.erase(it);
        else
            ++it;
    }
}

const JournalRecord*
SweepJournal::record(std::size_t index) const
{
    auto it = records_.find(index);
    return it == records_.end() ? nullptr : &it->second;
}

void
SweepJournal::appendChunk(std::size_t chunk, std::size_t from,
                          std::size_t to,
                          const std::vector<PointResult>& results)
{
    CIM_ASSERT(results.size() == to - from,
               "journal chunk results must cover [from, to)");
    if (completed_.count(chunk))
        return;
    // Write-ahead ordering: the chunk's records reach stable storage
    // before the manifest commit line does, so a durable commit line
    // always implies durable records. One buffered write per file keeps
    // the syscall count at two writes + two fsyncs per chunk.
    std::string block;
    for (const PointResult& pr : results) {
        if (pr.status == PointStatus::Skipped)
            continue;
        block += recordLine(pr);
        block += '\n';
    }
    if (!resultsOut_.write(block) || (fsync_ && !resultsOut_.sync())) {
        CIM_FATAL("cannot append to sweep journal '", dir_,
                  "/results.jsonl'");
    }
    std::ostringstream commit;
    commit << "{\"chunk\":" << chunk << ",\"from\":" << from
           << ",\"to\":" << to << "}\n";
    if (!manifestOut_.write(commit.str()) ||
        (fsync_ && !manifestOut_.sync())) {
        CIM_FATAL("cannot append to sweep journal '", dir_,
                  "/manifest.jsonl'");
    }
    completed_.insert(chunk);
}

} // namespace cimloop::dse
