#pragma once
/**
 * Shared helpers for the regression harness: run the CLI in-process with
 * --metrics=FILE, capture its output, and extract the deterministic
 * counters block from the metrics JSON.
 */
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cimloop/cli/cli.hh"
#include "support/scratch.hh"

namespace cimloop::regress {

struct CliRun
{
    int rc = -1;
    std::string out;      //!< captured stdout
    std::string err;      //!< captured stderr
    std::string counters; //!< the metrics JSON "counters" block, verbatim
};

inline std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/**
 * The counters block between `"counters": {` and its closing `},` —
 * the byte-comparable surface (same lines scripts/metrics_regress.sh
 * extracts with sed). Span timings are intentionally left behind.
 */
inline std::string
extractCountersBlock(const std::string& metrics_json)
{
    std::size_t start = metrics_json.find("\"counters\": {");
    if (start == std::string::npos)
        return {};
    std::size_t end = metrics_json.find("\n},", start);
    if (end == std::string::npos)
        return {};
    return metrics_json.substr(start, end + 3 - start);
}

/** Parses `  "name": value` lines of a counters block into a map. */
inline std::map<std::string, unsigned long long>
parseCounters(const std::string& block)
{
    std::map<std::string, unsigned long long> out;
    std::istringstream in(block);
    std::string line;
    while (std::getline(in, line)) {
        std::size_t q1 = line.find('"');
        if (q1 == std::string::npos)
            continue;
        std::size_t q2 = line.find('"', q1 + 1);
        std::size_t colon = line.find(':', q2);
        if (q2 == std::string::npos || colon == std::string::npos)
            continue;
        std::string name = line.substr(q1 + 1, q2 - q1 - 1);
        if (name == "counters")
            continue;
        out[name] = std::stoull(line.substr(colon + 1));
    }
    return out;
}

/**
 * Runs cli::run(args + --metrics=<temp file>) and returns the exit
 * code, captured streams, and the extracted counters block. The temp
 * file lives in the process's own scratch directory and is tagged to
 * stay collision-free across tests in one binary.
 */
inline CliRun
runCliWithMetrics(std::vector<std::string> args, const std::string& tag)
{
    const std::string path =
        support::scratchPath("metrics_" + tag + ".json");
    args.push_back("--metrics=" + path);
    std::ostringstream out, err;
    CliRun r;
    r.rc = cli::run(args, out, err);
    r.out = out.str();
    r.err = err.str();
    r.counters = extractCountersBlock(readFile(path));
    std::remove(path.c_str());
    return r;
}

/** Parses "total energy : X uJ" from engine-mode CLI output. */
inline double
parseTotalEnergyUj(const std::string& out)
{
    std::size_t pos = out.find("total energy :");
    if (pos == std::string::npos)
        return -1.0;
    return std::stod(out.substr(pos + std::string("total energy :").size()));
}

/** Parses "mean |error| : X% over" from refsim-mode CLI output. */
inline double
parseMeanAbsErrPct(const std::string& out)
{
    std::size_t pos = out.find("mean |error| :");
    if (pos == std::string::npos)
        return -1.0;
    return std::stod(out.substr(pos + std::string("mean |error| :").size()));
}

} // namespace cimloop::regress
