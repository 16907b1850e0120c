#include "stats.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail
tailPercentile(std::vector<double> samples, std::size_t beyond)
{
    Tail t;
    t.samples = samples.size();
    if (samples.empty())
        return t;
    std::sort(samples.begin(), samples.end());
    std::size_t n = samples.size();
    // Never below the median: with fewer than 2*beyond+1 samples the
    // tail falls back to the p50 rank and reports how few lie beyond.
    std::size_t rank = std::max(n > beyond ? n - 1 - beyond : 0, n / 2);
    t.value = samples[rank];
    t.beyond = n - 1 - rank;
    t.percentile = 100.0 * static_cast<double>(rank + 1) /
                   static_cast<double>(n);
    return t;
}

bool
validMetricName(const std::string& name)
{
    if (name.empty() || name.size() > 64 ||
        !std::isalnum(static_cast<unsigned char>(name[0])))
        return false;
    for (char c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
            c != '.' && c != '-')
            return false;
    }
    return true;
}

bool
validMetricUnit(const std::string& unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    for (char c : unit) {
        if (!std::isalnum(static_cast<unsigned char>(c)) &&
            !std::strchr("_/%.-", c))
            return false;
    }
    return true;
}

std::string
resultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric>& metrics)
{
    std::string s = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        double v = std::isfinite(m.value) ? m.value : 0.0;
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    return s + "}}";
}

void
Digest::add(const std::string& s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    h ^= 0xff; // separator, so ("ab","c") != ("a","bc")
    h *= 0x100000001b3ull;
}

void
Digest::add(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(bits));
    add(std::string(buf));
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace perfbench
