#include "cimloop/common/util.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "cimloop/common/error.hh"

namespace cimloop {

std::int64_t
nextPowerOfTwo(std::int64_t n)
{
    CIM_ASSERT(n >= 1, "nextPowerOfTwo requires n >= 1, got ", n);
    std::int64_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

int
log2Exact(std::int64_t n)
{
    if (!isPowerOfTwo(n))
        CIM_FATAL("expected a power of two, got ", n);
    int b = 0;
    while ((std::int64_t{1} << b) < n)
        ++b;
    return b;
}

int
bitsForCount(std::int64_t n)
{
    CIM_ASSERT(n >= 1, "bitsForCount requires n >= 1, got ", n);
    int b = 1;
    while ((std::int64_t{1} << b) < n)
        ++b;
    return b;
}

std::vector<std::int64_t>
computeDivisors(std::int64_t n)
{
    CIM_ASSERT(n >= 1, "divisorsOf requires n >= 1, got ", n);
    std::vector<std::int64_t> low, high;
    for (std::int64_t d = 1; d * d <= n; ++d) {
        if (n % d == 0) {
            low.push_back(d);
            if (d != n / d)
                high.push_back(n / d);
        }
    }
    low.insert(low.end(), high.rbegin(), high.rend());
    return low;
}

const std::vector<std::int64_t>&
divisorsOf(std::int64_t n)
{
    // unordered_map element addresses are stable across rehash and entries
    // are never erased, so returned references outlive the locks.
    static std::shared_mutex mutex;
    static std::unordered_map<std::int64_t, std::vector<std::int64_t>> cache;
    {
        std::shared_lock<std::shared_mutex> lock(mutex);
        auto it = cache.find(n);
        if (it != cache.end())
            return it->second;
    }
    std::vector<std::int64_t> divs = computeDivisors(n);
    std::unique_lock<std::shared_mutex> lock(mutex);
    return cache.emplace(n, std::move(divs)).first->second;
}

std::string
trim(const std::string& s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::vector<std::string>
split(const std::string& s, char delim)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == delim) {
            out.push_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

bool
startsWith(const std::string& s, const std::string& prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

std::string
toLower(std::string s)
{
    for (char& c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

Rng
Rng::forStream(std::uint64_t seed, std::uint64_t stream)
{
    // SplitMix64 finalizer over a golden-ratio stride keeps nearby
    // (seed, stream) pairs statistically independent.
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    return Rng(z ? z : 1);
}

double
Rng::gaussian()
{
    // Box-Muller; discard the second value for simplicity.
    double u1 = uniform();
    double u2 = uniform();
    if (u1 < 1e-300)
        u1 = 1e-300;
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

std::optional<std::int64_t>
parseIntFlag(const std::string& flag, const std::string& text,
             std::int64_t lo, std::int64_t hi, std::string& error)
{
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(text.c_str(), &end, 10);
    if (end == text.c_str() ||
        static_cast<std::size_t>(end - text.c_str()) != text.size()) {
        error = "flag " + flag + " expects an integer, got '" + text + "'";
        return std::nullopt;
    }
    if (errno == ERANGE || v < lo || v > hi) {
        error = "flag " + flag + " must be within [" + std::to_string(lo) +
                ", " + std::to_string(hi) + "], got " + text;
        return std::nullopt;
    }
    return v;
}

std::optional<std::uint64_t>
parseUint64Flag(const std::string& flag, const std::string& text,
                std::string& error)
{
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str() ||
        static_cast<std::size_t>(end - text.c_str()) != text.size()) {
        error = "flag " + flag + " expects an integer, got '" + text + "'";
        return std::nullopt;
    }
    // strtoull negates a leading '-' instead of rejecting it, so "-1"
    // parses as 2^64 - 1; the only '-' it accepts is that sign.
    const bool negative = text.find('-') != std::string::npos;
    if (errno == ERANGE || (negative && v != 0)) {
        error = "flag " + flag + " must be within [0, " +
                std::to_string(std::numeric_limits<std::uint64_t>::max()) +
                "], got " + text;
        return std::nullopt;
    }
    return v;
}

} // namespace cimloop
