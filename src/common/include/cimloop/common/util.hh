/**
 * @file
 * Small shared utilities: integer math, string helpers, and a deterministic
 * pseudo-random generator used everywhere reproducibility matters.
 */
#ifndef CIMLOOP_COMMON_UTIL_HH
#define CIMLOOP_COMMON_UTIL_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace cimloop {

/** Ceiling division for positive integers. */
constexpr std::int64_t
ceilDiv(std::int64_t a, std::int64_t b)
{
    return (a + b - 1) / b;
}

/** Returns true when @p n is a power of two (n >= 1). */
constexpr bool
isPowerOfTwo(std::int64_t n)
{
    return n >= 1 && (n & (n - 1)) == 0;
}

/** Smallest power of two >= n. */
std::int64_t nextPowerOfTwo(std::int64_t n);

/** Base-2 logarithm of a power of two; fatals if not a power of two. */
int log2Exact(std::int64_t n);

/** Number of bits needed to represent values 0..n-1 (>= 1). */
int bitsForCount(std::int64_t n);

/**
 * All positive divisors of @p n in increasing order.
 *
 * Memoized: the mapper asks for the same extents once per sampled mapping
 * per dimension, so results are cached process-wide and returned by
 * reference. The cache is thread-safe and entries are never invalidated
 * (divisors of a number do not change), so returned references stay valid
 * for the life of the process.
 */
const std::vector<std::int64_t>& divisorsOf(std::int64_t n);

/** Uncached divisor computation backing divisorsOf() (exposed for tests). */
std::vector<std::int64_t> computeDivisors(std::int64_t n);

/**
 * FNV-1a 64-bit hash of a byte string. Stable across platforms, runs,
 * and process restarts (unlike std::hash), so it is usable wherever a
 * fingerprint is persisted — e.g. the sweep journal keys its manifest
 * by a content hash of the materialized spec.
 */
constexpr std::uint64_t
fnv1a64(const char* data, std::size_t size)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 0x100000001b3ull;
    }
    return h;
}

inline std::uint64_t
fnv1a64(const std::string& s)
{
    return fnv1a64(s.data(), s.size());
}

/** Strips leading and trailing whitespace. */
std::string trim(const std::string& s);

/** Splits on a delimiter character; keeps empty fields. */
std::vector<std::string> split(const std::string& s, char delim);

/** True when @p s starts with @p prefix. */
bool startsWith(const std::string& s, const std::string& prefix);

/** Lower-cases ASCII. */
std::string toLower(std::string s);

/**
 * Parses @p text, the value of integer flag @p flag, as a base-10
 * integer within [@p lo, @p hi]. Returns nullopt with @p error set to
 * "flag F expects an integer, got 'T'" or "flag F must be within
 * [lo, hi], got T" (also for values beyond 64 bits), so no caller
 * narrows an out-of-range value silently. The CLI and `cimloop serve`
 * parse every integer flag here.
 */
std::optional<std::int64_t> parseIntFlag(const std::string& flag,
                                         const std::string& text,
                                         std::int64_t lo, std::int64_t hi,
                                         std::string& error);

/**
 * parseIntFlag over the whole unsigned range [0, 2^64 - 1], for seeds.
 * A negative value is a range error, never a wrap to a huge seed.
 */
std::optional<std::uint64_t> parseUint64Flag(const std::string& flag,
                                             const std::string& text,
                                             std::string& error);

/**
 * Deterministic 64-bit xorshift* generator. Used instead of std::mt19937 in
 * hot loops and wherever cross-platform reproducibility of sampled values
 * matters (the reference simulator, the mapper's random search).
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull)
        : state(seed ? seed : 1)
    {}

    /**
     * Counter-derived stream: a generator for (seed, stream) decorrelated
     * from every other stream of the same seed via SplitMix64 finalization.
     * Parallel search shards draw from forStream(seed, shard) so results
     * do not depend on how shards are scheduled over threads.
     */
    static Rng forStream(std::uint64_t seed, std::uint64_t stream);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t x = state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        state = x;
        return x * 0x2545F4914F6CDD1Dull;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in [0, n). Requires n > 0. */
    std::uint64_t
    below(std::uint64_t n)
    {
        return next() % n;
    }

    /** Standard normal via Box-Muller (one value per call). */
    double gaussian();

  private:
    std::uint64_t state;
};

} // namespace cimloop

#endif // CIMLOOP_COMMON_UTIL_HH
