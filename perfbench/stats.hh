/**
 * @file
 * Summary statistics, metric naming, and the result line.
 */
#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Median (mean of the middle two for even sizes); 0 for no samples. */
double median(std::vector<double> v);

/**
 * The highest percentile of @p samples that leaves at least @p beyond
 * samples strictly above its rank: with n sorted samples the value at
 * rank n-1-beyond (0-based), reported as percentile 100*(n-beyond)/n.
 * Never below rank n/2: with fewer than 2*beyond+1 samples it falls
 * back there and reports the smaller count beyond it.
 */
struct Tail
{
    double value = 0.0;
    double percentile = 0.0;
    std::size_t beyond = 0;  //!< samples above the reported rank
    std::size_t samples = 0; //!< total samples
};
Tail tailPercentile(std::vector<double> samples, std::size_t beyond = 10);

/** True when @p name is a legal metric name: starts with a letter or
 *  digit, at most 64 of [A-Za-z0-9_.-]. */
bool validMetricName(const std::string& name);

/** True when @p unit is a legal unit: 1..16 of [A-Za-z0-9_/%.-]. */
bool validMetricUnit(const std::string& unit);

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The last stdout line: {"correct":..,"attempted":..,"failed":..,
 *  "metrics":{name:{"value":v,"unit":u},..}}. Values print with 17
 *  significant digits. */
std::string resultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics);

/** FNV-1a 64-bit, folded incrementally for output digests. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    void add(const std::string& s);
    void add(double v); //!< exact bits
    std::string hex() const;
};

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
