/**
 * @file
 * Turns timed and traced ops into the reported metrics.
 */
#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <string>
#include <vector>

#include "stats.hh"
#include "workloads.hh"

namespace perfbench {

/** Wall times of @p ops, in ms. */
std::vector<double> walls(const std::vector<OpResult>& ops);

/** The end-to-end metrics of untraced @p ops; fills @p tail. */
std::vector<Metric> endToEnd(const std::vector<OpResult>& ops,
                             double setup_s, Tail& tail);

/** The per-layer metrics of @p traced ops, with @p untraced ops as the
 *  overhead baseline and @p tail the untraced ops' tail. */
std::vector<Metric> perLayer(const Workload& w,
                             const std::vector<OpResult>& traced,
                             const std::vector<OpResult>& untraced,
                             const Tail& tail);

/** Names endToEnd() reports, in order. */
const std::vector<std::string>& endToEndNames();

/** Names perLayer() reports for @p w, in order (the same for every
 *  workload). */
std::vector<std::string> perLayerNames(const Workload& w);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
