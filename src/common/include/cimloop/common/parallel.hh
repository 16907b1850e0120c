/**
 * @file
 * Minimal fork-join parallelism for the evaluation engine's fan-out loops.
 *
 * Exceptions thrown by workers never escape a thread lambda (which would
 * std::terminate the whole process): every failure is captured with the
 * index that raised it, all workers are joined, and the failures are
 * rethrown on the calling thread — so an unmappable layer surfaces as the
 * same cimloop::FatalError the serial path gives, and when several items
 * fail concurrently the combined error names each of them instead of
 * silently dropping all but the first.
 */
#ifndef CIMLOOP_COMMON_PARALLEL_HH
#define CIMLOOP_COMMON_PARALLEL_HH

#include <cstddef>
#include <exception>
#include <functional>
#include <vector>

#include "cimloop/common/cancel.hh"

namespace cimloop {

/** One captured worker failure: the item index and its exception. */
struct WorkerError
{
    std::size_t index = 0;
    std::exception_ptr error;
};

/**
 * Runs fn(i) for every i in [0, n) on up to @p threads workers.
 *
 * Work items are claimed dynamically from a shared counter, so callers
 * must not depend on which thread runs which index — only that every
 * index runs at most once and that results written to disjoint slots are
 * visible after return. threads <= 1 (or n <= 1) runs inline on the
 * calling thread.
 *
 * When a worker throws, remaining unclaimed items are abandoned and all
 * workers are joined. Every exception captured before the stop (several
 * items can fail concurrently) is aggregated in ascending item order: a
 * single failure rethrows the original exception unchanged; multiple
 * failures throw one PanicError when any of them was a PanicError (a bug
 * trumps bad input), otherwise one FatalError, whose message lists every
 * failing item. CancelledError captures never enter the aggregate: a
 * real failure always trumps cancellation.
 *
 * With a @p cancel token, workers poll it between work items and stop
 * claiming once it fires; items already claimed run to completion (the
 * work-item boundary is where cancellation acts). When cancellation —
 * not a failure — left items unrun, one CancelledError is thrown after
 * the join; if every item finished before the token was observed, the
 * call returns normally.
 */
void parallelFor(int threads, std::size_t n,
                 const std::function<void(std::size_t)>& fn,
                 const CancelToken* cancel = nullptr);

/**
 * Keep-going variant: runs ALL n items even when some fail, and returns
 * the captured failures in ascending item order instead of throwing.
 * An empty result means every item succeeded. Used by graceful
 * per-layer degradation, where one bad layer must not abandon the rest
 * of the network.
 *
 * With a @p cancel token, workers stop claiming once it fires, and
 * every unrun item is reported as a WorkerError holding a
 * CancelledError — the executed items are always the contiguous prefix
 * of the claim order, so callers can tell exactly which slots hold real
 * results.
 */
std::vector<WorkerError>
parallelForAll(int threads, std::size_t n,
               const std::function<void(std::size_t)>& fn,
               const CancelToken* cancel = nullptr);

/** How a two-level fan-out shares its threads (see splitThreads()). */
struct ThreadSplit
{
    int outer = 1; //!< workers over the items
    int inner = 1; //!< threads each item may use for its own fan-out
};

/**
 * Splits @p threads over @p n items: items fan out first, and when
 * there are fewer items than threads the leftover threads go to each
 * item's inner fan-out instead of idling. Both parts are at least 1,
 * also for n == 0 or threads < 1.
 */
ThreadSplit splitThreads(int threads, std::size_t n);

} // namespace cimloop

#endif // CIMLOOP_COMMON_PARALLEL_HH
