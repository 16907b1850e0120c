#include "cimloop/common/parallel.hh"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

#include "cimloop/common/error.hh"
#include "cimloop/common/request_context.hh"

namespace cimloop {

namespace {

/**
 * Runs the claim loop; captures failures; optionally stops on failure.
 *
 * With a cancel token, workers poll it before claiming each item and
 * stop claiming once it fires. Because items are claimed from a single
 * fetch_add counter, the executed items always form the contiguous
 * prefix [0, k) of the index space; the unrun tail [k, n) is reported
 * as one WorkerError per item, each holding a CancelledError, so
 * callers can tell exactly which slots hold real results.
 */
std::vector<WorkerError>
runPool(int threads, std::size_t n,
        const std::function<void(std::size_t)>& fn, bool stop_on_failure,
        const CancelToken* cancel)
{
    std::vector<WorkerError> errors;
    if (n == 0)
        return errors;
    std::size_t workers =
        threads < 1 ? 1 : static_cast<std::size_t>(threads);
    workers = std::min(workers, n);

    const auto cancelTail = [&](std::size_t first_unrun) {
        const CancelReason why = cancel->reason();
        for (std::size_t i = first_unrun; i < n; ++i) {
            errors.push_back(
                {i, std::make_exception_ptr(CancelledError(
                        why, "work item " + std::to_string(i)))});
        }
    };

    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i) {
            if (cancel && cancel->cancelled()) {
                cancelTail(i);
                break;
            }
            try {
                fn(i);
            } catch (...) {
                errors.push_back({i, std::current_exception()});
                if (stop_on_failure)
                    break;
            }
        }
        return errors;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex error_mutex;

    // Workers inherit the caller's per-request attribution context, so
    // cache hits/misses inside a fanned-out request still land on that
    // request's RequestStats block (nested pools re-capture from their
    // worker, so the context follows arbitrarily deep fan-out).
    RequestStats* request_stats = currentRequestStats();

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t) {
        pool.emplace_back([&] {
            RequestStatsScope stats_scope(request_stats);
            while (!(stop_on_failure &&
                     failed.load(std::memory_order_acquire))) {
                if (cancel && cancel->cancelled())
                    break;
                std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n)
                    break;
                try {
                    fn(i);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(error_mutex);
                    errors.push_back({i, std::current_exception()});
                    failed.store(true, std::memory_order_release);
                }
            }
        });
    }
    for (std::thread& t : pool)
        t.join();
    if (cancel && cancel->cancelled()) {
        // Items past the claim counter never ran. Claimed items finished
        // (workers only check the token *between* items), so the executed
        // set is the contiguous prefix [0, min(next, n)).
        const std::size_t first_unrun =
            std::min(next.load(std::memory_order_relaxed), n);
        cancelTail(first_unrun);
    }
    // Capture order is thread-completion order, which is nondeterministic;
    // diagnostics sort by item index so aggregated reports are stable
    // (pinned by ParallelFor.AggregationListsFailuresInItemOrder and
    // ParallelForAll.ErrorsSortedDespiteReverseCompletionOrder).
    std::sort(errors.begin(), errors.end(),
              [](const WorkerError& a, const WorkerError& b) {
                  return a.index < b.index;
              });
    return errors;
}

bool
isCancelledError(const std::exception_ptr& error)
{
    try {
        std::rethrow_exception(error);
    } catch (const CancelledError&) {
        return true;
    } catch (...) {
        return false;
    }
}

} // namespace

void
parallelFor(int threads, std::size_t n,
            const std::function<void(std::size_t)>& fn,
            const CancelToken* cancel)
{
    std::vector<WorkerError> errors =
        runPool(threads, n, fn, /*stop_on_failure=*/true, cancel);
    if (errors.empty())
        return;

    // A real failure always trumps cancellation: the cancelled-tail
    // entries carry no information beyond "the run stopped", while a
    // captured failure is the thing the user must see.
    std::vector<WorkerError> real;
    std::exception_ptr first_cancelled;
    for (WorkerError& we : errors) {
        if (isCancelledError(we.error)) {
            if (!first_cancelled)
                first_cancelled = we.error;
        } else {
            real.push_back(std::move(we));
        }
    }
    if (real.empty()) {
        std::rethrow_exception(first_cancelled);
    }
    if (real.size() == 1)
        std::rethrow_exception(real.front().error);

    // Several items failed before the stop flag landed: aggregate them in
    // item order so no failure is silently dropped.
    bool any_panic = false;
    std::string combined = std::to_string(real.size()) +
                           " parallel work items failed:";
    for (const WorkerError& we : real) {
        combined += "\n  item " + std::to_string(we.index) + ": ";
        try {
            std::rethrow_exception(we.error);
        } catch (const PanicError& e) {
            any_panic = true;
            combined += e.what();
        } catch (const std::exception& e) {
            combined += e.what();
        } catch (...) {
            combined += "unknown exception";
        }
    }
    if (any_panic)
        throw PanicError(combined);
    throw FatalError(combined);
}

ThreadSplit
splitThreads(int threads, std::size_t n)
{
    threads = std::max(threads, 1);
    const int outer = static_cast<int>(
        std::clamp<std::size_t>(n, 1, static_cast<std::size_t>(threads)));
    return {outer, threads / outer};
}

std::vector<WorkerError>
parallelForAll(int threads, std::size_t n,
               const std::function<void(std::size_t)>& fn,
               const CancelToken* cancel)
{
    return runPool(threads, n, fn, /*stop_on_failure=*/false, cancel);
}

} // namespace cimloop
