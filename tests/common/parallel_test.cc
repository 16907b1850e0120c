/** parallelFor: coverage, serial fallback, and exception capture. */
#include "cimloop/common/parallel.hh"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "cimloop/common/error.hh"

namespace cimloop {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnce)
{
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> visits(n);
    parallelFor(4, n, [&](std::size_t i) { ++visits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, SerialFallbackRunsInOrder)
{
    std::vector<std::size_t> order;
    parallelFor(1, 5, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, HandlesMoreThreadsThanWork)
{
    std::atomic<int> count{0};
    parallelFor(16, 3, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 3);
}

TEST(ParallelFor, ZeroItemsIsANoop)
{
    parallelFor(4, 0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelFor, SplitThreadsFansItemsOutFirst)
{
    auto split = [](int threads, std::size_t n) {
        ThreadSplit s = splitThreads(threads, n);
        return std::make_pair(s.outer, s.inner);
    };
    EXPECT_EQ(split(8, 20), std::make_pair(8, 1));
    EXPECT_EQ(split(8, 4), std::make_pair(4, 2));
    EXPECT_EQ(split(8, 3), std::make_pair(3, 2));
    EXPECT_EQ(split(8, 1), std::make_pair(1, 8));
    EXPECT_EQ(split(1, 5), std::make_pair(1, 1));
    // No items, or no threads asked for, still leaves one of each.
    EXPECT_EQ(split(8, 0), std::make_pair(1, 8));
    EXPECT_EQ(split(0, 5), std::make_pair(1, 1));
}

TEST(ParallelFor, RethrowsWorkerExceptionAfterJoin)
{
    // An exception inside a worker lambda must not escape std::thread
    // (which would terminate the process); it is rethrown on the caller.
    auto boom = [](std::size_t i) {
        if (i == 3)
            CIM_FATAL("worker failure on item ", i);
    };
    EXPECT_THROW(parallelFor(4, 100, boom), FatalError);
    EXPECT_THROW(parallelFor(1, 100, boom), FatalError); // serial path too
}

TEST(ParallelFor, AbandonsRemainingWorkAfterFailure)
{
    std::atomic<int> executed{0};
    try {
        parallelFor(2, 10000, [&](std::size_t i) {
            ++executed;
            if (i == 0)
                CIM_FATAL("fail fast");
        });
        FAIL() << "expected FatalError";
    } catch (const FatalError&) {
    }
    // Not all 10000 items ran: workers saw the failure flag and stopped.
    EXPECT_LT(executed.load(), 10000);
}

TEST(ParallelFor, SingleFailureRethrowsTheOriginalMessage)
{
    try {
        parallelFor(4, 8, [](std::size_t i) {
            if (i == 5)
                CIM_FATAL("item five is bad");
        });
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        // One failure: the original exception, not a wrapped summary.
        EXPECT_NE(std::string(e.what()).find("item five is bad"),
                  std::string::npos);
        EXPECT_EQ(std::string(e.what()).find("parallel work items"),
                  std::string::npos);
    }
}

TEST(ParallelFor, AggregatesEveryConcurrentFailure)
{
    // Before the aggregation fix, only the first captured exception
    // survived and concurrent failures were silently dropped. Both
    // workers rendezvous inside their item before either throws, so
    // both failures are guaranteed to land before the stop flag.
    std::atomic<int> arrived{0};
    try {
        parallelFor(2, 2, [&](std::size_t i) {
            ++arrived;
            while (arrived.load() < 2)
                std::this_thread::yield();
            CIM_FATAL("worker failure on item ", i);
        });
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("2 parallel work items failed"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("item 0"), std::string::npos) << msg;
        EXPECT_NE(msg.find("item 1"), std::string::npos) << msg;
    }
}

TEST(ParallelFor, PanicTrumpsFatalInAggregation)
{
    // A bug (PanicError) must not be downgraded by co-failing bad input.
    std::atomic<int> arrived{0};
    EXPECT_THROW(parallelFor(2, 2,
                             [&](std::size_t i) {
                                 ++arrived;
                                 while (arrived.load() < 2)
                                     std::this_thread::yield();
                                 if (i == 0)
                                     CIM_FATAL("bad input");
                                 CIM_PANIC("bug");
                             }),
                 PanicError);
}

TEST(ParallelForAll, RunsEveryItemDespiteFailures)
{
    std::vector<std::atomic<int>> visits(100);
    std::vector<WorkerError> errors =
        parallelForAll(4, 100, [&](std::size_t i) {
            ++visits[i];
            if (i % 10 == 3)
                CIM_FATAL("item ", i, " failed");
        });
    // Keep-going: no early abandon, every item ran exactly once.
    for (std::size_t i = 0; i < visits.size(); ++i)
        EXPECT_EQ(visits[i].load(), 1) << "index " << i;
    ASSERT_EQ(errors.size(), 10u);
    // Failures come back sorted by item index with the exception intact.
    for (std::size_t k = 0; k < errors.size(); ++k) {
        EXPECT_EQ(errors[k].index, 10 * k + 3);
        try {
            std::rethrow_exception(errors[k].error);
            FAIL() << "expected FatalError";
        } catch (const FatalError& e) {
            EXPECT_NE(std::string(e.what()).find("failed"),
                      std::string::npos);
        }
    }
}

TEST(ParallelFor, AggregationListsFailuresInItemOrder)
{
    // Pins the diagnostic sort: item 1 fails (and is captured) first,
    // item 0 only fails after seeing item 1's flag plus a grace sleep,
    // so the raw capture order is reverse of the item order. The
    // aggregated message must still list item 0 before item 1.
    std::atomic<bool> one_threw{false};
    try {
        parallelFor(2, 2, [&](std::size_t i) {
            if (i == 1) {
                one_threw.store(true);
                CIM_FATAL("late item one");
            }
            while (!one_threw.load())
                std::this_thread::yield();
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            CIM_FATAL("early item zero");
        });
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        std::string msg = e.what();
        std::size_t p0 = msg.find("item 0: fatal: early item zero");
        std::size_t p1 = msg.find("item 1: fatal: late item one");
        ASSERT_NE(p0, std::string::npos) << msg;
        ASSERT_NE(p1, std::string::npos) << msg;
        EXPECT_LT(p0, p1) << msg;
    }
}

TEST(ParallelForAll, ErrorsSortedDespiteReverseCompletionOrder)
{
    // Every item fails, with later items finishing earlier (staggered
    // sleeps), so the capture order is roughly reversed. The returned
    // diagnostics must come back in ascending item order regardless.
    constexpr std::size_t n = 6;
    std::vector<WorkerError> errors =
        parallelForAll(static_cast<int>(n), n, [&](std::size_t i) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5 * (n - i)));
            CIM_FATAL("item ", i);
        });
    ASSERT_EQ(errors.size(), n);
    for (std::size_t k = 0; k < n; ++k)
        EXPECT_EQ(errors[k].index, k);
}

TEST(ParallelForAll, EmptyResultMeansSuccess)
{
    std::atomic<int> count{0};
    EXPECT_TRUE(parallelForAll(4, 50, [&](std::size_t) { ++count; })
                    .empty());
    EXPECT_EQ(count.load(), 50);
    // Serial path captures too.
    std::vector<WorkerError> serial =
        parallelForAll(1, 3, [](std::size_t i) {
            if (i == 1)
                CIM_FATAL("middle item");
        });
    ASSERT_EQ(serial.size(), 1u);
    EXPECT_EQ(serial[0].index, 1u);
}

TEST(ParallelForCancel, PreCancelledTokenRunsNothingAndThrows)
{
    CancelToken token;
    token.cancel();
    std::atomic<int> executed{0};
    EXPECT_THROW(parallelFor(4, 100,
                             [&](std::size_t) { ++executed; }, &token),
                 CancelledError);
    EXPECT_EQ(executed.load(), 0);
    // Serial path too.
    EXPECT_THROW(parallelFor(1, 100,
                             [&](std::size_t) { ++executed; }, &token),
                 CancelledError);
    EXPECT_EQ(executed.load(), 0);
}

TEST(ParallelForCancel, NullAndUncancelledTokensChangeNothing)
{
    CancelToken token;
    std::atomic<int> count{0};
    parallelFor(4, 50, [&](std::size_t) { ++count; }, nullptr);
    parallelFor(4, 50, [&](std::size_t) { ++count; }, &token);
    EXPECT_EQ(count.load(), 100);
}

TEST(ParallelForCancel, SerialCancelMidRunStopsAtTheBoundary)
{
    // fn(2) cancels the token; item 2 itself completes (cancellation
    // acts between items, never inside one) and items 3+ never run.
    CancelToken token;
    std::vector<std::size_t> ran;
    try {
        parallelFor(1, 10,
                    [&](std::size_t i) {
                        ran.push_back(i);
                        if (i == 2)
                            token.cancel();
                    },
                    &token);
        FAIL() << "expected CancelledError";
    } catch (const CancelledError& e) {
        EXPECT_EQ(e.reason(), CancelReason::User);
    }
    EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ParallelForCancel, RealFailureTrumpsCancellation)
{
    // When a worker failure and a cancel race, the failure must
    // surface: the cancelled tail carries no information, the failure
    // is the thing the user needs to see.
    CancelToken token;
    try {
        parallelFor(2, 100,
                    [&](std::size_t i) {
                        if (i == 0) {
                            token.cancel();
                            CIM_FATAL("real failure on item 0");
                        }
                    },
                    &token);
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("real failure"),
                  std::string::npos);
    } catch (const CancelledError&) {
        FAIL() << "cancellation must not mask the real failure";
    }
}

TEST(ParallelForAllCancel, ExecutedItemsAreAContiguousPrefix)
{
    // The claim counter hands out indices in order and workers poll the
    // token only between items, so whatever ran is exactly [0, k) and
    // the returned errors are exactly the CancelledError tail [k, n).
    // This invariant is what lets callers trust partial result arrays;
    // it runs under TSan in CI (threads > 1, shared token + slots).
    constexpr std::size_t n = 64;
    CancelToken token;
    std::vector<std::atomic<int>> ran(n);
    std::atomic<int> executed{0};
    std::vector<WorkerError> errors = parallelForAll(
        4, n,
        [&](std::size_t i) {
            ++ran[i];
            if (++executed == 8)
                token.cancel();
        },
        &token);

    ASSERT_FALSE(errors.empty());
    // Errors are sorted ascending; together with the executed items
    // they must partition [0, n) at a single boundary k.
    const std::size_t k = errors.front().index;
    ASSERT_EQ(errors.size(), n - k);
    for (std::size_t e = 0; e < errors.size(); ++e) {
        EXPECT_EQ(errors[e].index, k + e);
        try {
            std::rethrow_exception(errors[e].error);
            FAIL() << "expected CancelledError";
        } catch (const CancelledError& ce) {
            EXPECT_EQ(ce.reason(), CancelReason::User);
        }
    }
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(ran[i].load(), i < k ? 1 : 0) << "index " << i;
}

TEST(ParallelForAllCancel, PreCancelledTokenReportsEveryItemCancelled)
{
    CancelToken token;
    token.cancel(CancelReason::Deadline);
    std::vector<WorkerError> errors = parallelForAll(
        1, 5, [](std::size_t) { FAIL() << "must not run"; }, &token);
    ASSERT_EQ(errors.size(), 5u);
    for (std::size_t e = 0; e < errors.size(); ++e) {
        EXPECT_EQ(errors[e].index, e);
        try {
            std::rethrow_exception(errors[e].error);
        } catch (const CancelledError& ce) {
            EXPECT_EQ(ce.reason(), CancelReason::Deadline);
        }
    }
}

TEST(ParallelForCancel, AllItemsDoneBeforeCancelReturnsNormally)
{
    // A token that fires after the last item completed must not turn a
    // fully successful run into a CancelledError.
    CancelToken token;
    std::atomic<int> count{0};
    parallelFor(1, 10,
                [&](std::size_t i) {
                    ++count;
                    if (i == 9)
                        token.cancel(); // after the final item's work
                },
                &token);
    EXPECT_EQ(count.load(), 10);
}

} // namespace
} // namespace cimloop
