/**
 * The shared incremental Pareto front: additions and evictions on a
 * hand-computed fixture, and the front against an all-pairs scan in
 * several insertion orders.
 */
#include "cimloop/common/pareto.hh"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace cimloop {
namespace {

TEST(ParetoFront, FrontReportsAdditionsAndEvictions)
{
    ParetoFront front(2);
    ParetoFront::Insertion a = front.insert(0, {2, 6});
    EXPECT_TRUE(a.added);
    EXPECT_TRUE(a.evicted.empty());
    // Dominated candidate: rejected, frontier untouched.
    ParetoFront::Insertion b = front.insert(1, {3, 7});
    EXPECT_FALSE(b.added);
    EXPECT_EQ(front.size(), 1u);
    // A dominating candidate evicts the member it beats.
    ParetoFront::Insertion c = front.insert(2, {1, 5});
    EXPECT_TRUE(c.added);
    EXPECT_EQ(c.evicted, (std::vector<std::size_t>{0}));
    // Equal rows coexist.
    ParetoFront::Insertion d = front.insert(3, {1, 5});
    EXPECT_TRUE(d.added);
    EXPECT_TRUE(d.evicted.empty());
    EXPECT_EQ(front.indices(), (std::vector<std::size_t>{2, 3}));
}

TEST(ParetoFront, IncrementalFrontMatchesAllPairsReference)
{
    // Pseudo-random rows (deterministic LCG; no global RNG in tests),
    // checked against an independently coded O(n^2) all-pairs scan, in
    // several insertion orders — the frontier is order-independent.
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    auto next = [&state] {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<double>((state >> 33) % 1000) / 10.0;
    };
    const std::size_t n = 200, dims = 3;
    std::vector<std::vector<double>> rows(n);
    for (auto& row : rows)
        for (std::size_t k = 0; k < dims; ++k)
            row.push_back(next());

    // Reference: brute-force domination test per row.
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < n; ++i) {
        bool dominated = false;
        for (std::size_t j = 0; j < n && !dominated; ++j) {
            if (i == j)
                continue;
            bool le = true, lt = false;
            for (std::size_t k = 0; k < dims; ++k) {
                if (rows[j][k] > rows[i][k])
                    le = false;
                if (rows[j][k] < rows[i][k])
                    lt = true;
            }
            dominated = le && lt;
        }
        if (!dominated)
            expected.push_back(i);
    }
    ASSERT_FALSE(expected.empty());
    ASSERT_LT(expected.size(), n); // fixture has both kinds

    for (std::size_t stride : {1u, 7u, 31u}) {
        ParetoFront front(dims);
        // Visit indices in a stride permutation (stride coprime to n).
        for (std::size_t step = 0, i = 0; step < n;
             ++step, i = (i + stride) % n)
            front.insert(i, rows[i]);
        EXPECT_EQ(front.indices(), expected)
            << "frontier depends on insertion order (stride " << stride
            << ")";
    }
}

} // namespace
} // namespace cimloop
