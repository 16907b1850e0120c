/**
 * Property-based invariant tests for Pmf: seeded random PMFs pushed
 * through fromPoints / convolveWith / mixture / downsampling must keep
 * the invariants every statistical-pipeline claim rests on —
 *
 *   - total probability ≈ 1,
 *   - the exact mean under support capping (downsampling merges are
 *     probability-weighted),
 *   - sorted, duplicate-free support,
 *   - lattice fast path vs point-list fallback agreement ≤ 1e-12.
 *
 * Each property runs kCases randomized cases drawn from counter-derived
 * Rng::forStream streams, so failures reproduce exactly and adding a
 * case never reshuffles the others.
 */
#include "cimloop/dist/pmf.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "cimloop/common/util.hh"
#include "cimloop/dist/reduce.hh"

namespace cimloop::dist {
namespace {

constexpr int kCases = 200;
constexpr std::uint64_t kSuiteSeed = 0xC0FFEE;

double
totalProb(const Pmf& p)
{
    double t = 0.0;
    for (const Pmf::Point& pt : p.points())
        t += pt.prob;
    return t;
}

void
expectSortedUnique(const Pmf& p, const char* where, int case_i)
{
    const std::vector<Pmf::Point>& pts = p.points();
    ASSERT_FALSE(pts.empty()) << where << " case " << case_i;
    for (std::size_t i = 1; i < pts.size(); ++i) {
        ASSERT_LT(pts[i - 1].value, pts[i].value)
            << where << " case " << case_i << " index " << i;
    }
}

/** Random integer-lattice point list: duplicates, unsorted, 1-40 pts. */
std::vector<Pmf::Point>
randomIntegerPoints(Rng& rng)
{
    const std::size_t n = 1 + rng.below(40);
    std::vector<Pmf::Point> pts;
    pts.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        double v = static_cast<double>(
            static_cast<std::int64_t>(rng.below(101)) - 50);
        pts.push_back({v, rng.uniform() + 1e-3});
    }
    return pts;
}

Pmf
randomIntegerPmf(Rng& rng)
{
    return Pmf::fromPoints(randomIntegerPoints(rng));
}

/** Random real-valued (off-lattice) point list. */
std::vector<Pmf::Point>
randomRealPoints(Rng& rng)
{
    const std::size_t n = 1 + rng.below(40);
    std::vector<Pmf::Point> pts;
    pts.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        pts.push_back({20.0 * rng.gaussian() + 0.25,
                       rng.uniform() + 1e-3});
    return pts;
}

/** Reference fromPoints: sort + merge duplicates + normalize, no fast
 *  path. The lattice path must agree with this to ~1 ULP. */
std::vector<Pmf::Point>
referenceFromPoints(const std::vector<Pmf::Point>& pts)
{
    std::map<double, double> acc;
    double total = 0.0;
    for (const Pmf::Point& pt : pts) {
        acc[pt.value] += pt.prob;
        total += pt.prob;
    }
    std::vector<Pmf::Point> out;
    out.reserve(acc.size());
    for (const auto& [v, p] : acc)
        out.push_back({v, p / total});
    return out;
}

TEST(PmfProperty, FromPointsPreservesTotalProbability)
{
    for (int c = 0; c < kCases; ++c) {
        Rng rng = Rng::forStream(kSuiteSeed, static_cast<std::uint64_t>(c));
        Pmf p = (c % 2 == 0) ? randomIntegerPmf(rng)
                             : Pmf::fromPoints(randomRealPoints(rng));
        EXPECT_NEAR(totalProb(p), 1.0, 1e-12) << "case " << c;
    }
}

TEST(PmfProperty, FromPointsYieldsSortedUniqueSupport)
{
    for (int c = 0; c < kCases; ++c) {
        Rng rng = Rng::forStream(kSuiteSeed + 1,
                                 static_cast<std::uint64_t>(c));
        Pmf p = (c % 2 == 0) ? randomIntegerPmf(rng)
                             : Pmf::fromPoints(randomRealPoints(rng));
        expectSortedUnique(p, "fromPoints", c);
    }
}

TEST(PmfProperty, FromPointsLatticePathMatchesReference)
{
    for (int c = 0; c < kCases; ++c) {
        Rng rng = Rng::forStream(kSuiteSeed + 2,
                                 static_cast<std::uint64_t>(c));
        std::vector<Pmf::Point> raw = randomIntegerPoints(rng);
        Pmf fast = Pmf::fromPoints(raw); // integer support: lattice path
        std::vector<Pmf::Point> ref = referenceFromPoints(raw);
        ASSERT_EQ(fast.size(), ref.size()) << "case " << c;
        for (std::size_t i = 0; i < ref.size(); ++i) {
            EXPECT_EQ(fast.points()[i].value, ref[i].value)
                << "case " << c;
            EXPECT_NEAR(fast.points()[i].prob, ref[i].prob, 1e-12)
                << "case " << c;
        }
    }
}

TEST(PmfProperty, ConvolvePreservesTotalProbability)
{
    for (int c = 0; c < kCases; ++c) {
        Rng rng = Rng::forStream(kSuiteSeed + 3,
                                 static_cast<std::uint64_t>(c));
        Pmf a = randomIntegerPmf(rng);
        Pmf b = randomIntegerPmf(rng);
        EXPECT_NEAR(totalProb(a.convolveWith(b)), 1.0, 1e-12)
            << "case " << c;
    }
}

TEST(PmfProperty, ConvolveYieldsSortedUniqueSupport)
{
    for (int c = 0; c < kCases; ++c) {
        Rng rng = Rng::forStream(kSuiteSeed + 4,
                                 static_cast<std::uint64_t>(c));
        Pmf a = randomIntegerPmf(rng);
        Pmf b = (c % 2 == 0) ? randomIntegerPmf(rng)
                             : Pmf::fromPoints(randomRealPoints(rng));
        expectSortedUnique(a.convolveWith(b), "convolve", c);
    }
}

TEST(PmfProperty, ConvolveMeanIsSumOfMeans)
{
    for (int c = 0; c < kCases; ++c) {
        Rng rng = Rng::forStream(kSuiteSeed + 5,
                                 static_cast<std::uint64_t>(c));
        Pmf a = randomIntegerPmf(rng);
        Pmf b = randomIntegerPmf(rng);
        double exact = a.mean() + b.mean();
        EXPECT_NEAR(a.convolveWith(b).mean(), exact,
                    1e-9 * (1.0 + std::abs(exact)))
            << "case " << c;
    }
}

TEST(PmfProperty, ConvolveMeanSurvivesAggressiveCapping)
{
    // Downsampling to a handful of support points must not move the
    // mean: merges are probability-weighted.
    for (int c = 0; c < kCases; ++c) {
        Rng rng = Rng::forStream(kSuiteSeed + 6,
                                 static_cast<std::uint64_t>(c));
        Pmf a = randomIntegerPmf(rng);
        Pmf b = randomIntegerPmf(rng);
        double exact = a.mean() + b.mean();
        Pmf capped = a.convolveWith(b, 8);
        EXPECT_LE(capped.size(), 8u) << "case " << c;
        EXPECT_NEAR(capped.mean(), exact, 1e-9 * (1.0 + std::abs(exact)))
            << "case " << c;
    }
}

TEST(PmfProperty, ConvolveLatticePathMatchesFallback)
{
    // Shifting the operands by +/- 0.5 forces the sort-merge fallback
    // while keeping every pairwise sum bit-identical (halves are exact
    // in binary floating point), so the two kernels must produce the
    // same support and the same masses to ~1 ULP.
    for (int c = 0; c < kCases; ++c) {
        Rng rng = Rng::forStream(kSuiteSeed + 7,
                                 static_cast<std::uint64_t>(c));
        Pmf a = randomIntegerPmf(rng);
        Pmf b = randomIntegerPmf(rng);
        Pmf fast = a.convolveWith(b);

        Pmf a_shift = a.mapped([](double v) { return v + 0.5; });
        Pmf b_shift = b.mapped([](double v) { return v - 0.5; });
        Pmf slow = a_shift.convolveWith(b_shift);

        ASSERT_EQ(fast.size(), slow.size()) << "case " << c;
        for (std::size_t i = 0; i < fast.size(); ++i) {
            EXPECT_EQ(fast.points()[i].value, slow.points()[i].value)
                << "case " << c << " index " << i;
            EXPECT_NEAR(fast.points()[i].prob, slow.points()[i].prob,
                        1e-12)
                << "case " << c << " index " << i;
        }
    }
}

TEST(PmfProperty, MixturePreservesTotalProbability)
{
    for (int c = 0; c < kCases; ++c) {
        Rng rng = Rng::forStream(kSuiteSeed + 8,
                                 static_cast<std::uint64_t>(c));
        std::vector<Pmf> parts;
        const std::size_t k = 1 + rng.below(6);
        for (std::size_t i = 0; i < k; ++i)
            parts.push_back(randomIntegerPmf(rng));
        Pmf mix = Pmf::mixture(parts);
        EXPECT_NEAR(totalProb(mix), 1.0, 1e-12) << "case " << c;
        expectSortedUnique(mix, "mixture", c);
    }
}

TEST(PmfProperty, MixtureMeanIsAverageOfComponentMeans)
{
    for (int c = 0; c < kCases; ++c) {
        Rng rng = Rng::forStream(kSuiteSeed + 9,
                                 static_cast<std::uint64_t>(c));
        std::vector<Pmf> parts;
        const std::size_t k = 1 + rng.below(6);
        double mean_sum = 0.0;
        for (std::size_t i = 0; i < k; ++i) {
            parts.push_back(randomIntegerPmf(rng));
            mean_sum += parts.back().mean();
        }
        double expected = mean_sum / static_cast<double>(k);
        EXPECT_NEAR(Pmf::mixture(parts).mean(), expected,
                    1e-9 * (1.0 + std::abs(expected)))
            << "case " << c;
    }
}

TEST(PmfProperty, MixedWithInterpolatesMeans)
{
    for (int c = 0; c < kCases; ++c) {
        Rng rng = Rng::forStream(kSuiteSeed + 10,
                                 static_cast<std::uint64_t>(c));
        Pmf a = randomIntegerPmf(rng);
        Pmf b = randomIntegerPmf(rng);
        double w = rng.uniform();
        double expected = w * a.mean() + (1.0 - w) * b.mean();
        EXPECT_NEAR(a.mixedWith(b, w).mean(), expected,
                    1e-9 * (1.0 + std::abs(expected)))
            << "case " << c;
    }
}

TEST(PmfProperty, MappedAffineTransformsMeanLinearly)
{
    for (int c = 0; c < kCases; ++c) {
        Rng rng = Rng::forStream(kSuiteSeed + 11,
                                 static_cast<std::uint64_t>(c));
        Pmf p = randomIntegerPmf(rng);
        double scale = 0.25 + rng.uniform();
        double shift = 10.0 * rng.gaussian();
        Pmf q = p.mapped(
            [=](double v) { return scale * v + shift; });
        EXPECT_NEAR(totalProb(q), 1.0, 1e-12) << "case " << c;
        double expected = scale * p.mean() + shift;
        EXPECT_NEAR(q.mean(), expected,
                    1e-9 * (1.0 + std::abs(expected)))
            << "case " << c;
    }
}

TEST(PmfProperty, SampleAlwaysReturnsASupportValue)
{
    for (int c = 0; c < kCases; ++c) {
        Rng rng = Rng::forStream(kSuiteSeed + 12,
                                 static_cast<std::uint64_t>(c));
        Pmf p = (c % 2 == 0) ? randomIntegerPmf(rng)
                             : Pmf::fromPoints(randomRealPoints(rng));
        double v = p.sample(rng.uniform());
        EXPECT_GT(p.probOf(v), 0.0) << "case " << c;
    }
}

TEST(PmfProperty, VarianceIsNonNegative)
{
    for (int c = 0; c < kCases; ++c) {
        Rng rng = Rng::forStream(kSuiteSeed + 13,
                                 static_cast<std::uint64_t>(c));
        Pmf p = (c % 2 == 0) ? randomIntegerPmf(rng)
                             : Pmf::fromPoints(randomRealPoints(rng));
        EXPECT_GE(p.variance(), -1e-9) << "case " << c;
    }
}

// ---------------------------------------------------------------------
// Exact-equality checks (EXPECT_EQ on doubles, no ULP slack): the
// byte-stable goldens rest on these.
// ---------------------------------------------------------------------

void
expectBitIdentical(const Pmf& want, const Pmf& got, int case_i)
{
    ASSERT_EQ(want.size(), got.size()) << "case " << case_i;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want.points()[i].value, got.points()[i].value)
            << "case " << case_i << " index " << i;
        EXPECT_EQ(want.points()[i].prob, got.points()[i].prob)
            << "case " << case_i << " index " << i;
    }
}

TEST(PmfSimdProperty, MixtureLatticePathMatchesConcatReference)
{
    // The single-pass dense mixture must reproduce the old
    // concat-then-fromPoints result exactly (same addends, same order).
    for (int c = 0; c < kCases; ++c) {
        Rng rng = Rng::forStream(kSuiteSeed + 18,
                                 static_cast<std::uint64_t>(c));
        std::vector<Pmf> parts;
        const std::size_t k = 1 + rng.below(6);
        for (std::size_t i = 0; i < k; ++i)
            parts.push_back(randomIntegerPmf(rng));
        Pmf mix = Pmf::mixture(parts);

        std::vector<Pmf::Point> concat;
        const double w = 1.0 / static_cast<double>(k);
        for (const Pmf& part : parts) {
            for (const Pmf::Point& pt : part.points())
                concat.push_back({pt.value, pt.prob * w});
        }
        expectBitIdentical(Pmf::fromPoints(std::move(concat)), mix, c);
    }
}

TEST(DistReduce, PinsFourAccumulatorAssociation)
{
    // reduce.hh's contract, written out: lane l accumulates elements
    // l, l+4, l+8, ... of the n - n % 4 blocked prefix; the lanes
    // combine as (a0+a1)+(a2+a3); the tail is added serially. Every
    // tail residue is covered, with random data.
    Rng rng = Rng::forStream(kSuiteSeed + 19, 0);
    for (std::size_t n = 0; n <= 67; ++n) {
        std::vector<double> x(n), x2(n), g(n);
        for (std::size_t i = 0; i < n; ++i) {
            x[i] = rng.gaussian();
            x2[i] = x[i] * x[i];
            g[i] = rng.uniform();
        }
        const std::size_t blocked = n - n % 4;
        double sa[4] = {0.0, 0.0, 0.0, 0.0};
        double da[4] = {0.0, 0.0, 0.0, 0.0};
        double ea[4] = {0.0, 0.0, 0.0, 0.0};
        for (std::size_t j = 0; j < blocked; ++j) {
            sa[j % 4] += x[j];
            da[j % 4] += x[j] * g[j];
            ea[j % 4] += x2[j] * g[j];
        }
        double want_sum = (sa[0] + sa[1]) + (sa[2] + sa[3]);
        double want_dot = (da[0] + da[1]) + (da[2] + da[3]);
        double want_e = (ea[0] + ea[1]) + (ea[2] + ea[3]);
        for (std::size_t j = blocked; j < n; ++j) {
            want_sum += x[j];
            want_dot += x[j] * g[j];
            want_e += x2[j] * g[j];
        }

        EXPECT_EQ(sum(x.data(), n), want_sum) << "n=" << n;
        EXPECT_EQ(dot(x.data(), g.data(), n), want_dot) << "n=" << n;
        double s = -1.0, e = -1.0;
        dotPair(x.data(), x2.data(), g.data(), n, s, e);
        EXPECT_EQ(s, want_dot) << "n=" << n;
        EXPECT_EQ(e, want_e) << "n=" << n;
    }
}

/** reduce.hh's formula for one row: four striped lanes, (a0+a1)+(a2+a3),
 *  then the tail serially. */
double
fourAccumulatorDot(const double* x, const double* g, std::size_t n)
{
    const std::size_t blocked = n - n % 4;
    double a[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t j = 0; j < blocked; ++j)
        a[j % 4] += x[j] * g[j];
    double r = (a[0] + a[1]) + (a[2] + a[3]);
    for (std::size_t j = blocked; j < n; ++j)
        r += x[j] * g[j];
    return r;
}

TEST(DistReduce, MultiRowKeepsTheAssociation)
{
    // dotRows / dotPairRows: every row of every register-block width
    // (m = 1..17 covers the 4-row and 2-row passes and each remainder),
    // rows laid out at a stride longer than n, every tail residue.
    Rng rng = Rng::forStream(kSuiteSeed + 20, 0);
    for (std::size_t n = 0; n <= 67; ++n) {
        const std::size_t stride = n + 3;
        for (std::size_t m = 1; m <= 17; ++m) {
            std::vector<double> x(m * stride), x2(m * stride), g(n);
            for (std::size_t i = 0; i < x.size(); ++i) {
                x[i] = rng.gaussian();
                x2[i] = x[i] * x[i];
            }
            for (double& v : g)
                v = rng.uniform();
            std::vector<double> out(m, -1.0), s(m, -1.0), e(m, -1.0);
            dotRows(x.data(), stride, m, g.data(), n, out.data());
            dotPairRows(x.data(), x2.data(), stride, m, g.data(), n,
                        s.data(), e.data());
            for (std::size_t r = 0; r < m; ++r) {
                const double want_s =
                    fourAccumulatorDot(&x[r * stride], g.data(), n);
                const double want_e =
                    fourAccumulatorDot(&x2[r * stride], g.data(), n);
                EXPECT_EQ(out[r], want_s) << "n=" << n << " m=" << m
                                          << " row " << r;
                EXPECT_EQ(s[r], want_s) << "n=" << n << " m=" << m
                                        << " row " << r;
                EXPECT_EQ(e[r], want_e) << "n=" << n << " m=" << m
                                        << " row " << r;
            }
        }
    }
}

} // namespace
} // namespace cimloop::dist
