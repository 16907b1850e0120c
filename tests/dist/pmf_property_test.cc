/**
 * Property-based invariant tests for Pmf: seeded random PMFs pushed
 * through fromPoints / fromCounts / mixture / mapped must keep the
 * invariants every statistical-pipeline claim rests on —
 *
 *   - total probability ≈ 1,
 *   - means that move as the operation says (mixtures average them,
 *     affine maps transform them),
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
#include <bit>
#include <cmath>
#include <map>
#include <vector>

#include "cimloop/common/util.hh"
#include "cimloop/dist/reduce.hh"
#include "cimloop/obs/obs.hh"

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

/** Which fromPoints branch the calls in @p fn took: the growth of the
 *  dist.pmf.from_points.{lattice,fallback} counters. */
template <class Fn>
std::pair<std::uint64_t, std::uint64_t>
fromPointsBranches(Fn&& fn)
{
    obs::Counter& lattice = obs::counter("dist.pmf.from_points.lattice");
    obs::Counter& fallback = obs::counter("dist.pmf.from_points.fallback");
    const std::uint64_t l0 = lattice.value(), f0 = fallback.value();
    fn();
    return {lattice.value() - l0, fallback.value() - f0};
}

TEST(PmfProperty, FromCountsMatchesExpandedFromPoints)
{
    // The histogram constructor against fromPoints of the unit-weight
    // sample list it stands for: the same points bit for bit, the same
    // lattice / fallback counter. Four shapes of histogram: a dense
    // span, a sparse wide span (fallback), a single value and a 16-bit
    // span, each from a few samples up to many.
    for (int c = 0; c < kCases; ++c) {
        Rng rng = Rng::forStream(kSuiteSeed + 21,
                                 static_cast<std::uint64_t>(c));
        std::int64_t lo = 0;
        std::vector<std::int64_t> counts;
        switch (c % 4) {
        case 0: // dense: every value of a small span drawn often
            lo = static_cast<std::int64_t>(rng.below(41)) - 20;
            counts.resize(1 + rng.below(64));
            for (std::int64_t& n : counts)
                n = static_cast<std::int64_t>(rng.below(30));
            break;
        case 1: // sparse: a handful of samples across a wide span
            lo = -static_cast<std::int64_t>(rng.below(5000));
            counts.assign(2000 + rng.below(8000), 0);
            counts.front() = counts.back() = 1;
            for (std::size_t i = 0, n = rng.below(12); i < n; ++i)
                ++counts[rng.below(counts.size())];
            break;
        case 2: // one value
            lo = static_cast<std::int64_t>(rng.below(1001)) - 500;
            counts.assign(1 + rng.below(8), 0);
            counts[rng.below(counts.size())] =
                1 + static_cast<std::int64_t>(rng.below(1000));
            break;
        default: // a 16-bit span, Gaussian-ish around its middle
            lo = -32768;
            counts.assign(65536, 0);
            for (std::size_t i = 0, n = 1 + rng.below(20000); i < n; ++i) {
                double v = std::round(3000.0 * rng.gaussian());
                v = std::clamp(v, -32768.0, 32767.0);
                ++counts[static_cast<std::size_t>(
                    static_cast<std::int64_t>(v) + 32768)];
            }
            break;
        }
        if (std::all_of(counts.begin(), counts.end(),
                        [](std::int64_t n) { return n == 0; }))
            counts[0] = 1;

        // The expanded list, in a shuffled order as a sampler emits it.
        std::vector<Pmf::Point> pts;
        for (std::size_t i = 0; i < counts.size(); ++i) {
            for (std::int64_t n = 0; n < counts[i]; ++n)
                pts.push_back(
                    {static_cast<double>(lo + static_cast<std::int64_t>(i)),
                     1.0});
        }
        for (std::size_t i = pts.size(); i > 1; --i)
            std::swap(pts[i - 1], pts[rng.below(i)]);

        Pmf want, got;
        const auto want_branch = fromPointsBranches(
            [&] { want = Pmf::fromPoints(pts); });
        const auto got_branch =
            fromPointsBranches([&] { got = Pmf::fromCounts(lo, counts); });
        EXPECT_EQ(want_branch, got_branch) << "case " << c;
        expectBitIdentical(want, got, c);
        if (c % 4 == 1) {
            EXPECT_EQ(got_branch.second, 1u)
                << "case " << c << ": the sparse span must fall back";
        }
    }
}

TEST(DistReduce, AndCountRowsCountsCommonBits)
{
    // Every row of m = 1..9 rows at a stride longer than n, n = 0..70
    // words (past the 31-word lane chunk), against std::popcount and
    // against dotRows over the same bits unpacked to 0.0 / 1.0 levels.
    Rng rng = Rng::forStream(kSuiteSeed + 22, 0);
    for (std::size_t n = 0; n <= 70; ++n) {
        const std::size_t stride = n + 2;
        for (std::size_t m = 1; m <= 9; ++m) {
            std::vector<std::uint64_t> x(m * stride), g(n);
            // Dense, sparse and all-ones words.
            auto word = [&] {
                switch (rng.below(3)) {
                case 0: return rng.next();
                case 1: return rng.next() & rng.next() & rng.next();
                default: return ~std::uint64_t{0};
                }
            };
            for (std::uint64_t& v : x)
                v = word();
            for (std::uint64_t& v : g)
                v = word();
            std::vector<std::uint32_t> out(m, 12345);
            andCountRows(x.data(), stride, m, g.data(), n, out.data());

            std::vector<double> xl(m * 64 * n), gl(64 * n);
            for (std::size_t b = 0; b < 64 * n; ++b) {
                gl[b] = static_cast<double>((g[b / 64] >> (b % 64)) & 1);
                for (std::size_t r = 0; r < m; ++r)
                    xl[r * 64 * n + b] = static_cast<double>(
                        (x[r * stride + b / 64] >> (b % 64)) & 1);
            }
            std::vector<double> dots(m, -1.0);
            dotRows(xl.data(), 64 * n, m, gl.data(), 64 * n, dots.data());
            for (std::size_t r = 0; r < m; ++r) {
                std::uint32_t want = 0;
                for (std::size_t j = 0; j < n; ++j)
                    want += static_cast<std::uint32_t>(
                        std::popcount(x[r * stride + j] & g[j]));
                EXPECT_EQ(out[r], want)
                    << "n=" << n << " m=" << m << " row " << r;
                EXPECT_EQ(static_cast<double>(out[r]), dots[r])
                    << "n=" << n << " m=" << m << " row " << r;
            }
        }
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
        double d = -1.0;
        dotRows(x.data(), n, 1, g.data(), n, &d);
        EXPECT_EQ(d, want_dot) << "n=" << n;
        double s = -1.0, e = -1.0;
        dotPairRows(x.data(), x2.data(), n, 1, g.data(), n, &s, &e);
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
