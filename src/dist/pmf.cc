#include "cimloop/dist/pmf.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "cimloop/common/error.hh"
#include "cimloop/obs/obs.hh"

namespace cimloop::dist {

namespace {

/** Standard normal CDF. */
double
normCdf(double x)
{
    return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

/** Hard cap on the dense-array span of the lattice fast path. */
constexpr std::int64_t kMaxLatticeSpan = std::int64_t{1} << 22;

/**
 * True when every value is an exact integer within a dense-array span,
 * i.e. the support lies on the integer lattice and flat probability
 * arrays indexed by lattice offset are affordable. Sets [lo, hi] to the
 * integer bounds. Works on unsorted points.
 */
bool
latticeBounds(const std::vector<Pmf::Point>& pts, std::int64_t& lo,
              std::int64_t& hi)
{
    if (pts.empty())
        return false;
    double min_v = pts.front().value;
    double max_v = pts.front().value;
    for (const Pmf::Point& pt : pts) {
        double v = pt.value;
        if (!(std::abs(v) <= 0x1p53) || v != std::floor(v))
            return false;
        min_v = std::min(min_v, v);
        max_v = std::max(max_v, v);
    }
    lo = static_cast<std::int64_t>(min_v);
    hi = static_cast<std::int64_t>(max_v);
    return hi - lo < kMaxLatticeSpan;
}

/** Density guard: a dense array is only worth it when the span is not
 *  wildly larger than the point count. */
bool
denseEnough(std::int64_t lo, std::int64_t hi, std::size_t n_points)
{
    return hi - lo + 1 <=
           std::max<std::int64_t>(64,
                                  8 * static_cast<std::int64_t>(n_points));
}

/**
 * latticeBounds over the union of all components' supports — exactly the
 * test fromPoints would apply to the concatenated point list, so the
 * single-pass mixture fast path triggers iff the old concat-then-
 * fromPoints route would have taken the lattice path.
 */
bool
mixtureLatticeBounds(const std::vector<Pmf>& parts, std::int64_t& lo,
                     std::int64_t& hi)
{
    bool first = true;
    for (const Pmf& part : parts) {
        if (part.empty())
            continue;
        std::int64_t part_lo = 0, part_hi = 0;
        if (!latticeBounds(part.points(), part_lo, part_hi))
            return false;
        lo = first ? part_lo : std::min(lo, part_lo);
        hi = first ? part_hi : std::max(hi, part_hi);
        first = false;
    }
    return !first && hi - lo < kMaxLatticeSpan;
}

/**
 * Appends the nonzero cells of the dense lattice array @p acc, whose
 * cell 0 holds value @p lo, to @p out in value order.
 */
void
appendLatticePoints(const std::vector<double>& acc, std::int64_t lo,
                    std::vector<Pmf::Point>& out)
{
    for (std::size_t i = 0; i < acc.size(); ++i) {
        if (acc[i] != 0.0)
            out.push_back(
                {static_cast<double>(lo + static_cast<std::int64_t>(i)),
                 acc[i]});
    }
}

/** Counts one fromPoints or fromCounts build under the merge it took. */
void
countFromPoints(bool lattice)
{
    static obs::Counter& c_lattice =
        obs::counter("dist.pmf.from_points.lattice");
    static obs::Counter& c_fallback =
        obs::counter("dist.pmf.from_points.fallback");
    (lattice ? c_lattice : c_fallback).add();
}

} // namespace

Pmf
Pmf::delta(double v)
{
    Pmf p;
    p.points_.push_back({v, 1.0});
    return p;
}

Pmf
Pmf::fromPoints(std::vector<Point> pts)
{
    Pmf p;
    std::int64_t lo = 0, hi = 0;
    const bool lattice =
        latticeBounds(pts, lo, hi) && denseEnough(lo, hi, pts.size());
    countFromPoints(lattice);
    if (lattice) {
        // Integer-lattice fast path: merge duplicates through a dense
        // probability array (no sort; output is sorted by construction).
        const std::size_t span = static_cast<std::size_t>(hi - lo) + 1;
        std::vector<double> acc(span);
        for (const Point& pt : pts)
            acc[static_cast<std::int64_t>(pt.value) - lo] += pt.prob;
        p.points_.reserve(std::min(pts.size(), span));
        appendLatticePoints(acc, lo, p.points_);
    } else {
        p.points_ = std::move(pts);
        p.sortMerge();
    }
    p.normalize();
    return p;
}

Pmf
Pmf::fromCounts(std::int64_t lo, const std::vector<std::int64_t>& counts)
{
    Pmf p;
    std::size_t total = 0;
    std::int64_t min_v = 0, max_v = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] <= 0)
            continue;
        const std::int64_t v = lo + static_cast<std::int64_t>(i);
        if (p.points_.empty())
            min_v = v;
        max_v = v;
        total += static_cast<std::size_t>(counts[i]);
        // Integer counts below 2^53 are exact, as the unit-weight sums
        // of either fromPoints branch are.
        p.points_.push_back(
            {static_cast<double>(v), static_cast<double>(counts[i])});
    }
    // fromPoints' branch test on the expanded list: its span is the
    // occupied values' and its point count is the total.
    countFromPoints(!p.points_.empty() && max_v - min_v < kMaxLatticeSpan &&
                    denseEnough(min_v, max_v, total));
    p.normalize();
    return p;
}

Pmf
Pmf::quantizedGaussian(double mean, double sigma, std::int64_t lo,
                       std::int64_t hi)
{
    CIM_ASSERT(sigma > 0.0, "quantizedGaussian requires sigma > 0");
    CIM_ASSERT(hi >= lo, "quantizedGaussian requires hi >= lo");
    Pmf p;
    p.points_.reserve(hi - lo + 1);
    for (std::int64_t v = lo; v <= hi; ++v) {
        double a = (v == lo) ? -1e30 : (static_cast<double>(v) - 0.5);
        double b = (v == hi) ? 1e30 : (static_cast<double>(v) + 0.5);
        double prob =
            normCdf((b - mean) / sigma) - normCdf((a - mean) / sigma);
        if (prob > 0.0)
            p.points_.push_back({static_cast<double>(v), prob});
    }
    p.normalize();
    return p;
}

Pmf
Pmf::reluGaussian(double mean, double sigma, std::int64_t hi)
{
    CIM_ASSERT(sigma > 0.0, "reluGaussian requires sigma > 0");
    CIM_ASSERT(hi >= 0, "reluGaussian requires hi >= 0");
    Pmf p;
    p.points_.reserve(hi + 1);
    for (std::int64_t v = 0; v <= hi; ++v) {
        double a = (v == 0) ? -1e30 : (static_cast<double>(v) - 0.5);
        double b = (v == hi) ? 1e30 : (static_cast<double>(v) + 0.5);
        double prob =
            normCdf((b - mean) / sigma) - normCdf((a - mean) / sigma);
        if (prob > 0.0)
            p.points_.push_back({static_cast<double>(v), prob});
    }
    p.normalize();
    return p;
}

double
Pmf::mean() const
{
    double m = 0.0;
    for (const Point& pt : points_)
        m += pt.value * pt.prob;
    return m;
}

double
Pmf::meanAbs() const
{
    double m = 0.0;
    for (const Point& pt : points_)
        m += std::abs(pt.value) * pt.prob;
    return m;
}

double
Pmf::meanSquare() const
{
    double m = 0.0;
    for (const Point& pt : points_)
        m += pt.value * pt.value * pt.prob;
    return m;
}

double
Pmf::variance() const
{
    double m = mean();
    return meanSquare() - m * m;
}

double
Pmf::expectation(const std::function<double(double)>& f) const
{
    double m = 0.0;
    for (const Point& pt : points_)
        m += f(pt.value) * pt.prob;
    return m;
}

double
Pmf::probOf(double v) const
{
    auto it = std::lower_bound(points_.begin(), points_.end(), v,
                               [](const Point& pt, double x) {
                                   return pt.value < x;
                               });
    return (it != points_.end() && it->value == v) ? it->prob : 0.0;
}

double
Pmf::minValue() const
{
    CIM_ASSERT(!points_.empty(), "minValue on empty PMF");
    return points_.front().value;
}

Pmf
Pmf::mapped(const std::function<double(double)>& f) const
{
    std::vector<Point> pts;
    pts.reserve(points_.size());
    for (const Point& pt : points_)
        pts.push_back({f(pt.value), pt.prob});
    return fromPoints(std::move(pts));
}

Pmf
Pmf::mixedWith(const Pmf& other, double w) const
{
    CIM_ASSERT(w >= 0.0 && w <= 1.0, "mixture weight must be in [0, 1]");
    std::vector<Point> pts;
    pts.reserve(points_.size() + other.points_.size());
    for (const Point& pt : points_)
        pts.push_back({pt.value, pt.prob * w});
    for (const Point& pt : other.points_)
        pts.push_back({pt.value, pt.prob * (1.0 - w)});
    return fromPoints(std::move(pts));
}

Pmf
Pmf::mixture(const std::vector<Pmf>& parts)
{
    CIM_ASSERT(!parts.empty(), "mixture needs at least one component");
    static obs::Counter& lattice = obs::counter("dist.pmf.mixture.lattice");
    static obs::Counter& fallback =
        obs::counter("dist.pmf.mixture.fallback");
    std::size_t total = 0;
    for (const Pmf& part : parts)
        total += part.points_.size();
    const double w = 1.0 / static_cast<double>(parts.size());

    std::int64_t lo = 0, hi = 0;
    if (mixtureLatticeBounds(parts, lo, hi) &&
        denseEnough(lo, hi, total)) {
        lattice.add();
        // Single-pass dense kernel: accumulate every component straight
        // into one flat lattice array — no intermediate scaled-point
        // list. Each addend is the same pt.prob * w the concat route
        // produced, added in the same order, so the result is
        // byte-identical to the fallback's fromPoints.
        Pmf p;
        const std::size_t span = static_cast<std::size_t>(hi - lo) + 1;
        std::vector<double> acc(span);
        for (const Pmf& part : parts) {
            for (const Point& pt : part.points_)
                acc[static_cast<std::int64_t>(pt.value) - lo] +=
                    pt.prob * w;
        }
        p.points_.reserve(std::min<std::size_t>(span, total));
        appendLatticePoints(acc, lo, p.points_);
        p.normalize();
        return p;
    }

    fallback.add();
    std::vector<Point> pts;
    pts.reserve(total);
    for (const Pmf& part : parts) {
        for (const Point& pt : part.points_)
            pts.push_back({pt.value, pt.prob * w});
    }
    return fromPoints(std::move(pts));
}

void
Pmf::normalize()
{
    double total = 0.0;
    for (const Point& pt : points_)
        total += pt.prob;
    if (total <= 0.0)
        CIM_FATAL("cannot normalize PMF with zero total probability");
    // The total is a serial reduction: its order is part of the byte
    // contract.
    for (Point& pt : points_)
        pt.prob /= total;
}

void
Pmf::sortMerge()
{
    std::sort(points_.begin(), points_.end(),
              [](const Point& a, const Point& b) {
                  return a.value < b.value;
              });
    std::vector<Point> merged;
    merged.reserve(points_.size());
    for (const Point& pt : points_) {
        if (!merged.empty() && merged.back().value == pt.value) {
            merged.back().prob += pt.prob;
        } else {
            merged.push_back(pt);
        }
    }
    points_ = std::move(merged);
}

} // namespace cimloop::dist
