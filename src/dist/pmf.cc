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

} // namespace

Pmf
Pmf::delta(double v)
{
    Pmf p;
    p.points_.push_back({v, 1.0});
    return p;
}

Pmf
Pmf::uniformInt(std::int64_t lo, std::int64_t hi)
{
    CIM_ASSERT(hi >= lo, "uniformInt requires hi >= lo");
    Pmf p;
    double prob = 1.0 / static_cast<double>(hi - lo + 1);
    p.points_.reserve(hi - lo + 1);
    for (std::int64_t v = lo; v <= hi; ++v)
        p.points_.push_back({static_cast<double>(v), prob});
    return p;
}

Pmf
Pmf::fromPoints(std::vector<Point> pts)
{
    static obs::Counter& lattice =
        obs::counter("dist.pmf.from_points.lattice");
    static obs::Counter& fallback =
        obs::counter("dist.pmf.from_points.fallback");
    Pmf p;
    std::int64_t lo = 0, hi = 0;
    if (latticeBounds(pts, lo, hi) && denseEnough(lo, hi, pts.size())) {
        lattice.add();
        // Integer-lattice fast path: merge duplicates through a dense
        // probability array (no sort; output is sorted by construction).
        const std::size_t span = static_cast<std::size_t>(hi - lo) + 1;
        std::vector<double> acc(span);
        for (const Point& pt : pts)
            acc[static_cast<std::int64_t>(pt.value) - lo] += pt.prob;
        p.points_.reserve(pts.size());
        appendLatticePoints(acc, lo, p.points_);
    } else {
        fallback.add();
        p.points_ = std::move(pts);
        p.sortMerge();
    }
    p.normalize();
    return p;
}

Pmf
Pmf::fromSamples(const std::vector<double>& samples)
{
    CIM_ASSERT(!samples.empty(), "fromSamples requires samples");
    std::vector<Point> pts;
    pts.reserve(samples.size());
    double w = 1.0 / static_cast<double>(samples.size());
    for (double s : samples)
        pts.push_back({s, w});
    return fromPoints(std::move(pts));
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

double
Pmf::maxValue() const
{
    CIM_ASSERT(!points_.empty(), "maxValue on empty PMF");
    return points_.back().value;
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
Pmf::convolveWith(const Pmf& other, std::size_t max_points) const
{
    CIM_ASSERT(!points_.empty() && !other.points_.empty(),
               "convolveWith on empty PMF");
#ifndef NDEBUG
    const double exact_mean = mean() + other.mean();
#endif
    static obs::Counter& lattice = obs::counter("dist.pmf.convolve.lattice");
    static obs::Counter& fallback =
        obs::counter("dist.pmf.convolve.fallback");
    Pmf out;
    std::int64_t alo = 0, ahi = 0, blo = 0, bhi = 0;
    if (latticeBounds(points_, alo, ahi) &&
        latticeBounds(other.points_, blo, bhi) &&
        (ahi - alo) + (bhi - blo) < kMaxLatticeSpan &&
        denseEnough(blo, bhi, other.points_.size())) {
        lattice.add();
        // Dense integer-lattice kernel: densify the second operand, then
        // each point of the first contributes one contiguous axpy over
        // the flat array — no point-pair list, no sort/merge.
        const std::size_t bspan = static_cast<std::size_t>(bhi - blo) + 1;
        const std::size_t span =
            static_cast<std::size_t>((ahi - alo) + (bhi - blo)) + 1;
        std::vector<double> pb(bspan);
        for (const Point& b : other.points_)
            pb[static_cast<std::int64_t>(b.value) - blo] += b.prob;
        std::vector<double> acc(span);
        for (const Point& a : points_) {
            double* dst =
                acc.data() + (static_cast<std::int64_t>(a.value) - alo);
            for (std::size_t j = 0; j < bspan; ++j)
                dst[j] += a.prob * pb[j];
        }
        out.points_.reserve(std::min(span, max_points * 2));
        appendLatticePoints(acc, alo + blo, out.points_);
        out.normalize();
    } else {
        fallback.add();
        std::vector<Point> pts;
        pts.reserve(points_.size() * other.points_.size());
        for (const Point& a : points_) {
            for (const Point& b : other.points_) {
                pts.push_back({a.value + b.value, a.prob * b.prob});
            }
        }
        out = fromPoints(std::move(pts));
    }
    out.downsample(max_points);
#ifndef NDEBUG
    // Debug-build invariant: downsampling merges are probability-weighted,
    // so the mean of the capped result equals the exact convolution mean.
    CIM_ASSERT(std::abs(out.mean() - exact_mean) <=
                   1e-9 * (1.0 + std::abs(exact_mean)),
               "convolveWith downsampling shifted the mean");
#endif
    return out;
}

void
Pmf::downsample(std::size_t max_points)
{
    CIM_ASSERT(max_points >= 1, "downsample needs max_points >= 1");
    // Cap the support by merging nearest neighbors by value gap: each
    // round merges the non-overlapping adjacent pairs whose gap is at or
    // below the median gap, so tight clusters collapse before isolated
    // tail points are touched. Merges are probability-weighted, which
    // preserves the mean exactly.
    while (points_.size() > max_points) {
        const std::size_t n = points_.size();
        std::vector<double> gaps(n - 1);
        for (std::size_t i = 0; i + 1 < n; ++i)
            gaps[i] = points_[i + 1].value - points_[i].value;
        std::vector<double> order = gaps;
        auto mid = order.begin() + (n - 1) / 2;
        std::nth_element(order.begin(), mid, order.end());
        const double threshold = *mid;

        std::vector<Point> merged;
        merged.reserve(n / 2 + 1);
        std::size_t i = 0;
        while (i < n) {
            if (i + 1 < n && gaps[i] <= threshold) {
                const Point& a = points_[i];
                const Point& b = points_[i + 1];
                double p = a.prob + b.prob;
                double v = p > 0.0
                    ? (a.value * a.prob + b.value * b.prob) / p
                    : 0.5 * (a.value + b.value);
                merged.push_back({v, p});
                i += 2;
            } else {
                merged.push_back(points_[i]);
                ++i;
            }
        }
        CIM_ASSERT(merged.size() < n, "downsample made no progress");
        points_ = std::move(merged);
    }
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

double
Pmf::sample(double u) const
{
    CIM_ASSERT(!points_.empty(), "sample on empty PMF");
    double acc = 0.0;
    for (const Point& pt : points_) {
        acc += pt.prob;
        if (u < acc)
            return pt.value;
    }
    return points_.back().value;
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
