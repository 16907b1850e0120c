/**
 * @file
 * Probability mass functions over operand / code values.
 *
 * CiMLoop's statistical energy model (paper Sec. III-C/III-D) represents
 * every tensor by an independent per-layer PMF instead of the full tensor.
 * All data-value-dependent component models consume these PMFs.
 */
#ifndef CIMLOOP_DIST_PMF_HH
#define CIMLOOP_DIST_PMF_HH

#include <cstdint>
#include <functional>
#include <vector>

namespace cimloop::dist {

/**
 * A discrete probability mass function over real-valued points. Points are
 * kept sorted and unique; probabilities sum to 1 after normalize().
 */
class Pmf
{
  public:
    /** One support point. */
    struct Point
    {
        double value = 0.0;
        double prob = 0.0;
    };

    Pmf() = default;

    /** Point mass at @p v. */
    static Pmf delta(double v);

    /**
     * Builds from (value, weight) pairs; merges duplicates, normalizes.
     * When every value lies on the integer lattice (the common case —
     * all encodings are quantized), duplicates merge through a dense
     * probability array indexed by lattice offset instead of a
     * sort-and-merge pass.
     */
    static Pmf fromPoints(std::vector<Point> pts);

    /**
     * Builds from a histogram: @p counts[i] samples of the integer
     * lo + i. Equal, point for point, to fromPoints of the expanded list
     * of unit-weight samples, and takes the same lattice / fallback
     * branch (decided by the total count), without materialising one
     * point per sample.
     */
    static Pmf fromCounts(std::int64_t lo,
                          const std::vector<std::int64_t>& counts);

    /**
     * Gaussian N(mean, sigma^2) quantized to the integers lo..hi (values
     * outside clamp to the ends). Used by the synthetic operand profiler.
     */
    static Pmf quantizedGaussian(double mean, double sigma, std::int64_t lo,
                                 std::int64_t hi);

    /**
     * Post-ReLU Gaussian: negative mass collapses to 0, positive mass is
     * quantized to 0..hi. Models activation tensors.
     */
    static Pmf reluGaussian(double mean, double sigma, std::int64_t hi);

    /** Number of support points. */
    std::size_t size() const { return points_.size(); }

    bool empty() const { return points_.empty(); }

    /** Support points in increasing value order. */
    const std::vector<Point>& points() const { return points_; }

    /** E[X]. */
    double mean() const;

    /** E[|X|]. */
    double meanAbs() const;

    /** E[X^2]. */
    double meanSquare() const;

    /** Var[X]. */
    double variance() const;

    /** E[f(X)]. */
    double expectation(const std::function<double(double)>& f) const;

    /** P(X == v) with exact match on the stored double. */
    double probOf(double v) const;

    /** Smallest support value; fatal when empty. */
    double minValue() const;

    /** Applies f to every support value, merging collisions. */
    Pmf mapped(const std::function<double(double)>& f) const;

    /** Mixture: this with weight w, other with weight (1-w). */
    Pmf mixedWith(const Pmf& other, double w) const;

    /**
     * Equal-weight mixture of @p parts in a single pass (one merge over
     * all components' points), replacing chains of incremental
     * mixedWith() calls; fatal when @p parts is empty.
     */
    static Pmf mixture(const std::vector<Pmf>& parts);

    /** Rescales probabilities to sum to 1; fatal when total is 0. */
    void normalize();

  private:
    std::vector<Point> points_;

    void sortMerge();
};

} // namespace cimloop::dist

#endif // CIMLOOP_DIST_PMF_HH
