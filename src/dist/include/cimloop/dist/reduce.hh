/**
 * @file
 * Reductions with a fixed association order.
 *
 * The value-level reference (refsim) sums its conductance rows with
 * these, and its output is pinned byte for byte, so the association is
 * part of the contract: four accumulators striped j, j+4, j+8, ...,
 * combined as (a0+a1)+(a2+a3), then the n % 4 tail added serially. That
 * differs from a naive single-accumulator loop, and no mul+add is ever
 * fused into an FMA (cimloop_dist builds with -ffp-contract=off).
 * The kernels hold (a0, a1) and (a2, a3) in two-lane vectors, which is
 * the same association written so that GCC and Clang emit packed code.
 * DistReduce.PinsFourAccumulatorAssociation and
 * DistReduce.MultiRowKeepsTheAssociation spell the formula out.
 */
#ifndef CIMLOOP_DIST_REDUCE_HH
#define CIMLOOP_DIST_REDUCE_HH

#include <cstddef>

namespace cimloop::dist {

/** Sum of x[0..n). */
double sum(const double* x, std::size_t n);

/** Dot product of x[0..n) and g[0..n). */
double dot(const double* x, const double* g, std::size_t n);

/** s = dot(x, g), e = dot(x2, g) in one pass over g. */
void dotPair(const double* x, const double* x2, const double* g,
             std::size_t n, double& s, double& e);

/**
 * Multi-row dot: out[r] = dot(x + r * stride, g, n) for r in [0, m), in
 * one pass over g. Each row keeps dot()'s association exactly, so every
 * output equals the single-row call bit for bit; dot() is the m = 1
 * case. The value-level walk runs one vector's input slices against a
 * conductance row with it.
 */
void dotRows(const double* x, std::size_t stride, std::size_t m,
             const double* g, std::size_t n, double* out);

/** Paired multi-row dot: s[r] = dot(x_r, g), e[r] = dot(x2_r, g), the
 *  rows of x and x2 both at @p stride; dotPair() is the m = 1 case. */
void dotPairRows(const double* x, const double* x2, std::size_t stride,
                 std::size_t m, const double* g, std::size_t n, double* s,
                 double* e);

} // namespace cimloop::dist

#endif // CIMLOOP_DIST_REDUCE_HH
