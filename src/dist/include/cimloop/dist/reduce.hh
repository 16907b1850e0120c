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
#include <cstdint>

namespace cimloop::dist {

/** Sum of x[0..n). */
double sum(const double* x, std::size_t n);

/**
 * Multi-row dot product: out[r] is the dot product of
 * (x + r * stride)[0..n) and g[0..n), for r in [0, m), in one pass over
 * g. Every row keeps the four-accumulator association above, whatever
 * m is and wherever the row falls in a register block. The value-level
 * walk runs one vector's input slices against a conductance row with
 * it.
 */
void dotRows(const double* x, std::size_t stride, std::size_t m,
             const double* g, std::size_t n, double* out);

/** Paired multi-row dot product: s[r] over the rows of x and e[r] over
 *  the rows of x2 (both at @p stride) against the same g, each as
 *  dotRows computes it. */
void dotPairRows(const double* x, const double* x2, std::size_t stride,
                 std::size_t m, const double* g, std::size_t n, double* s,
                 double* e);

/**
 * Multi-row AND-count over packed bits: out[r] is the number of bits set
 * in both (x + r * stride)[0..n) and g[0..n), for r in [0, m). On levels
 * that are exactly 0.0 or 1.0 this is dotRows of the unpacked rows:
 * every partial sum is an integer, so it is exact in any association.
 * The value-level walk runs one vector's 1-bit input slices against a
 * plane of 1-bit cells with it. The count is an inline SWAR one; without
 * a -march flag, std::popcount is a library call per word.
 */
void andCountRows(const std::uint64_t* x, std::size_t stride,
                  std::size_t m, const std::uint64_t* g, std::size_t n,
                  std::uint32_t* out);

} // namespace cimloop::dist

#endif // CIMLOOP_DIST_REDUCE_HH
