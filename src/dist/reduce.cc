#include "cimloop/dist/reduce.hh"

#include <cstring>
#include <utility>

namespace cimloop::dist {

namespace {

/** Two double lanes. Lanes (a0, a1) and (a2, a3) of the four-accumulator
 *  association live in one low and one high vector each. */
using V2 = double __attribute__((vector_size(16)));

inline V2
load2(const double* p)
{
    V2 v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

/** (a0 + a1) + (a2 + a3) over a row's low and high lanes. */
inline double
combine(V2 lo, V2 hi)
{
    return (lo[0] + lo[1]) + (hi[0] + hi[1]);
}

/** Adds the n % 4 tail x[j..n) * g[j..n) serially to @p acc. */
inline double
tail(double acc, const double* x, const double* g, std::size_t j,
     std::size_t n)
{
    for (; j < n; ++j)
        acc += x[j] * g[j];
    return acc;
}

/**
 * out[r] = dot(x + r * stride, g) for the rows r in R... in one pass
 * over g. The rows expand as a pack, so every accumulator index is a
 * constant and the accumulators stay in registers at -O2 as at -O3.
 */
template <std::size_t... R>
void
dotBlock(std::index_sequence<R...>, const double* x, std::size_t stride,
         const double* g, std::size_t n, double* out)
{
    V2 lo[] = {(static_cast<void>(R), V2{0.0, 0.0})...};
    V2 hi[] = {(static_cast<void>(R), V2{0.0, 0.0})...};
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        const V2 glo = load2(g + j);
        const V2 ghi = load2(g + j + 2);
        ((lo[R] += load2(x + R * stride + j) * glo,
          hi[R] += load2(x + R * stride + j + 2) * ghi),
         ...);
    }
    ((out[R] = tail(combine(lo[R], hi[R]), x + R * stride, g, j, n)), ...);
}

/** dotBlock's paired form: s[r] over x rows, e[r] over x2 rows. */
template <std::size_t... R>
void
dotPairBlock(std::index_sequence<R...>, const double* x, const double* x2,
             std::size_t stride, const double* g, std::size_t n, double* s,
             double* e)
{
    V2 slo[] = {(static_cast<void>(R), V2{0.0, 0.0})...};
    V2 shi[] = {(static_cast<void>(R), V2{0.0, 0.0})...};
    V2 elo[] = {(static_cast<void>(R), V2{0.0, 0.0})...};
    V2 ehi[] = {(static_cast<void>(R), V2{0.0, 0.0})...};
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        const V2 glo = load2(g + j);
        const V2 ghi = load2(g + j + 2);
        ((slo[R] += load2(x + R * stride + j) * glo,
          shi[R] += load2(x + R * stride + j + 2) * ghi,
          elo[R] += load2(x2 + R * stride + j) * glo,
          ehi[R] += load2(x2 + R * stride + j + 2) * ghi),
         ...);
    }
    ((s[R] = tail(combine(slo[R], shi[R]), x + R * stride, g, j, n),
      e[R] = tail(combine(elo[R], ehi[R]), x2 + R * stride, g, j, n)),
     ...);
}

/** The row pack 0 .. R-1 of a dotBlock/dotPairBlock pass. */
template <std::size_t R>
constexpr std::make_index_sequence<R> kRows{};

} // namespace

double
sum(const double* x, std::size_t n)
{
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        a0 += x[j];
        a1 += x[j + 1];
        a2 += x[j + 2];
        a3 += x[j + 3];
    }
    double r = (a0 + a1) + (a2 + a3);
    for (; j < n; ++j)
        r += x[j];
    return r;
}

double
dot(const double* x, const double* g, std::size_t n)
{
    double r;
    dotBlock(kRows<1>, x, 0, g, n, &r);
    return r;
}

void
dotPair(const double* x, const double* x2, const double* g, std::size_t n,
        double& s, double& e)
{
    dotPairBlock(kRows<1>, x, x2, 0, g, n, &s, &e);
}

void
dotRows(const double* x, std::size_t stride, std::size_t m, const double* g,
        std::size_t n, double* out)
{
    // Four rows per pass keep 8 accumulators and the two g lanes in
    // registers; the 1-3 row remainder takes a narrower pass.
    std::size_t r = 0;
    for (; r + 4 <= m; r += 4)
        dotBlock(kRows<4>, x + r * stride, stride, g, n, out + r);
    const double* xr = x + r * stride;
    switch (m - r) {
    case 3: dotBlock(kRows<3>, xr, stride, g, n, out + r); break;
    case 2: dotBlock(kRows<2>, xr, stride, g, n, out + r); break;
    case 1: dotBlock(kRows<1>, xr, stride, g, n, out + r); break;
    default: break;
    }
}

void
dotPairRows(const double* x, const double* x2, std::size_t stride,
            std::size_t m, const double* g, std::size_t n, double* s,
            double* e)
{
    // Two rows per pass: 8 accumulators, as dotRows.
    std::size_t r = 0;
    for (; r + 2 <= m; r += 2) {
        dotPairBlock(kRows<2>, x + r * stride, x2 + r * stride, stride,
                     g, n, s + r, e + r);
    }
    if (r < m) {
        dotPairBlock(kRows<1>, x + r * stride, x2 + r * stride, stride,
                     g, n, s + r, e + r);
    }
}

} // namespace cimloop::dist
