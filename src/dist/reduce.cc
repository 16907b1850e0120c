#include "cimloop/dist/reduce.hh"

#include <algorithm>
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
 * out[r] = the dot product of (x + r * stride)[0..n) and g[0..n) for
 * the rows r in R..., in one pass over g. The rows expand as a pack, so
 * every accumulator index is a constant and the accumulators stay in
 * registers at -O2 as at -O3.
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

/** Set bits per byte of @p v: eight lanes of at most 8. */
inline std::uint64_t
byteCounts(std::uint64_t v)
{
    v -= (v >> 1) & 0x5555555555555555ull;
    v = (v & 0x3333333333333333ull) + ((v >> 2) & 0x3333333333333333ull);
    return (v + (v >> 4)) & 0x0F0F0F0F0F0F0F0Full;
}

/** Words whose byteCounts fit one set of byte lanes (31 * 8 <= 255). */
constexpr std::size_t kByteLaneWords = 31;

/** Sum of the eight byte lanes of @p bytes, widened to 16 bits first. */
inline std::uint32_t
sumBytes(std::uint64_t bytes)
{
    constexpr std::uint64_t k8 = 0x00FF00FF00FF00FFull;
    const std::uint64_t halves = (bytes & k8) + ((bytes >> 8) & k8);
    return static_cast<std::uint32_t>((halves * 0x0001000100010001ull) >>
                                      48);
}

/** andCountRows at a word count fixed at compile time: each row is
 *  straight-line code and one set of byte lanes. */
template <std::size_t N>
void
andCountFixed(const std::uint64_t* x, std::size_t stride, std::size_t m,
              const std::uint64_t* g, std::uint32_t* out)
{
    static_assert(N <= kByteLaneWords);
    std::uint64_t gw[N];
    std::copy(g, g + N, gw);
    for (std::size_t r = 0; r < m; ++r) {
        const std::uint64_t* xr = x + r * stride;
        std::uint64_t bytes = 0;
        for (std::size_t j = 0; j < N; ++j)
            bytes += byteCounts(xr[j] & gw[j]);
        out[r] = sumBytes(bytes);
    }
}

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

void
andCountRows(const std::uint64_t* x, std::size_t stride, std::size_t m,
             const std::uint64_t* g, std::size_t n, std::uint32_t* out)
{
    // Tiles of up to 256 rows unroll their words; longer rows chunk.
    switch (n) {
    case 1: return andCountFixed<1>(x, stride, m, g, out);
    case 2: return andCountFixed<2>(x, stride, m, g, out);
    case 3: return andCountFixed<3>(x, stride, m, g, out);
    case 4: return andCountFixed<4>(x, stride, m, g, out);
    default: break;
    }
    for (std::size_t r = 0; r < m; ++r) {
        const std::uint64_t* xr = x + r * stride;
        std::uint32_t total = 0;
        for (std::size_t j0 = 0; j0 < n; j0 += kByteLaneWords) {
            const std::size_t j1 = std::min(n, j0 + kByteLaneWords);
            std::uint64_t bytes = 0;
            for (std::size_t j = j0; j < j1; ++j)
                bytes += byteCounts(xr[j] & g[j]);
            total += sumBytes(bytes);
        }
        out[r] = total;
    }
}

} // namespace cimloop::dist
