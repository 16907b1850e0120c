#include "cimloop/dist/reduce.hh"

namespace cimloop::dist {

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
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        a0 += x[j] * g[j];
        a1 += x[j + 1] * g[j + 1];
        a2 += x[j + 2] * g[j + 2];
        a3 += x[j + 3] * g[j + 3];
    }
    double r = (a0 + a1) + (a2 + a3);
    for (; j < n; ++j)
        r += x[j] * g[j];
    return r;
}

void
dotPair(const double* x, const double* x2, const double* g, std::size_t n,
        double& s, double& e)
{
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    double e0 = 0.0, e1 = 0.0, e2 = 0.0, e3 = 0.0;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        s0 += x[j] * g[j];
        s1 += x[j + 1] * g[j + 1];
        s2 += x[j + 2] * g[j + 2];
        s3 += x[j + 3] * g[j + 3];
        e0 += x2[j] * g[j];
        e1 += x2[j + 1] * g[j + 1];
        e2 += x2[j + 2] * g[j + 2];
        e3 += x2[j + 3] * g[j + 3];
    }
    double rs = (s0 + s1) + (s2 + s3);
    double re = (e0 + e1) + (e2 + e3);
    for (; j < n; ++j) {
        rs += x[j] * g[j];
        re += x2[j] * g[j];
    }
    s = rs;
    e = re;
}

} // namespace cimloop::dist
