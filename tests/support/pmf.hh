/**
 * @file
 * PMF fixtures shared by the dist, faults and refsim tests.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "cimloop/dist/pmf.hh"

namespace cimloop::support {

/** Uniform over the integers lo..hi inclusive: each point has
 *  probability exactly 1.0 / (hi - lo + 1). */
inline dist::Pmf
uniformInt(std::int64_t lo, std::int64_t hi)
{
    return dist::Pmf::fromCounts(
        lo, std::vector<std::int64_t>(static_cast<std::size_t>(hi - lo + 1),
                                      1));
}

} // namespace cimloop::support
