/**
 * @file
 * Deterministic document mutation shared by the YAML robustness tests
 * and the loader fuzz: random byte edits over a YAML-flavoured
 * alphabet.
 */
#pragma once

#include <string>

#include "cimloop/common/util.hh"

namespace cimloop::fuzz {

/** One to four byte flips, deletions or insertions at random offsets. */
inline std::string
mutateBytes(const std::string& base, Rng& rng)
{
    std::string s = base;
    int edits = 1 + static_cast<int>(rng.below(4));
    const char alphabet[] = "{}[]:,-!#\"' \nabz019\t";
    for (int e = 0; e < edits && !s.empty(); ++e) {
        std::size_t pos = rng.below(s.size());
        switch (rng.below(3)) {
          case 0: // flip
            s[pos] = alphabet[rng.below(sizeof(alphabet) - 1)];
            break;
          case 1: // delete
            s.erase(pos, 1);
            break;
          default: // insert
            s.insert(pos, 1,
                     alphabet[rng.below(sizeof(alphabet) - 1)]);
            break;
        }
    }
    return s;
}

} // namespace cimloop::fuzz
