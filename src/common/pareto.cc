#include "cimloop/common/pareto.hh"

#include <algorithm>
#include <utility>

#include "cimloop/common/error.hh"

namespace cimloop {

ParetoFront::Insertion
ParetoFront::insert(std::size_t index, const std::vector<double>& row)
{
    CIM_ASSERT(row.size() == dims_,
               "pareto rows must have equal dimensionality");
    auto dominates = [this](const std::vector<double>& a,
                            const std::vector<double>& b) {
        bool strict = false;
        for (std::size_t k = 0; k < dims_; ++k) {
            if (a[k] > b[k])
                return false;
            if (a[k] < b[k])
                strict = true;
        }
        return strict;
    };
    Insertion out;
    for (const Member& m : members_) {
        if (dominates(m.row, row))
            return out;
    }
    std::size_t w = 0;
    for (std::size_t r = 0; r < members_.size(); ++r) {
        if (dominates(row, members_[r].row)) {
            out.evicted.push_back(members_[r].index);
            continue;
        }
        if (w != r) // self-move would empty the row
            members_[w] = std::move(members_[r]);
        ++w;
    }
    members_.resize(w);
    members_.push_back({index, row});
    out.added = true;
    return out;
}

std::vector<std::size_t>
ParetoFront::indices() const
{
    std::vector<std::size_t> out;
    out.reserve(members_.size());
    for (const Member& m : members_)
        out.push_back(m.index);
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace cimloop
