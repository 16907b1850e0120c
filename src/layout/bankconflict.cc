#include "cimloop/layout/bankconflict.hh"

#include <algorithm>
#include <vector>

#include "cimloop/common/error.hh"

namespace cimloop::layout {

using workload::Dim;
using workload::DimSizes;
using workload::TensorKind;
using workload::dimIndex;

namespace {

/**
 * Tile extent and requester count of one physical rank. Inputs fold the
 * R/S reduction loops into the halo'd P/Q extents, matching the tensor
 * projection Inputs[n][c][p + r][q + s][ib].
 */
void
foldRank(TensorKind t, Dim d, const DimSizes& below,
         const DimSizes& parallel, std::int64_t& extent, std::int64_t& fan)
{
    extent = below[dimIndex(d)];
    fan = parallel[dimIndex(d)];
    if (t == TensorKind::Input && d == Dim::P) {
        extent = below[dimIndex(Dim::P)] + below[dimIndex(Dim::R)] - 1;
        fan = parallel[dimIndex(Dim::P)] * parallel[dimIndex(Dim::R)];
    } else if (t == TensorKind::Input && d == Dim::Q) {
        extent = below[dimIndex(Dim::Q)] + below[dimIndex(Dim::S)] - 1;
        fan = parallel[dimIndex(Dim::Q)] * parallel[dimIndex(Dim::S)];
    }
}

} // namespace

double
bankConflictSlowdown(const TensorLayout& tl, const DimSizes& below,
                     const DimSizes& parallel)
{
    const std::vector<Dim> canonical = tensorRankDims(tl.tensor);

    // Physical rank order: canonical ranks not listed stay outermost (in
    // canonical order); listed ranks move innermost, last listed fastest.
    std::vector<Dim> physical;
    physical.reserve(canonical.size());
    for (Dim d : canonical) {
        if (std::find(tl.rankOrder.begin(), tl.rankOrder.end(), d) ==
            tl.rankOrder.end())
            physical.push_back(d);
    }
    physical.insert(physical.end(), tl.rankOrder.begin(),
                    tl.rankOrder.end());

    // Element stride of each rank: product of the extents inside it.
    const std::size_t nr = physical.size();
    std::vector<std::int64_t> extent(nr), fan(nr), stride(nr);
    std::int64_t cum = 1;
    for (std::size_t r = nr; r-- > 0;) {
        foldRank(tl.tensor, physical[r], below, parallel, extent[r],
                 fan[r]);
        stride[r] = cum;
        cum *= std::max<std::int64_t>(extent[r], 1);
    }

    double requesters = 1.0;
    for (std::size_t r = 0; r < nr; ++r)
        requesters *= static_cast<double>(std::max<std::int64_t>(fan[r], 1));
    if (requesters <= 1.0)
        return 1.0; // a lone requester never conflicts

    // Distinct banks the requesters spread over. Parallel instances
    // along one rank own contiguous sub-tiles, so their base addresses
    // are separated by stride x sub-tile elements; the bank of element
    // a is floor(a / interleave) mod banks. Ranks are independent, so
    // the joint spread is the product, capped by the bank count (and by
    // the requester count — you cannot occupy more banks than requests).
    const std::int64_t banks = std::max<std::int64_t>(tl.banks, 1);
    const std::int64_t il = std::max<std::int64_t>(tl.interleave, 1);
    double distinct = 1.0;
    std::vector<char> seen(static_cast<std::size_t>(banks));
    for (std::size_t r = 0; r < nr && distinct < requesters; ++r) {
        if (fan[r] <= 1)
            continue;
        std::int64_t sep =
            stride[r] * std::max<std::int64_t>(extent[r] / fan[r], 1);
        std::fill(seen.begin(), seen.end(), 0);
        std::int64_t touched = 0;
        for (std::int64_t k = 0; k < fan[r]; ++k) {
            std::int64_t bank = (k * sep / il) % banks;
            if (!seen[static_cast<std::size_t>(bank)]) {
                seen[static_cast<std::size_t>(bank)] = 1;
                if (++touched == banks)
                    break; // all banks covered; no more spread possible
            }
        }
        distinct *= static_cast<double>(touched);
    }
    distinct = std::min(distinct, static_cast<double>(banks));
    distinct = std::min(distinct, requesters);

    // Serialize the worst bank: ceil(R / D) extra-cycle multiplier.
    double slowdown =
        static_cast<double>(static_cast<std::int64_t>(
            (requesters + distinct - 1.0) / distinct));
    return std::max(slowdown, 1.0);
}

spec::PerTensor<double>
bankConflictSlowdowns(const ResolvedLayout& layout,
                      const spec::Hierarchy& hierarchy,
                      std::size_t node_index,
                      const mapping::Mapping& mapping)
{
    CIM_ASSERT(mapping.levels.size() == hierarchy.nodes.size(),
               "mapping does not match the hierarchy");
    spec::PerTensor<double> slow = {1.0, 1.0, 1.0};
    if (node_index >= layout.slots.size() || !layout.nodeAny(node_index))
        return slow;

    // Tile extents covered inside the node, and the spatial fanout that
    // makes the concurrent requesters (same decomposition the nest
    // analysis uses for tile sizing).
    DimSizes below = workload::onesDims();
    DimSizes parallel = workload::onesDims();
    for (std::size_t j = node_index + 1; j < mapping.levels.size(); ++j) {
        const mapping::LevelMapping& lm = mapping.levels[j];
        for (Dim d : workload::kAllDims) {
            below[dimIndex(d)] *=
                lm.temporal[dimIndex(d)] * lm.spatial[dimIndex(d)];
            parallel[dimIndex(d)] *= lm.spatial[dimIndex(d)];
        }
    }

    for (TensorKind t : workload::kAllTensors) {
        const TensorLayout* tl = layout.at(node_index, t);
        if (tl)
            slow[spec::tensorIndex(t)] =
                bankConflictSlowdown(*tl, below, parallel);
    }
    return slow;
}

} // namespace cimloop::layout
