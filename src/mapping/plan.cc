#include "cimloop/mapping/plan.hh"

#include <algorithm>
#include <sstream>

#include "cimloop/common/error.hh"
#include "cimloop/common/util.hh"

namespace cimloop::mapping {

using spec::SpecNode;
using spec::tensorIndex;
using workload::dimIndex;
using workload::dimName;
using workload::dimRelevantTo;
using workload::kAllDims;
using workload::kAllTensors;

namespace {

/** Mask of a node's dim-list constraint; empty means every dim. */
DimMask
constraintMask(const std::vector<Dim>& dims)
{
    if (dims.empty())
        return kAllDimsMask;
    DimMask mask = 0;
    for (Dim d : dims)
        mask |= dimBit(d);
    return mask;
}

} // namespace

std::string
Violation::message(const spec::Hierarchy& hierarchy) const
{
    if (kind == Kind::None)
        return "";
    std::ostringstream err;
    auto node_name = [&]() -> const std::string& {
        return hierarchy.nodes[node].name;
    };
    switch (kind) {
      case Kind::None:
        break;
      case Kind::LevelCount:
        err << "mapping has " << have << " levels but hierarchy '"
            << hierarchy.name << "' has " << limit << " nodes";
        break;
      case Kind::Extent:
        err << "dimension " << dimName(dim) << ": factors multiply to "
            << have << " but layer has extent " << limit;
        break;
      case Kind::NonPositive:
        err << "node '" << node_name() << "': non-positive factor for "
            << dimName(dim);
        break;
      case Kind::SpatialFanout:
        err << "node '" << node_name() << "': spatial factors use " << have
            << " instances but the mesh has only " << limit;
        break;
      case Kind::TemporalDims:
        err << "node '" << node_name() << "': dimension " << dimName(dim)
            << " is not in the node's temporal_dims constraint";
        break;
      case Kind::SpatialDims:
        err << "node '" << node_name() << "': dimension " << dimName(dim)
            << " is not in the node's spatial_dims constraint";
        break;
      case Kind::SharedWire:
        err << "node '" << node_name() << "': "
            << workload::tensorName(tensor)
            << " is spatially reused (shared wire) but " << dimName(dim)
            << " would put distinct data on the wire";
        break;
      case Kind::Capacity:
        err << "node '" << node_name() << "': tile of " << have
            << " entries exceeds capacity " << limit;
        break;
    }
    return err.str();
}

SearchPlan::SearchPlan(const spec::Hierarchy& hierarchy, const Layer& l)
    : layer(l)
{
    for (TensorKind t : kAllTensors) {
        for (Dim d : kAllDims) {
            if (dimRelevantTo(t, d))
                relevant[tensorIndex(t)] |= dimBit(d);
        }
    }

    const int num_nodes = static_cast<int>(hierarchy.nodes.size());
    nodes.resize(num_nodes);
    hosts.reserve(num_nodes);
    for (std::vector<int>& s : storages)
        s.reserve(num_nodes);
    for (int i = 0; i < num_nodes; ++i) {
        const SpecNode& node = hierarchy.nodes[i];
        NodePlan& np = nodes[i];
        np.fanout = node.spatialFanout();
        np.temporalDims = constraintMask(node.temporalDims);
        np.spatialDims = constraintMask(node.spatialDims);
        bool stores_any = false;
        for (TensorKind t : kAllTensors) {
            const int ti = tensorIndex(t);
            np.directive[ti] = node.directiveFor(t);
            np.stores[ti] = node.stores(t);
            np.spatialReuse[ti] = node.spatialReuse[ti];
            np.reusesSpatially[ti] =
                node.spatialReuse[ti] || node.flexibleSpatial;
            if (np.spatialReuse[ti] && !node.flexibleSpatial)
                np.wireDims |= relevant[ti];
            if (np.stores[ti])
                storages[ti].push_back(i);
            stores_any = stores_any || np.stores[ti];
        }
        for (Dim d : kAllDims) {
            if ((np.spatialDims & dimBit(d)) && !(np.wireDims & dimBit(d)))
                np.spatialCandidates[np.numSpatialCandidates++] = d;
        }
        np.hasEntries = node.hasAttr("entries");
        np.entries = node.attrInt("entries", 0);
        np.idleFraction = node.attrDouble("idle_fraction", 0.0);
        if (stores_any || i == 0)
            hosts.push_back(i);
    }

    for (Dim d : kAllDims) {
        int& taker = restTaker[dimIndex(d)];
        taker = -1;
        for (int i : hosts) {
            if (nodes[i].temporalDims & dimBit(d)) {
                taker = i;
                break;
            }
        }
    }
}

DivisorTable::DivisorTable(const Layer& layer)
{
    // The divisors of a divisor v of the extent are the extent's
    // divisors that divide v.
    static const std::vector<std::int64_t> kNone;
    for (Dim d : kAllDims) {
        const std::int64_t extent = layer.size(d);
        const std::vector<std::int64_t>& ext =
            extent >= 1 ? divisorsOf(extent) : kNone;
        extent_divisors[dimIndex(d)] = &ext;
        first_range[dimIndex(d)] =
            static_cast<std::uint32_t>(list_ranges.size());
        for (std::int64_t v : ext) {
            const auto first = static_cast<std::uint32_t>(list_values.size());
            for (std::int64_t e : ext) {
                if (e > v)
                    break;
                if (v % e == 0)
                    list_values.push_back(e);
            }
            list_ranges.emplace_back(
                first, static_cast<std::uint32_t>(list_values.size()) - first);
        }
    }
}

std::span<const std::int64_t>
DivisorTable::of(Dim d, std::int64_t n) const
{
    const std::vector<std::int64_t>& ext = *extent_divisors[dimIndex(d)];
    auto it = std::lower_bound(ext.begin(), ext.end(), n);
    CIM_ASSERT(it != ext.end() && *it == n, n,
               " does not divide the layer extent of ", dimName(d));
    auto [first, size] =
        list_ranges[first_range[dimIndex(d)] + (it - ext.begin())];
    return {list_values.data() + first, size};
}

} // namespace cimloop::mapping
