#include "cimloop/layout/layout.hh"

#include <algorithm>
#include <sstream>

#include "cimloop/common/error.hh"
#include "cimloop/models/component.hh"
#include "cimloop/yaml/node.hh"
#include "cimloop/yaml/parser.hh"

namespace cimloop::layout {

using workload::Dim;
using workload::TensorKind;

namespace {

constexpr std::int64_t kMaxBanks = 4096;
constexpr std::int64_t kMaxInterleave = 1 << 20;

bool
endsWith(const std::string& s, const std::string& suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

} // namespace

std::vector<Dim>
tensorRankDims(TensorKind t)
{
    switch (t) {
      case TensorKind::Input:
        // Halo'd spatial extents: R and S fold into P and Q.
        return {Dim::N, Dim::C, Dim::P, Dim::Q, Dim::IB};
      case TensorKind::Weight:
        return {Dim::K, Dim::C, Dim::R, Dim::S, Dim::WB};
      case TensorKind::Output:
        return {Dim::N, Dim::K, Dim::P, Dim::Q};
    }
    CIM_PANIC("unknown tensor kind");
}

void
LayoutSpec::validate() const
{
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const NodeLayout& nl = nodes[i];
        if (nl.node.empty())
            CIM_FATAL("layout.nodes[", i, "].node must name a hierarchy "
                      "node");
        for (std::size_t k = i + 1; k < nodes.size(); ++k) {
            if (nodes[k].node == nl.node)
                CIM_FATAL("layout.nodes[", k, "]: duplicate entry for "
                          "node '", nl.node, "'");
        }
        if (nl.tensors.empty())
            CIM_FATAL("layout.nodes[", i, "].tensors must list at least "
                      "one tensor layout");
        for (std::size_t j = 0; j < nl.tensors.size(); ++j) {
            const TensorLayout& tl = nl.tensors[j];
            const std::string path = "layout.nodes[" + std::to_string(i) +
                                     "].tensors[" + std::to_string(j) + "]";
            for (std::size_t k = j + 1; k < nl.tensors.size(); ++k) {
                if (nl.tensors[k].tensor == tl.tensor)
                    CIM_FATAL("layout.nodes[", i, "].tensors[", k,
                              "]: duplicate entry for tensor ",
                              workload::tensorName(tl.tensor));
            }
            if (tl.banks < 1 || tl.banks > kMaxBanks)
                CIM_FATAL(path, ".banks must be within [1, ", kMaxBanks,
                          "], got ", tl.banks);
            if (tl.interleave < 1 || tl.interleave > kMaxInterleave)
                CIM_FATAL(path, ".interleave must be within [1, ",
                          kMaxInterleave, "], got ", tl.interleave);
            std::vector<Dim> ranks = tensorRankDims(tl.tensor);
            for (std::size_t k = 0; k < tl.rankOrder.size(); ++k) {
                Dim d = tl.rankOrder[k];
                if (std::find(ranks.begin(), ranks.end(), d) == ranks.end())
                    CIM_FATAL(path, ".rank_order: ", workload::dimName(d),
                              " is not an index dimension of ",
                              workload::tensorName(tl.tensor),
                              " (Inputs fold R/S into the halo'd P/Q)");
                for (std::size_t m = k + 1; m < tl.rankOrder.size(); ++m) {
                    if (tl.rankOrder[m] == d)
                        CIM_FATAL(path, ".rank_order lists ",
                                  workload::dimName(d), " twice");
                }
            }
        }
    }
}

std::string
LayoutSpec::summary() const
{
    if (empty())
        return "none (idealized, conflict-free)";
    std::ostringstream oss;
    oss << name << " {";
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (i)
            oss << "; ";
        oss << nodes[i].node << ":";
        for (std::size_t j = 0; j < nodes[i].tensors.size(); ++j) {
            const TensorLayout& tl = nodes[i].tensors[j];
            oss << (j ? "," : "") << " "
                << workload::tensorName(tl.tensor) << " banks=" << tl.banks;
            if (tl.interleave != 1)
                oss << " il=" << tl.interleave;
            if (!tl.rankOrder.empty()) {
                oss << " order=[";
                for (std::size_t k = 0; k < tl.rankOrder.size(); ++k)
                    oss << (k ? " " : "")
                        << workload::dimName(tl.rankOrder[k]);
                oss << "]";
            }
        }
    }
    oss << "}";
    return oss.str();
}

namespace {

TensorLayout
tensorLayoutFromYaml(const yaml::Node& map, const std::string& path)
{
    if (!map.isMapping())
        CIM_FATAL(path, " must be a YAML mapping (tensor, rank_order, "
                  "banks, interleave)");
    TensorLayout tl;
    bool have_tensor = false;
    auto integer = [&path](const std::string& key,
                           const yaml::Node& value) -> std::int64_t {
        try {
            return value.asInt();
        } catch (const FatalError& e) {
            CIM_FATAL(path, ".", key, ": ", e.what());
        }
    };
    for (const auto& [key, value] : map.items()) {
        if (key == "tensor") {
            tl.tensor = workload::tensorFromString(value.asString());
            have_tensor = true;
        } else if (key == "rank_order") {
            if (!value.isSequence())
                CIM_FATAL(path, ".rank_order must be a sequence of "
                          "dimension names");
            for (const yaml::Node& el : value.elements())
                tl.rankOrder.push_back(
                    workload::dimFromString(el.asString()));
        } else if (key == "banks") {
            tl.banks = integer(key, value);
        } else if (key == "interleave") {
            tl.interleave = integer(key, value);
        } else {
            CIM_FATAL("unknown layout key '", path, ".", key,
                      "' (known: tensor, rank_order, banks, interleave)");
        }
    }
    if (!have_tensor)
        CIM_FATAL(path, " must name its tensor (Inputs, Weights, or "
                  "Outputs)");
    return tl;
}

NodeLayout
nodeLayoutFromYaml(const yaml::Node& map, const std::string& path)
{
    if (!map.isMapping())
        CIM_FATAL(path, " must be a YAML mapping (node, tensors)");
    NodeLayout nl;
    for (const auto& [key, value] : map.items()) {
        if (key == "node") {
            nl.node = value.asString();
        } else if (key == "tensors") {
            if (!value.isSequence())
                CIM_FATAL(path, ".tensors must be a sequence of tensor "
                          "layouts");
            const auto& els = value.elements();
            for (std::size_t j = 0; j < els.size(); ++j) {
                nl.tensors.push_back(tensorLayoutFromYaml(
                    els[j], path + ".tensors[" + std::to_string(j) + "]"));
            }
        } else {
            CIM_FATAL("unknown layout key '", path, ".", key,
                      "' (known: node, tensors)");
        }
    }
    return nl;
}

} // namespace

LayoutSpec
LayoutSpec::fromYaml(const yaml::Node& node)
{
    if (!node.isMapping())
        CIM_FATAL("layout spec must be a YAML mapping holding a 'layout:' "
                  "key or the layout keys themselves (name, nodes)");
    const yaml::Node* body = node.find("layout");
    const yaml::Node& map = body ? *body : node;
    if (!map.isMapping())
        CIM_FATAL("'layout' must hold a YAML mapping of layout keys, not "
                  "a scalar or sequence");

    LayoutSpec spec;
    for (const auto& [key, value] : map.items()) {
        if (key == "name") {
            spec.name = value.asString();
        } else if (key == "nodes") {
            if (!value.isSequence())
                CIM_FATAL("layout.nodes must be a sequence of per-node "
                          "layouts");
            const auto& els = value.elements();
            for (std::size_t i = 0; i < els.size(); ++i) {
                spec.nodes.push_back(nodeLayoutFromYaml(
                    els[i], "layout.nodes[" + std::to_string(i) + "]"));
            }
        } else {
            CIM_FATAL("unknown layout spec key 'layout.", key,
                      "' (known: name, nodes)");
        }
    }
    spec.validate();
    return spec;
}

LayoutSpec
LayoutSpec::fromFile(const std::string& path)
{
    return fromYaml(yaml::parseFile(path));
}

ResolvedLayout
resolveLayout(const spec::Hierarchy& hierarchy, const LayoutSpec& spec)
{
    spec.validate();
    ResolvedLayout resolved;
    resolved.slots.assign(hierarchy.nodes.size(), {-1, -1, -1});
    for (std::size_t i = 0; i < spec.nodes.size(); ++i) {
        const NodeLayout& nl = spec.nodes[i];
        int node_index = hierarchy.indexOf(nl.node);
        if (node_index < 0)
            CIM_FATAL("layout.nodes[", i, "]: hierarchy '", hierarchy.name,
                      "' has no node named '", nl.node, "'");
        const spec::SpecNode& node =
            hierarchy.nodes[static_cast<std::size_t>(node_index)];
        for (const TensorLayout& tl : nl.tensors) {
            if (!node.stores(tl.tensor))
                CIM_FATAL("layout.nodes[", i, "]: node '", nl.node,
                          "' does not store ",
                          workload::tensorName(tl.tensor),
                          " (layouts describe stored dataspaces)");
            resolved.slots[static_cast<std::size_t>(node_index)]
                          [spec::tensorIndex(tl.tensor)] =
                static_cast<int>(resolved.tensors.size());
            resolved.tensors.push_back(tl);
            resolved.any = true;
        }
    }
    return resolved;
}

bool
layoutEligible(const spec::SpecNode& node)
{
    const models::Role role = models::modelFor(node).traits().role;
    if (role != models::Role::Buffer && role != models::Role::OffChip)
        return false;
    for (TensorKind t : workload::kAllTensors) {
        if (node.stores(t))
            return true;
    }
    return false;
}

namespace {

/** One candidate: every eligible node, every stored tensor, uniformly. */
LayoutSpec
uniformLayout(const spec::Hierarchy& hierarchy, const std::string& name,
              std::int64_t banks, std::int64_t interleave, bool reversed)
{
    LayoutSpec spec;
    spec.name = name;
    for (const spec::SpecNode& node : hierarchy.nodes) {
        if (!layoutEligible(node))
            continue;
        NodeLayout nl;
        nl.node = node.name;
        for (TensorKind t : workload::kAllTensors) {
            if (!node.stores(t))
                continue;
            TensorLayout tl;
            tl.tensor = t;
            tl.banks = banks;
            tl.interleave = interleave;
            if (reversed) {
                tl.rankOrder = tensorRankDims(t);
                std::reverse(tl.rankOrder.begin(), tl.rankOrder.end());
            }
            nl.tensors.push_back(tl);
        }
        spec.nodes.push_back(std::move(nl));
    }
    return spec;
}

} // namespace

LayoutSpec
defaultLayout(const spec::Hierarchy& hierarchy)
{
    return uniformLayout(hierarchy, "default", 1, 1, false);
}

std::vector<LayoutSpec>
enumerateLayouts(const spec::Hierarchy& hierarchy)
{
    // Fixed candidate set and order: part of the determinism contract.
    // Candidate 0 is the naive baseline the co-search must beat.
    std::vector<LayoutSpec> out;
    LayoutSpec base = defaultLayout(hierarchy);
    if (base.empty())
        return out;
    out.push_back(std::move(base));
    out.push_back(uniformLayout(hierarchy, "banked2", 2, 1, false));
    out.push_back(uniformLayout(hierarchy, "banked4", 4, 1, false));
    out.push_back(uniformLayout(hierarchy, "banked8", 8, 1, false));
    out.push_back(uniformLayout(hierarchy, "banked4-rev", 4, 1, true));
    out.push_back(uniformLayout(hierarchy, "banked8-rev", 8, 1, true));
    out.push_back(uniformLayout(hierarchy, "banked8-i4", 8, 4, false));
    return out;
}

std::string
presetNames()
{
    return "default, banked2, banked4, banked8, banked4-rev, banked8-rev, "
           "banked8-i4";
}

LayoutSpec
presetLayout(const std::string& name, const spec::Hierarchy& hierarchy)
{
    struct Preset
    {
        const char* name;
        std::int64_t banks;
        std::int64_t interleave;
        bool reversed;
    };
    static constexpr Preset kPresets[] = {
        {"default", 1, 1, false},    {"banked2", 2, 1, false},
        {"banked4", 4, 1, false},    {"banked8", 8, 1, false},
        {"banked4-rev", 4, 1, true}, {"banked8-rev", 8, 1, true},
        {"banked8-i4", 8, 4, false},
    };
    for (const Preset& p : kPresets) {
        if (name == p.name)
            return uniformLayout(hierarchy, p.name, p.banks, p.interleave,
                                 p.reversed);
    }
    CIM_FATAL("unknown layout preset '", name, "' (known: ", presetNames(),
              ", or a .yaml layout spec file)");
}

bool
isLayoutValueName(const std::string& name)
{
    if (name == "none" || name == "search" || name == "default")
        return true;
    if (endsWith(name, ".yaml") || endsWith(name, ".yml"))
        return true;
    static const char* kNames[] = {"banked2",     "banked4",
                                   "banked8",     "banked4-rev",
                                   "banked8-rev", "banked8-i4"};
    for (const char* n : kNames) {
        if (name == n)
            return true;
    }
    return false;
}

} // namespace cimloop::layout
