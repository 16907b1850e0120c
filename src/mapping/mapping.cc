#include "cimloop/mapping/mapping.hh"

#include <sstream>

#include "cimloop/common/error.hh"
#include "cimloop/yaml/parser.hh"

namespace cimloop::mapping {

using workload::dimIndex;
using workload::dimName;
using workload::dimRelevantTo;
using workload::kAllDims;
using workload::kAllTensors;

std::int64_t
LevelMapping::spatialUsed() const
{
    std::int64_t used = 1;
    for (std::int64_t f : spatial)
        used *= f;
    return used;
}

std::int64_t
LevelMapping::temporalSteps() const
{
    std::int64_t steps = 1;
    for (std::int64_t f : temporal)
        steps *= f;
    return steps;
}

DimOrder
LevelMapping::effectiveOrder() const
{
    DimOrder out;
    DimMask placed = 0;
    auto place = [&](Dim d) {
        if (temporal[dimIndex(d)] > 1 && !(placed & dimBit(d))) {
            placed |= dimBit(d);
            out.dims[out.size++] = d;
        }
    };
    for (Dim d : order)
        place(d);
    for (Dim d : kAllDims)
        place(d);
    return out;
}

Mapping
Mapping::identity(const spec::Hierarchy& hierarchy)
{
    Mapping m;
    m.levels.resize(hierarchy.nodes.size());
    return m;
}

std::int64_t
Mapping::totalSteps() const
{
    std::int64_t steps = 1;
    for (const LevelMapping& lm : levels)
        steps *= lm.temporalSteps();
    return steps;
}

Violation
Mapping::check(const SearchPlan& plan) const
{
    using Kind = Violation::Kind;
    if (levels.size() != plan.nodes.size()) {
        return {.kind = Kind::LevelCount,
                .have = static_cast<std::int64_t>(levels.size()),
                .limit = static_cast<std::int64_t>(plan.nodes.size())};
    }

    // Factor products must reconstruct the layer extents.
    for (Dim d : kAllDims) {
        std::int64_t product = 1;
        for (const LevelMapping& lm : levels)
            product *= lm.temporal[dimIndex(d)] * lm.spatial[dimIndex(d)];
        if (product != plan.layer.size(d)) {
            return {.kind = Kind::Extent, .dim = d, .have = product,
                    .limit = plan.layer.size(d)};
        }
    }

    for (std::size_t i = 0; i < levels.size(); ++i) {
        const LevelMapping& lm = levels[i];
        const NodePlan& node = plan.nodes[i];
        const int n = static_cast<int>(i);

        for (Dim d : kAllDims) {
            if (lm.temporal[dimIndex(d)] < 1 || lm.spatial[dimIndex(d)] < 1)
                return {.kind = Kind::NonPositive, .node = n, .dim = d};
        }

        if (lm.spatialUsed() > node.fanout) {
            return {.kind = Kind::SpatialFanout, .node = n,
                    .have = lm.spatialUsed(), .limit = node.fanout};
        }

        for (Dim d : kAllDims) {
            if (lm.temporal[dimIndex(d)] > 1 &&
                !(node.temporalDims & dimBit(d)))
                return {.kind = Kind::TemporalDims, .node = n, .dim = d};
        }

        for (Dim d : kAllDims) {
            if (lm.spatial[dimIndex(d)] <= 1)
                continue;
            if (!(node.spatialDims & dimBit(d)))
                return {.kind = Kind::SpatialDims, .node = n, .dim = d};
            // Hard wire-sharing: a shared wire (spatial_reuse) cannot carry
            // distinct data, so dims relevant to the reused tensor cannot
            // be spatial here.
            if (!(node.wireDims & dimBit(d)))
                continue;
            for (TensorKind t : kAllTensors) {
                if (node.spatialReuse[spec::tensorIndex(t)] &&
                    dimRelevantTo(t, d)) {
                    return {.kind = Kind::SharedWire, .node = n, .dim = d,
                            .tensor = t};
                }
            }
        }
    }
    return {};
}

std::string
Mapping::check(const spec::Hierarchy& hierarchy, const Layer& layer) const
{
    return check(SearchPlan(hierarchy, layer)).message(hierarchy);
}

void
Mapping::validate(const spec::Hierarchy& hierarchy, const Layer& layer) const
{
    std::string problem = check(hierarchy, layer);
    if (!problem.empty())
        CIM_FATAL("invalid mapping for layer '", layer.name, "': ", problem);
}

std::string
Mapping::toYamlText(const spec::Hierarchy& hierarchy) const
{
    CIM_ASSERT(levels.size() == hierarchy.nodes.size(),
               "mapping does not match the hierarchy");
    std::ostringstream oss;
    oss << "mapping:\n";
    for (std::size_t i = 0; i < levels.size(); ++i) {
        const LevelMapping& lm = levels[i];
        bool any_temporal = lm.temporalSteps() > 1;
        bool any_spatial = lm.spatialUsed() > 1;
        if (!any_temporal && !any_spatial)
            continue;
        oss << "  - node: " << hierarchy.nodes[i].name << "\n";
        if (any_temporal) {
            oss << "    temporal: {";
            bool first = true;
            for (Dim d : kAllDims) {
                if (lm.temporal[dimIndex(d)] > 1) {
                    oss << (first ? "" : ", ") << dimName(d) << ": "
                        << lm.temporal[dimIndex(d)];
                    first = false;
                }
            }
            oss << "}\n";
            DimOrder order = lm.effectiveOrder();
            oss << "    order: [";
            for (int j = 0; j < order.size; ++j)
                oss << (j ? ", " : "") << dimName(order.dims[j]);
            oss << "]\n";
        }
        if (any_spatial) {
            oss << "    spatial: {";
            bool first = true;
            for (Dim d : kAllDims) {
                if (lm.spatial[dimIndex(d)] > 1) {
                    oss << (first ? "" : ", ") << dimName(d) << ": "
                        << lm.spatial[dimIndex(d)];
                    first = false;
                }
            }
            oss << "}\n";
        }
    }
    return oss.str();
}

Mapping
Mapping::fromYaml(const spec::Hierarchy& hierarchy, const yaml::Node& doc)
{
    Mapping m = Mapping::identity(hierarchy);
    const yaml::Node* seq = &doc;
    if (doc.isMapping() && doc.has("mapping"))
        seq = &doc["mapping"];
    if (!seq->isSequence())
        CIM_FATAL("mapping document must be a sequence of node entries");
    for (const yaml::Node& entry : seq->elements()) {
        if (!entry.isMapping() || !entry.has("node"))
            CIM_FATAL("mapping entry needs a 'node' key");
        std::string node_name = entry["node"].asString();
        int i = hierarchy.indexOf(node_name);
        if (i < 0)
            CIM_FATAL("mapping references unknown node '", node_name,
                      "'");
        LevelMapping& lm = m.levels[i];
        for (const auto& [key, value] : entry.items()) {
            if (key == "node")
                continue;
            if (key == "temporal" || key == "spatial") {
                if (!value.isMapping())
                    CIM_FATAL("mapping node '", node_name, "': ", key,
                              " must be a {dim: factor} mapping");
                for (const auto& [dk, dv] : value.items()) {
                    Dim d = workload::dimFromString(dk);
                    std::int64_t f = dv.asInt();
                    if (f < 1)
                        CIM_FATAL("mapping node '", node_name,
                                  "': factor for ", dk, " must be >= 1");
                    (key == "temporal" ? lm.temporal
                                       : lm.spatial)[dimIndex(d)] = f;
                }
            } else if (key == "order") {
                if (!value.isSequence())
                    CIM_FATAL("mapping node '", node_name,
                              "': order must be a list of dims");
                for (const yaml::Node& dn : value.elements())
                    lm.order.push_back(
                        workload::dimFromString(dn.asString()));
            } else {
                CIM_FATAL("mapping node '", node_name,
                          "': unknown key '", key, "'");
            }
        }
    }
    return m;
}

Mapping
Mapping::fromText(const spec::Hierarchy& hierarchy,
                  const std::string& text)
{
    return fromYaml(hierarchy, yaml::parse(text));
}

std::string
Mapping::toString(const spec::Hierarchy& hierarchy) const
{
    std::ostringstream oss;
    for (std::size_t i = 0; i < levels.size(); ++i) {
        const LevelMapping& lm = levels[i];
        const spec::SpecNode& node =
            i < hierarchy.nodes.size() ? hierarchy.nodes[i] : spec::SpecNode{};
        bool any = false;
        std::ostringstream line;
        line << node.name << ": ";
        for (Dim d : lm.effectiveOrder()) {
            line << "for " << dimName(d) << " in 0.."
                 << lm.temporal[dimIndex(d)] << " ";
            any = true;
        }
        for (Dim d : kAllDims) {
            if (lm.spatial[dimIndex(d)] > 1) {
                line << "par-for " << dimName(d) << " in 0.."
                     << lm.spatial[dimIndex(d)] << " ";
                any = true;
            }
        }
        if (any)
            oss << line.str() << "\n";
    }
    return oss.str();
}

} // namespace cimloop::mapping
