/**
 * @file
 * Loop-nest mappings: the spatial and temporal scheduling of a workload
 * layer onto a container-hierarchy (paper Sec. II-B "Mapping").
 *
 * A mapping assigns, to every hierarchy node, per-dimension spatial and
 * temporal tiling factors plus a temporal loop permutation. The product of
 * all factors of a dimension across all nodes must equal the layer's
 * extent for that dimension.
 */
#ifndef CIMLOOP_MAPPING_MAPPING_HH
#define CIMLOOP_MAPPING_MAPPING_HH

#include <array>
#include <string>
#include <vector>

#include "cimloop/mapping/plan.hh"
#include "cimloop/spec/hierarchy.hh"
#include "cimloop/workload/layer.hh"
#include "cimloop/yaml/node.hh"

namespace cimloop::mapping {

using workload::Dim;
using workload::DimSizes;
using workload::Layer;
using workload::TensorKind;

/** A loop order with each dim at most once, outermost first; fixed size,
 *  so computing one allocates nothing. */
struct DimOrder
{
    std::array<Dim, workload::kNumDims> dims = {};
    int size = 0;

    const Dim* begin() const { return dims.data(); }
    const Dim* end() const { return dims.data() + size; }
};

/** Tiling decisions at one hierarchy node. */
struct LevelMapping
{
    /** Temporal loop factors per dimension (1 = no loop). */
    DimSizes temporal = workload::onesDims();

    /** Spatial factors per dimension; their product must fit the mesh. */
    DimSizes spatial = workload::onesDims();

    /**
     * Temporal loop order, outermost first. Dimensions with factor 1 may
     * be omitted; omitted dims with factor > 1 are appended innermost in
     * canonical (enum) order.
     */
    std::vector<Dim> order;

    /** Product of spatial factors. */
    std::int64_t spatialUsed() const;

    /** Product of temporal factors. */
    std::int64_t temporalSteps() const;

    /**
     * Temporal loop order with defaults applied: every dim with factor
     * > 1 appears exactly once, outermost first.
     */
    DimOrder effectiveOrder() const;

    /** Exact structural equality (factors and literal order lists). */
    bool operator==(const LevelMapping&) const = default;
};

/** A full mapping: one LevelMapping per hierarchy node (same order). */
struct Mapping
{
    std::vector<LevelMapping> levels;

    /** Builds an identity mapping (all factors 1) for @p hierarchy. */
    static Mapping identity(const spec::Hierarchy& hierarchy);

    /** Product of temporal steps across all levels (total timesteps). */
    std::int64_t totalSteps() const;

    /**
     * Checks this mapping against the plan's hierarchy and layer and
     * returns the first violation, in this order:
     *  - the mapping has one level per hierarchy node,
     *  - factor products per dimension equal the layer extents,
     *  - then node by node: factors are positive, spatial products fit
     *    the mesh, temporal dims honor temporal_dims, spatial dims honor
     *    spatial_dims and the hard wire-sharing rule (nodes with
     *    spatial_reuse for a tensor may only map dims irrelevant to that
     *    tensor spatially, unless flexible_spatial).
     *
     * Storage capacity is the nest analysis's verdict, not check()'s.
     */
    Violation check(const SearchPlan& plan) const;

    /** check() with the violation formatted: empty when valid, else a
     *  description of the first violation. */
    std::string check(const spec::Hierarchy& hierarchy,
                      const Layer& layer) const;

    /** Fatal wrapper around check(). */
    void validate(const spec::Hierarchy& hierarchy,
                  const Layer& layer) const;

    /** Human-readable nest listing. */
    std::string toString(const spec::Hierarchy& hierarchy) const;

    /**
     * Serializes the mapping as YAML (Timeloop-style fixed mapping):
     *
     *   mapping:
     *     - node: buffer
     *       temporal: {C: 2, P: 4}
     *       order: [C, P]
     *     - node: cells
     *       spatial: {C: 64}
     *
     * Nodes with no loops are omitted. fromYaml() reconstructs it.
     */
    std::string toYamlText(const spec::Hierarchy& hierarchy) const;

    /** Parses a mapping serialized by toYamlText(); fatal on unknown
     *  nodes/dims or malformed structure. */
    static Mapping fromYaml(const spec::Hierarchy& hierarchy,
                            const yaml::Node& doc);

    /** Parses a mapping from YAML text. */
    static Mapping fromText(const spec::Hierarchy& hierarchy,
                            const std::string& text);

    /** Exact structural equality, level by level. */
    bool operator==(const Mapping&) const = default;
};

} // namespace cimloop::mapping

#endif // CIMLOOP_MAPPING_MAPPING_HH
