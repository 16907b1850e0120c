/**
 * @file
 * The per-layer search plan: everything the mapping-search inner loop
 * needs about one (hierarchy, layer) pair, resolved once.
 *
 * The mapper samples, check() validates, and the nest analysis and
 * evaluate() count thousands of mappings per layer. Nothing in here
 * depends on the mapping, so the plan resolves node attributes, mapping
 * constraints and tensor relevance once (and DivisorTable the divisor
 * lists the sampler draws from), and the per-sample work reads flat
 * arrays and bitmasks instead of strings, maps and fresh vectors.
 *
 * Violations are typed (Violation) and turned into text only when a
 * reason is reported (Violation::message).
 */
#ifndef CIMLOOP_MAPPING_PLAN_HH
#define CIMLOOP_MAPPING_PLAN_HH

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cimloop/spec/hierarchy.hh"
#include "cimloop/workload/layer.hh"

namespace cimloop::mapping {

using workload::Dim;
using workload::Layer;
using workload::TensorKind;

/** A set of dims: bit dimIndex(d) set when d is in the set. */
using DimMask = std::uint16_t;

/** The single-dim mask of @p d. */
constexpr DimMask
dimBit(Dim d)
{
    return static_cast<DimMask>(1u << workload::dimIndex(d));
}

/** Every dim. */
constexpr DimMask kAllDimsMask = (1u << workload::kNumDims) - 1;

/** The first way a mapping fails its hierarchy and layer. */
struct Violation
{
    enum class Kind {
        None,            //!< valid
        LevelCount,      //!< levels != nodes (have, limit)
        Extent,          //!< dim's factors multiply to have, not limit
        NonPositive,     //!< a factor of dim at node is < 1
        SpatialFanout,   //!< node's spatial factors use have > limit
        TemporalDims,    //!< dim not in node's temporal_dims
        SpatialDims,     //!< dim not in node's spatial_dims
        SharedWire,      //!< spatial dim relevant to a wire-shared tensor
        Capacity,        //!< node's stored tiles occupy have > limit
    };

    Kind kind = Kind::None;
    int node = -1;
    Dim dim = Dim::N;
    TensorKind tensor = TensorKind::Input;
    std::int64_t have = 0;
    std::int64_t limit = 0;

    /** True when this is a violation (not Kind::None). */
    explicit operator bool() const { return kind != Kind::None; }

    /** The reason text; empty for Kind::None. */
    std::string message(const spec::Hierarchy& hierarchy) const;
};

/** One hierarchy node, resolved for the search. */
struct NodePlan
{
    std::int64_t fanout = 1;              //!< spatial instances
    DimMask temporalDims = kAllDimsMask;  //!< temporal_dims (all if unset)
    DimMask spatialDims = kAllDimsMask;   //!< spatial_dims (all if unset)

    /** Dims a shared wire cannot map spatially: relevant to a tensor
     *  with spatial_reuse, unless the node is flexible_spatial. */
    DimMask wireDims = 0;

    /** Dims the sampler may map spatially (spatialDims minus
     *  wireDims), in canonical order. */
    std::array<Dim, workload::kNumDims> spatialCandidates = {};
    int numSpatialCandidates = 0;

    spec::PerTensor<spec::TemporalDirective> directive = {};
    spec::PerTensor<bool> stores = {};       //!< temporal_reuse
    spec::PerTensor<bool> spatialReuse = {}; //!< shared wire
    /** Multicast/reduction across the mesh: spatial_reuse or
     *  flexible_spatial. */
    spec::PerTensor<bool> reusesSpatially = {};

    bool hasEntries = false;      //!< an "entries" capacity is set
    std::int64_t entries = 0;     //!< per-instance capacity, slice units
    double idleFraction = 0.0;    //!< "idle_fraction" attribute
};

/**
 * Everything the search inner loop needs about one (hierarchy, layer)
 * pair. Immutable after construction, so concurrent search shards share
 * one plan. Holds a reference: @p layer must outlive it.
 */
struct SearchPlan
{
    SearchPlan(const spec::Hierarchy& hierarchy, const Layer& layer);

    const Layer& layer;

    std::vector<NodePlan> nodes; //!< parallel to hierarchy.nodes

    /** Temporal-loop hosts, outermost first: storage nodes plus node 0. */
    std::vector<int> hosts;

    /** Per dim, the outermost host whose temporal_dims permit it (the
     *  node that takes what is left of the dim), or -1. */
    std::array<int, workload::kNumDims> restTaker = {};

    /** Per tensor, the dims that index it. */
    spec::PerTensor<DimMask> relevant = {};

    /** Per tensor, its storage nodes, outermost first. */
    spec::PerTensor<std::vector<int>> storages;

};

/**
 * Divisor lists for a layer's mapspace: for every dim, the divisors of
 * every divisor of its extent. Every remainder the mapper splits divides
 * the extent, so sampling, greedy() and exhaustive() look divisors up
 * here instead of in divisorsOf()'s locked, hashed cache. The Mapper
 * builds one next to its plan; the one-shot analyzeNest()/evaluate()
 * wrappers, which build a plan per call, need no divisors.
 */
class DivisorTable
{
  public:
    explicit DivisorTable(const Layer& layer);

    /** Ascending divisors of @p n, which must divide the layer extent
     *  of @p d. */
    std::span<const std::int64_t> of(Dim d, std::int64_t n) const;

  private:
    /** Per dim, the ascending divisors of the extent (divisorsOf's
     *  cache entry; empty for an extent below 1). */
    std::array<const std::vector<std::int64_t>*, workload::kNumDims>
        extent_divisors = {};

    /** Divisor lists of every divisor of every extent, back to back:
     *  the list of the k-th divisor of dim d is the range
     *  list_ranges[first_range[d] + k] of list_values. */
    std::vector<std::int64_t> list_values;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> list_ranges;
    std::array<std::uint32_t, workload::kNumDims> first_range = {};
};

} // namespace cimloop::mapping

#endif // CIMLOOP_MAPPING_PLAN_HH
