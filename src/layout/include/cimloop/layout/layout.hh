/**
 * @file
 * Physical data layouts for storage nodes.
 *
 * The engine's default buffer model is idealized: every concurrent
 * requester is served in the same cycle. Real SRAM/DRAM buffers are
 * banked, and how a dataspace is physically linearized decides whether
 * parallel requests spread over banks or pile onto one (LayoutLoop /
 * SquareLoop). A LayoutSpec makes that physical choice explicit:
 *
 *   layout:
 *     name: banked4
 *     nodes:
 *       - node: buffer
 *         tensors:
 *           - tensor: Inputs
 *             rank_order: [C]    # dims pulled innermost (contiguous)
 *             banks: 4           # independent banks (default 1)
 *             interleave: 1      # elements per bank line (default 1)
 *
 * Per tensor, the physical order starts from the canonical rank order
 * of the tensor's index dimensions; dims listed in rank_order are
 * pulled out and placed innermost (last listed = fastest varying).
 * `banks` is the number of independently addressable banks; addresses
 * interleave over banks in lines of `interleave` elements.
 *
 * An empty LayoutSpec means "no physical layout modeled": the engine
 * keeps its idealized conflict-free buffers and produces byte-identical
 * results to a build without this subsystem.
 */
#ifndef CIMLOOP_LAYOUT_LAYOUT_HH
#define CIMLOOP_LAYOUT_LAYOUT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cimloop/spec/hierarchy.hh"
#include "cimloop/workload/layer.hh"

namespace cimloop::yaml {
class Node;
} // namespace cimloop::yaml

namespace cimloop::layout {

/**
 * Index dimensions of one tensor, canonical (enum) order. Inputs are
 * indexed by their halo'd spatial extents, so R and S fold into P and Q
 * rather than appearing as ranks of their own.
 */
std::vector<workload::Dim> tensorRankDims(workload::TensorKind t);

/** Physical placement of one dataspace within one storage node. */
struct TensorLayout
{
    workload::TensorKind tensor = workload::TensorKind::Input;

    /**
     * Dims pulled innermost, outermost-listed first (the last listed dim
     * is contiguous). Dims not listed stay outside in canonical order.
     * Every listed dim must be an index dim of the tensor (see
     * tensorRankDims); empty = fully canonical order.
     */
    std::vector<workload::Dim> rankOrder;

    std::int64_t banks = 1;      //!< independent banks, [1, 4096]
    std::int64_t interleave = 1; //!< elements per bank line, >= 1
};

/** Layouts for the dataspaces one storage node holds. */
struct NodeLayout
{
    std::string node; //!< hierarchy node name
    std::vector<TensorLayout> tensors;
};

/** A complete physical-layout specification for an architecture. */
struct LayoutSpec
{
    std::string name = "layout";
    std::vector<NodeLayout> nodes;

    /** True when no layout is specified (idealized buffers). */
    bool empty() const { return nodes.empty(); }

    /** Checks ranges and per-tensor rank validity. Fatal with
     *  `layout.nodes[i].tensors[j].<key>` paths on violation. */
    void validate() const;

    /** Compact one-line description for reports and CLI output. */
    std::string summary() const;

    /**
     * Parses a spec from a YAML mapping holding a `layout:` key or the
     * layout keys themselves (name, nodes). Fatal on unknown keys,
     * with the offending key path attached.
     */
    static LayoutSpec fromYaml(const yaml::Node& node);

    /** Loads a spec from a YAML file. */
    static LayoutSpec fromFile(const std::string& path);
};

/**
 * A LayoutSpec resolved against a hierarchy: one per-tensor slot per
 * hierarchy node, index-aligned with hierarchy.nodes. Slots without a
 * layout are -1. Resolution is fatal when a spec names an unknown node,
 * a node that stores no tensors, or a tensor the node does not store.
 */
struct ResolvedLayout
{
    /** Indices into `tensors`, or -1; [node][tensorIndex]. */
    std::vector<spec::PerTensor<int>> slots;
    std::vector<TensorLayout> tensors;
    bool any = false; //!< at least one (node, tensor) has a layout

    const TensorLayout*
    at(std::size_t node, workload::TensorKind t) const
    {
        int s = slots[node][spec::tensorIndex(t)];
        return s >= 0 ? &tensors[static_cast<std::size_t>(s)] : nullptr;
    }

    /** True when node @p i lays out at least one tensor. */
    bool
    nodeAny(std::size_t i) const
    {
        return slots[i][0] >= 0 || slots[i][1] >= 0 || slots[i][2] >= 0;
    }
};

/** Resolves @p spec against @p hierarchy (validates the spec first). */
ResolvedLayout resolveLayout(const spec::Hierarchy& hierarchy,
                             const LayoutSpec& spec);

/**
 * True when @p node can carry a physical layout: a buffer or off-chip
 * component (models::ComponentTraits::role) that stores at least one
 * tensor. Cell arrays, registers and pass-through components are not
 * banked memories.
 */
bool layoutEligible(const spec::SpecNode& node);

/**
 * The naive physical layout: canonical rank order, one bank, for every
 * eligible node and every tensor it stores. This is the baseline a
 * co-search must beat — all concurrent requesters serialize on the
 * single bank.
 */
LayoutSpec defaultLayout(const spec::Hierarchy& hierarchy);

/**
 * Deterministic layout candidate set for co-search, in a fixed order
 * that is part of the determinism contract: candidate 0 is
 * defaultLayout(), followed by progressively more banked and reordered
 * variants applied uniformly to every eligible node. Empty only when
 * the hierarchy has no eligible node.
 */
std::vector<LayoutSpec> enumerateLayouts(const spec::Hierarchy& hierarchy);

/** Names accepted by presetLayout, comma-separated (for messages). */
std::string presetNames();

/**
 * Builds a named preset against a hierarchy: "default" (canonical,
 * 1 bank), "banked2" / "banked4" / "banked8" (canonical order, N
 * banks), "banked4-rev" / "banked8-rev" (reversed rank order),
 * "banked8-i4" (8 banks, interleave 4). Fatal on unknown names. The
 * "none" / "search" values are handled by callers (no spec to build).
 */
LayoutSpec presetLayout(const std::string& name,
                        const spec::Hierarchy& hierarchy);

/** True when @p name is a valid DSE layout axis value: "none",
 *  "search", a preset name, or a path ending in ".yaml"/".yml". */
bool isLayoutValueName(const std::string& name);

} // namespace cimloop::layout

#endif // CIMLOOP_LAYOUT_LAYOUT_HH
