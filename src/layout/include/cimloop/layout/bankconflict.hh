/**
 * @file
 * Analytical bank-conflict model (LayoutLoop / SquareLoop style).
 *
 * A storage node with spatial fanout below it is hit by many requesters
 * per step: every spatial instance the mapping creates under the node
 * wants a (generally different) element of the stored tile in the same
 * cycle. The idealized engine serves them all at once. With a physical
 * layout, requests that land in the same bank serialize:
 *
 *   slowdown = ceil(R / D)
 *
 * where R is the number of concurrent requesters (product of spatial
 * factors below the node over the tensor's index dims) and D the number
 * of *distinct* banks those requests touch. D follows from the layout:
 * walking the physical rank order innermost-out gives each dim an
 * element stride; parallel requests along dim d are separated by
 * stride_d x (tile_d / fan_d) elements, and the bank of element a is
 * floor(a / interleave) mod banks. The model is deterministic, closed
 * form, and exact for the affine access patterns the nest analysis
 * produces; slowdown 1.0 reproduces the idealized engine bit-for-bit.
 */
#ifndef CIMLOOP_LAYOUT_BANKCONFLICT_HH
#define CIMLOOP_LAYOUT_BANKCONFLICT_HH

#include "cimloop/layout/layout.hh"
#include "cimloop/mapping/mapping.hh"
#include "cimloop/spec/hierarchy.hh"
#include "cimloop/workload/layer.hh"

namespace cimloop::layout {

/**
 * Slowdown (>= 1.0) of one tensor's accesses at one storage node.
 *
 * @p below  extents covered inside the node (all mapping factors of
 *           deeper nodes, per dim — cf. the nest analysis's tile
 *           extents); Inputs apply the halo to P/Q internally.
 * @p parallel  concurrent requesters per dim: the product of *spatial*
 *           factors of deeper nodes (R/S fold into P/Q for Inputs
 *           before calling; pass the raw per-dim factors here).
 */
double bankConflictSlowdown(const TensorLayout& tl,
                            const workload::DimSizes& below,
                            const workload::DimSizes& parallel);

/**
 * Per-tensor slowdowns for hierarchy node @p node_index under
 * @p mapping. Tensors without a layout at the node (or not stored
 * there) get exactly 1.0.
 */
spec::PerTensor<double>
bankConflictSlowdowns(const ResolvedLayout& layout,
                      const spec::Hierarchy& hierarchy,
                      std::size_t node_index,
                      const mapping::Mapping& mapping);

} // namespace cimloop::layout

#endif // CIMLOOP_LAYOUT_BANKCONFLICT_HH
