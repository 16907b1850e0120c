#include "cimloop/mapping/nest.hh"

#include "cimloop/common/error.hh"

namespace cimloop::mapping {

using spec::TemporalDirective;
using spec::tensorIndex;
using workload::dimIndex;
using workload::kAllDims;
using workload::kAllTensors;

namespace {

/** Product of node @p lm's spatial factors over the @p relevant dims. */
std::int64_t
spatialRelevant(const LevelMapping& lm, DimMask relevant)
{
    std::int64_t rel = 1;
    for (Dim d : kAllDims) {
        if (relevant & dimBit(d))
            rel *= lm.spatial[dimIndex(d)];
    }
    return rel;
}

/** Dims with a temporal loop (factor > 1) at @p lm. */
DimMask
temporalLoops(const LevelMapping& lm)
{
    DimMask loops = 0;
    for (Dim d : kAllDims) {
        if (lm.temporal[dimIndex(d)] > 1)
            loops |= dimBit(d);
    }
    return loops;
}

/**
 * Permutation-aware temporal eviction product for a tensor (whose
 * dims are @p relevant) stored at node @p b: the number of times node
 * b's tile is (re)fetched due to the temporal loops outside its storage
 * (nodes 0..b, including b's own temporal loops, which iterate over
 * successive tiles).
 *
 * A relevant loop always multiplies (each iteration is new data). An
 * irrelevant loop multiplies only when a relevant temporal loop sits
 * strictly inside it — below it in its own node's order, or at any node
 * between it and the storage node — because then the tile sequence
 * repeats and must be refetched. Otherwise the tile is stationary.
 */
double
temporalEvictions(const Mapping& mapping, DimMask relevant, int b)
{
    // The innermost node k <= b with a relevant temporal loop: every
    // node j < k has one strictly inside it.
    int innermost_relevant = -1;
    for (int j = b; j >= 0; --j) {
        if (temporalLoops(mapping.levels[j]) & relevant) {
            innermost_relevant = j;
            break;
        }
    }

    double product = 1.0;
    for (int j = 0; j <= b; ++j) {
        const LevelMapping& lm = mapping.levels[j];
        if (!temporalLoops(lm))
            continue;
        DimOrder order = lm.effectiveOrder(); // outermost first
        // Walk this node's loops innermost-first, tracking whether a
        // relevant loop lies inside the current position.
        bool relevant_below = innermost_relevant > j;
        for (int k = order.size - 1; k >= 0; --k) {
            Dim d = order.dims[k];
            std::int64_t f = lm.temporal[dimIndex(d)];
            if (relevant & dimBit(d)) {
                product *= static_cast<double>(f);
                relevant_below = true;
            } else if (relevant_below) {
                product *= static_cast<double>(f);
            }
            // else: stationary tile; no refetch from this loop.
        }
    }
    return product;
}

} // namespace

NestResult
analyzeNest(const spec::Hierarchy& hierarchy, const Mapping& mapping,
            const Layer& layer)
{
    const SearchPlan plan(hierarchy, layer);
    NestResult result;
    result.violation = mapping.check(plan);
    if (!result.violation)
        analyzeNest(plan, mapping, result);
    result.invalidReason = result.violation.message(hierarchy);
    return result;
}

void
analyzeNest(const SearchPlan& plan, const Mapping& mapping,
            NestResult& result)
{
    const int num_nodes = static_cast<int>(plan.nodes.size());
    result.valid = false;
    result.violation = {};
    result.invalidReason.clear();
    result.nodes.assign(num_nodes, NodeCounts{});
    result.steps = mapping.totalSteps();

    result.totalOps = 1.0;
    for (Dim d : kAllDims)
        result.totalOps *= static_cast<double>(plan.layer.size(d));

    // Tiles at storage nodes (per instance, slice units): the footprint
    // of the extents covered strictly inside the node (all factors of
    // nodes > i).
    DimSizes below = workload::onesDims();
    for (int i = num_nodes - 1; i >= 0; --i) {
        for (TensorKind t : kAllTensors) {
            if (plan.nodes[i].stores[tensorIndex(t)]) {
                result.nodes[i].tensors[tensorIndex(t)].tile =
                    Layer::tensorTile(t, below);
            }
        }
        const LevelMapping& lm = mapping.levels[i];
        for (Dim d : kAllDims)
            below[dimIndex(d)] *=
                lm.temporal[dimIndex(d)] * lm.spatial[dimIndex(d)];
    }

    // Capacity: per-instance stored tiles must fit an 'entries'
    // attribute when present. Decided here, so a mapping that overflows
    // a node never pays for the traffic walk.
    for (int i = 0; i < num_nodes; ++i) {
        const NodePlan& node = plan.nodes[i];
        if (!node.hasEntries)
            continue;
        std::int64_t occupied = 0;
        for (TensorKind t : kAllTensors) {
            if (node.stores[tensorIndex(t)])
                occupied += result.nodes[i].tensors[tensorIndex(t)].tile;
        }
        if (occupied > node.entries) {
            result.violation = {.kind = Violation::Kind::Capacity,
                                .node = i,
                                .have = occupied,
                                .limit = node.entries};
            return;
        }
    }

    // Instance counts: node i is replicated by the spatial factors of all
    // nodes scoping it (indices < i); its own mesh also contributes.
    std::int64_t used = 1, total = 1;
    for (int i = 0; i < num_nodes; ++i) {
        used *= mapping.levels[i].spatialUsed();
        total *= plan.nodes[i].fanout;
        result.nodes[i].usedInstances = used;
        result.nodes[i].totalInstances = total;
        result.nodes[i].utilization =
            static_cast<double>(used) / static_cast<double>(total);
    }
    result.innermostParallelism = result.nodes[num_nodes - 1].usedInstances;

    // Per-tensor traffic analysis.
    for (TensorKind t : kAllTensors) {
        const int ti = tensorIndex(t);
        const DimMask relevant = plan.relevant[ti];

        // Storage nodes for t, ascending index (outermost first).
        const std::vector<int>& storages = plan.storages[ti];
        CIM_ASSERT(!storages.empty(), "validate() guarantees storage for ",
                   workload::tensorName(t));

        // Demand segments run from each source (compute, or an inner
        // storage node) up to the next outer storage node (or the top).
        // sources[k] pairs with sink storages[k]; the innermost segment's
        // source is compute (index num_nodes, raw demand = totalOps).
        for (std::size_t seg = 0; seg <= storages.size(); ++seg) {
            // Segment seg: from source (inner) to sink (outer).
            //   seg == storages.size(): source = compute, sink =
            //     storages.back().
            //   otherwise: source = storages[seg], sink = storages[seg-1]
            //     (seg == 0: sink = top of hierarchy).
            int source; // node index of the source; num_nodes = compute
            int sink;   // node index of the sink; -1 = top
            double stream;
            double pending = 1.0; // unmerged spatial partials (Outputs)

            if (seg == storages.size()) {
                source = num_nodes;
                sink = storages.back();
                // Compute demand: every unit op touches the tensor once.
                // All mapping factors are already included in totalOps.
                stream = result.totalOps;
            } else {
                source = storages[seg];
                sink = seg == 0 ? -1 : storages[seg - 1];
                // Demand the source storage places on its parent side,
                // measured at its instance boundary (one term per
                // instance, copies included): tile x every spatial factor
                // at or outside the source x temporal evictions.
                const TensorCounts& tc = result.nodes[source].tensors[ti];
                stream = static_cast<double>(tc.tile);
                for (int j = 0; j <= source; ++j) {
                    stream *= static_cast<double>(
                        mapping.levels[j].spatialUsed());
                }
                stream *= temporalEvictions(mapping, relevant, source);
            }

            // Walk node boundaries from the source's own mesh boundary
            // outward to the sink.
            int start = (source == num_nodes) ? num_nodes - 1 : source;
            for (int k = start; k > sink; --k) {
                const NodePlan& node = plan.nodes[k];
                const LevelMapping& lm = mapping.levels[k];
                std::int64_t s_irr =
                    lm.spatialUsed() / spatialRelevant(lm, relevant);

                // Crossing node k's mesh boundary: a shared wire
                // multicasts (Inputs/Weights) or sums (Outputs) the
                // s_irr same-datum crossings into one. Without reuse the
                // copies stay in flight; coalescers track them via
                // `pending`.
                if (s_irr > 1) {
                    if (node.reusesSpatially[ti])
                        stream /= static_cast<double>(s_irr);
                    else
                        pending *= static_cast<double>(s_irr);
                }

                if (k == source) {
                    // Traffic on the wire directly above the source: its
                    // fills (Inputs/Weights) or writebacks (Outputs).
                    result.nodes[source].tensors[ti].fills = stream;
                    continue;
                }

                TemporalDirective dir = node.directive[ti];
                if (dir == TemporalDirective::NoCoalesce) {
                    result.nodes[k].tensors[ti].actions += stream;
                } else if (dir == TemporalDirective::Coalesce) {
                    result.nodes[k].tensors[ti].actions += stream;
                    stream /= pending;
                    pending = 1.0;
                }
            }

            if (sink >= 0) {
                // The sink serves this segment's demand on its child side
                // (reads for Inputs/Weights, arriving updates for
                // Outputs).
                result.nodes[sink].tensors[ti].reads += stream;
            }
        }
    }

    result.valid = true;
}

} // namespace cimloop::mapping
