#include "cimloop/mapping/mapper.hh"

#include <algorithm>

#include "cimloop/common/error.hh"
#include "cimloop/obs/obs.hh"

namespace cimloop::mapping {

using workload::dimIndex;
using workload::kAllDims;

Mapper::Mapper(const spec::Hierarchy& h, const Layer& l, MapperOptions opts)
    : hierarchy(h), layer(l), options(opts), rng(opts.seed ? opts.seed : 1),
      search_plan(h, l), divisors(l)
{
    CIM_ASSERT(!hierarchy.nodes.empty(), "mapper needs a hierarchy");
}

Mapping
Mapper::greedy() const
{
    const SearchPlan& plan = search_plan;
    Mapping m = Mapping::identity(hierarchy);
    DimSizes remaining = layer.dims;

    const int num_nodes = static_cast<int>(plan.nodes.size());

    // Spatial: innermost mesh first, largest allowed divisors.
    for (int i = num_nodes - 1; i >= 0; --i) {
        const NodePlan& node = plan.nodes[i];
        std::int64_t budget = node.fanout;
        if (budget <= 1)
            continue;
        for (int a = 0; a < node.numSpatialCandidates; ++a) {
            Dim d = node.spatialCandidates[a];
            if (budget <= 1)
                break;
            std::int64_t rem = remaining[dimIndex(d)];
            if (rem <= 1)
                continue;
            // Largest divisor of rem that fits the budget.
            std::int64_t best = 1;
            for (std::int64_t f : divisors.of(d, rem)) {
                if (f <= budget)
                    best = f;
            }
            if (best > 1) {
                m.levels[i].spatial[dimIndex(d)] = best;
                remaining[dimIndex(d)] /= best;
                budget /= best;
            }
        }
    }

    // Temporal: each leftover dimension goes to the outermost storage
    // node whose temporal_dims constraint permits it (node 0 as the
    // fallback host when it stores nothing).
    for (Dim d : kAllDims) {
        if (remaining[dimIndex(d)] <= 1)
            continue;
        int host = plan.restTaker[dimIndex(d)];
        if (host < 0) {
            CIM_FATAL("no storage node permits a temporal loop over ",
                      workload::dimName(d), " for layer '", layer.name,
                      "' on hierarchy '", hierarchy.name, "'");
        }
        m.levels[host].temporal[dimIndex(d)] = remaining[dimIndex(d)];
    }

    // Weight-stationary loop order everywhere: weight-relevant dims
    // outermost so the innermost block of weight-irrelevant loops
    // (N, P, Q, IB) keeps the array's weights resident.
    for (int i : plan.hosts) {
        m.levels[i].order = {Dim::C, Dim::K, Dim::R, Dim::S, Dim::WB,
                             Dim::N, Dim::P, Dim::Q, Dim::IB};
    }

    m.validate(hierarchy, layer);
    return m;
}

void
Mapper::sample(Rng& rng, Mapping& m) const
{
    const SearchPlan& plan = search_plan;
    const int num_nodes = static_cast<int>(plan.nodes.size());
    m.levels.resize(num_nodes);
    for (LevelMapping& lm : m.levels) {
        lm.temporal = workload::onesDims();
        lm.spatial = workload::onesDims();
        lm.order.clear();
    }
    DimSizes remaining = layer.dims;

    // Spatial factors, innermost first. Bias toward high utilization
    // (the published macros' mappers do the same) but keep the space open.
    for (int i = num_nodes - 1; i >= 0; --i) {
        const NodePlan& node = plan.nodes[i];
        std::int64_t budget = node.fanout;
        if (budget <= 1)
            continue;
        std::array<Dim, workload::kNumDims> allowed = node.spatialCandidates;
        const std::size_t num_allowed =
            static_cast<std::size_t>(node.numSpatialCandidates);
        // Visit allowed dims in random order.
        for (std::size_t a = num_allowed; a > 1; --a)
            std::swap(allowed[a - 1], allowed[rng.below(a)]);
        for (std::size_t a = 0; a < num_allowed; ++a) {
            Dim d = allowed[a];
            if (budget <= 1)
                break;
            std::int64_t rem = remaining[dimIndex(d)];
            if (rem <= 1)
                continue;
            // Divisors ascend, so those fitting the budget are a prefix.
            std::span<const std::int64_t> divs = divisors.of(d, rem);
            const std::size_t fitting = static_cast<std::size_t>(
                std::upper_bound(divs.begin(), divs.end(), budget) -
                divs.begin());
            std::int64_t f = 1;
            if (rng.uniform() < 0.7) {
                f = divs[fitting - 1]; // largest fitting divisor
            } else {
                f = divs[rng.below(fitting)];
            }
            if (f > 1) {
                m.levels[i].spatial[dimIndex(d)] = f;
                remaining[dimIndex(d)] /= f;
                budget /= f;
            }
        }
    }

    // Temporal factors: split what remains of each dim across the storage
    // nodes (inner ones take random divisors; the outermost eligible node
    // takes the rest).
    for (Dim d : kAllDims) {
        std::int64_t rem = remaining[dimIndex(d)];
        if (rem <= 1)
            continue;
        // The outermost node permitting d takes whatever is left.
        const int rest_taker = plan.restTaker[dimIndex(d)];
        if (rest_taker < 0)
            return; // unmappable dim; caller's check() rejects it
        // Walk eligible nodes innermost-first, peeling random factors.
        for (auto it = plan.hosts.rbegin(); it != plan.hosts.rend(); ++it) {
            int i = *it;
            if (i == rest_taker) {
                m.levels[i].temporal[dimIndex(d)] *= rem;
                rem = 1;
                break;
            }
            if (!(plan.nodes[i].temporalDims & dimBit(d)))
                continue;
            std::span<const std::int64_t> divs = divisors.of(d, rem);
            std::int64_t f = divs[rng.below(divs.size())];
            if (f > 1) {
                m.levels[i].temporal[dimIndex(d)] = f;
                rem /= f;
            }
            if (rem == 1)
                break;
        }
        CIM_ASSERT(rem == 1, "temporal split left factor ", rem,
                   " unassigned for dim ", workload::dimName(d));
    }

    // Random permutation per node over the dims with temporal loops.
    for (LevelMapping& lm : m.levels) {
        std::vector<Dim>& order = lm.order;
        for (Dim d : kAllDims) {
            if (lm.temporal[dimIndex(d)] > 1)
                order.push_back(d);
        }
        for (std::size_t a = order.size(); a > 1; --a)
            std::swap(order[a - 1], order[rng.below(a)]);
    }
}

namespace {

/** Recursion state for exhaustive enumeration. */
struct Enumerator
{
    const SearchPlan& plan;
    const DivisorTable& divisors;
    std::size_t limit;
    std::vector<Mapping>& out;

    void
    emit(Mapping& m)
    {
        if (!m.check(plan)) {
            if (out.size() >= limit) {
                CIM_FATAL("mapspace exceeds the exhaustive limit of ",
                          limit, " mappings; use random search");
            }
            out.push_back(m);
        }
    }

    /** Permutations of each node's active temporal dims, innermost
     *  choice last: recurse over the temporal-loop hosts. */
    void
    permutations(Mapping& m, std::size_t who)
    {
        if (who == plan.hosts.size()) {
            emit(m);
            return;
        }
        int node = plan.hosts[who];
        std::vector<Dim> active;
        for (Dim d : kAllDims) {
            if (m.levels[node].temporal[dimIndex(d)] > 1)
                active.push_back(d);
        }
        if (active.size() <= 1) {
            m.levels[node].order = active;
            permutations(m, who + 1);
            return;
        }
        std::sort(active.begin(), active.end());
        do {
            m.levels[node].order = active;
            permutations(m, who + 1);
        } while (std::next_permutation(active.begin(), active.end()));
    }

    /** Splits dim d's remaining extent across the temporal-loop hosts. */
    void
    temporalSplit(Mapping& m, const DimSizes& remaining, int dim_idx)
    {
        if (dim_idx == workload::kNumDims) {
            permutations(m, 0);
            return;
        }
        Dim d = kAllDims[dim_idx];
        std::int64_t rem = remaining[dimIndex(d)];
        if (rem == 1) {
            temporalSplit(m, remaining, dim_idx + 1);
            return;
        }
        // Ordered factorizations of rem over the hosts.
        splitOver(m, remaining, dim_idx, 0, rem);
    }

    void
    splitOver(Mapping& m, const DimSizes& remaining, int dim_idx,
              std::size_t who, std::int64_t rem)
    {
        Dim d = kAllDims[dim_idx];
        if (who == plan.hosts.size()) {
            if (rem == 1)
                temporalSplit(m, remaining, dim_idx + 1);
            return;
        }
        int node = plan.hosts[who];
        bool allowed = plan.nodes[node].temporalDims & dimBit(d);
        for (std::int64_t f : divisors.of(d, rem)) {
            if (f > 1 && !allowed)
                break; // divisors ascend; only f == 1 is permitted
            m.levels[node].temporal[dimIndex(d)] = f;
            splitOver(m, remaining, dim_idx, who + 1, rem / f);
        }
        m.levels[node].temporal[dimIndex(d)] = 1;
    }

    /** Assigns spatial factors node by node, innermost first. */
    void
    spatial(Mapping& m, DimSizes remaining, int node_rev)
    {
        int num_nodes = static_cast<int>(plan.nodes.size());
        if (node_rev == num_nodes) {
            temporalSplit(m, remaining, 0);
            return;
        }
        int node = num_nodes - 1 - node_rev;
        std::int64_t budget = plan.nodes[node].fanout;
        if (budget <= 1) {
            spatial(m, remaining, node_rev + 1);
            return;
        }
        spatialDims(m, remaining, node_rev, node, 0, budget);
    }

    void
    spatialDims(Mapping& m, DimSizes remaining, int node_rev, int node,
                int dim_idx, std::int64_t budget)
    {
        if (dim_idx == workload::kNumDims) {
            spatial(m, remaining, node_rev + 1);
            return;
        }
        Dim d = kAllDims[dim_idx];
        std::int64_t rem = remaining[dimIndex(d)];
        for (std::int64_t f : divisors.of(d, rem)) {
            if (f > budget)
                break;
            m.levels[node].spatial[dimIndex(d)] = f;
            remaining[dimIndex(d)] = rem / f;
            spatialDims(m, remaining, node_rev, node, dim_idx + 1,
                        budget / f);
        }
        m.levels[node].spatial[dimIndex(d)] = 1;
        remaining[dimIndex(d)] = rem;
    }
};

} // namespace

std::vector<Mapping>
Mapper::exhaustive(std::size_t limit)
{
    std::vector<Mapping> out;
    Enumerator en{search_plan, divisors, limit, out};
    Mapping m = Mapping::identity(hierarchy);
    en.spatial(m, layer.dims, 0);
    return out;
}

std::optional<Mapping>
Mapper::next()
{
    int rejected = 0;
    std::optional<Mapping> m = next(rng, rejected);
    if (m)
        ++num_generated;
    return m;
}

std::optional<Mapping>
Mapper::next(Rng& rng, int& rejected) const
{
    Mapping m;
    if (next(rng, rejected, m))
        return m;
    return std::nullopt;
}

bool
Mapper::next(Rng& rng, int& rejected, Mapping& out) const
{
    static obs::Counter& samples = obs::counter("mapping.mapper.samples");
    for (int attempt = 0; attempt < options.maxAttempts; ++attempt) {
        samples.add();
        sample(rng, out);
        if (!out.check(search_plan))
            return true;
        ++rejected;
    }
    return false;
}

} // namespace cimloop::mapping
