#include "cimloop/system/system.hh"

#include "cimloop/common/error.hh"
#include "cimloop/models/component.hh"
#include "cimloop/spec/builder.hh"

namespace cimloop::system {

using spec::HierarchyBuilder;
using workload::TensorKind;

const char*
policyName(WeightPolicy p)
{
    switch (p) {
      case WeightPolicy::OffChip: return "off-chip";
      case WeightPolicy::WeightStationary: return "weight-stationary";
      case WeightPolicy::Fused: return "fused";
    }
    return "?";
}

engine::Arch
buildSystem(const SystemParams& params)
{
    CIM_ASSERT(params.numMacros >= 1, "system needs at least one macro");

    HierarchyBuilder b("system_" + params.macroKind + "_" +
                       policyName(params.policy));

    // DRAM backing store: which tensors it serves depends on the
    // scenario. Under Fused nothing crosses off-chip per layer, so the
    // DRAM node is omitted entirely and on-chip storage backs all
    // tensors.
    switch (params.policy) {
      case WeightPolicy::OffChip:
        b.component("dram", "DRAM")
            .temporalReuse({TensorKind::Input, TensorKind::Weight,
                            TensorKind::Output})
            .attr("energy_per_bit_pj", params.dramEnergyPerBitPj);
        break;
      case WeightPolicy::WeightStationary:
        b.component("dram", "DRAM")
            .temporalReuse({TensorKind::Input, TensorKind::Output})
            .attr("energy_per_bit_pj", params.dramEnergyPerBitPj);
        break;
      case WeightPolicy::Fused:
        break;
    }

    // Multi-chip pipeline: chips partition the model; everything
    // crossing a chip boundary pays the SerDes link.
    if (params.numChips > 1) {
        b.component("interchip_link", "Router")
            .noCoalesce({TensorKind::Input, TensorKind::Weight,
                         TensorKind::Output})
            .attr("energy_per_bit_hop_fj",
                  params.interChipEnergyPerBitPj * 1000.0)
            .attr("hops", 1.0);
        b.container("chips")
            .spatial(params.numChips, 1)
            .flexibleSpatial();
    }

    b.container("chip");

    // Global buffer holds activations on-chip; weights stream past it to
    // the macros (ISAAC-style).
    std::int64_t gb_entries = params.globalBufferKb * 1024 * 8 / 64;
    b.component("global_buffer", "SRAM")
        .temporalReuse({TensorKind::Input, TensorKind::Output})
        .attr("entries", gb_entries)
        .attr("width", std::int64_t{64});

    // NoC: routers move everything between the global buffer and macros.
    b.component("router", "Router")
        .noCoalesce({TensorKind::Input, TensorKind::Weight,
                     TensorKind::Output});

    // Parallel macros; the NoC can multicast/reduce opportunistically.
    b.container("macro_array")
        .spatial(params.numMacros, 1)
        .flexibleSpatial();

    macros::appendMacro(b, params.macro, params.macroKind);

    engine::Arch arch;
    arch.name = "system_" + params.macroKind;
    arch.hierarchy = b.build();
    macros::applyMacroParams(arch, params.macro);
    return arch;
}

SystemBreakdown
groupBreakdown(const engine::Arch& arch, const engine::Evaluation& ev)
{
    CIM_ASSERT(ev.nodeEnergyPj.size() == arch.hierarchy.nodes.size(),
               "evaluation does not match the architecture");
    SystemBreakdown out;
    for (std::size_t i = 0; i < arch.hierarchy.nodes.size(); ++i) {
        const spec::SpecNode& node = arch.hierarchy.nodes[i];
        double e = ev.nodeEnergyPj[i];
        const models::Role role = models::modelFor(node).traits().role;
        if (role == models::Role::OffChip) {
            out.offChipPj += e;
        } else if (node.name == "global_buffer") {
            out.globalBufferPj += e;
        } else if (role == models::Role::Interconnect ||
                   (role == models::Role::Buffer && node.name == "buffer")) {
            out.onChipMovePj += e;
        } else {
            out.macroComputePj += e;
        }
    }
    return out;
}

} // namespace cimloop::system
