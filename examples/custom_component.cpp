/**
 * @file
 * User-defined data-value-dependent component models (paper Sec. III-C2:
 * "a simple plug-in interface that lets users define new ... energy
 * models"). Registers a photonic Mach-Zehnder modulator model — a
 * paradigm the paper explicitly says CiMLoop can cover — and uses it in
 * a custom macro.
 */
#include <cmath>
#include <cstdio>

#include "cimloop/engine/evaluate.hh"
#include "cimloop/models/component.hh"
#include "cimloop/spec/builder.hh"
#include "cimloop/workload/networks.hh"

using namespace cimloop;
using workload::TensorKind;

namespace {

/**
 * A photonic Mach-Zehnder modulator: drive energy follows the modulation
 * depth (the encoded input level), a different functional form than any
 * built-in electrical model — exactly what the plug-in interface is for.
 */
class MziModulatorModel : public models::ComponentModel
{
  public:
    std::string className() const override { return "MziModulator"; }

    std::string
    description() const override
    {
        return "photonic MZI modulator; drive energy ~ sin^2 of level";
    }

    // The engine decides what a component sees from its traits, not its
    // class name: as an analog part, the modulator gets the same
    // fault-perturbed weight codes as the built-in cell arrays.
    models::ComponentTraits
    traits() const override
    {
        return {.domain = models::Domain::Analog};
    }

    models::ComponentEstimate
    estimate(const models::ComponentContext& ctx) const override
    {
        const dist::EncodedTensor& in =
            ctx.tensors[spec::tensorIndex(TensorKind::Input)];
        double e_drive_fj = ctx.attrDouble("drive_energy_fj", 45.0);
        // Modulation transfer: power ~ sin^2(pi/2 * level); expectation
        // over the full code distribution, not just its mean.
        double activity = in.codes.expectation([&](double code) {
            double level = in.maxCode() > 0 ? code / in.maxCode() : 0.0;
            double s = std::sin(M_PI_2 * level);
            return s * s;
        });
        models::ComponentEstimate est;
        est.actionEnergyPj[spec::tensorIndex(TensorKind::Input)] =
            e_drive_fj * activity / 1000.0;
        est.latencyNs = ctx.attrDouble("latency_ns", 0.1);
        est.areaUm2 = ctx.attrDouble("area_um2", 900.0);
        return est;
    }
};

} // namespace

int
main()
{
    // Register the plug-in; from here it is addressable by class name,
    // exactly like the built-ins.
    models::PluginRegistry::instance().add(
        std::make_unique<MziModulatorModel>());

    spec::Hierarchy h = spec::HierarchyBuilder("photonic_macro")
        .component("buffer", "SRAM")
            .temporalReuse({TensorKind::Input, TensorKind::Output})
            .attr("entries", std::int64_t{16384})
            .attr("width", std::int64_t{64})
        .container("macro")
        .component("modulators", "MziModulator") // <- the custom class
            .noCoalesce({TensorKind::Input})
        .container("column")
            .spatial(32, 1)
            .spatialReuse({TensorKind::Input})
            .spatialDims({workload::Dim::K})
        .component("adc", "ADC")
            .noCoalesce({TensorKind::Output})
            .attr("resolution", std::int64_t{6})
        .component("weights", "SRAMCell")
            .spatial(1, 32)
            .temporalReuse({TensorKind::Weight})
            .spatialReuse({TensorKind::Output})
            .spatialDims({workload::Dim::C})
        .build();

    engine::Arch arch;
    arch.name = "photonic";
    arch.hierarchy = h;
    arch.technologyNm = 28.0;
    arch.rep.dacBits = 8; // full-resolution modulation
    arch.rep.cellBits = 8;

    workload::Network net = workload::maxUtilMvm(32, 32, 4096);
    engine::SearchResult sr =
        engine::searchMappings(arch, net.layers[0], 150, 1);

    int mod = arch.hierarchy.indexOf("modulators");
    std::printf("photonic macro on a 32x32 MVM stream:\n");
    std::printf("  total energy    : %.3f pJ/MAC\n",
                sr.best.energyPerMacPj());
    std::printf("  modulator share : %.1f%%\n",
                100.0 * sr.best.nodeEnergyPj[mod] / sr.best.energyPj);
    std::printf("  efficiency      : %.1f TOPS/W\n",
                sr.best.topsPerWatt());
    std::printf("\nthe custom model is data-value-dependent: its energy "
                "was computed from the layer's full input code "
                "distribution through a user-defined sin^2 transfer\n");
    return 0;
}
