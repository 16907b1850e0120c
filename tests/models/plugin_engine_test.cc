/**
 * Plug-ins as the engine sees them: a user model that states its
 * ComponentTraits is treated exactly like the built-in with the same
 * traits (fault perturbation, ADC output handling, system breakdown,
 * layout eligibility); out-of-range built-in attributes from a spec are
 * user errors (FatalError); and the registry tolerates an add() while
 * other threads evaluate.
 */
#include "cimloop/models/component.hh"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cimloop/common/error.hh"
#include "cimloop/dse/dse.hh"
#include "cimloop/engine/evaluate.hh"
#include "cimloop/layout/layout.hh"
#include "cimloop/macros/macros.hh"
#include "cimloop/system/system.hh"
#include "cimloop/workload/networks.hh"

namespace cimloop::models {
namespace {

/** A user plug-in that is a renamed copy of a built-in: it forwards
 *  estimate() and traits() to the built-in it wraps. */
class RenamedCopy : public ComponentModel
{
  public:
    RenamedCopy(std::string name, const std::string& builtin)
        : name_(std::move(name)),
          builtin_(PluginRegistry::instance().require(builtin))
    {}

    std::string className() const override { return name_; }
    std::string description() const override { return "renamed copy"; }

    ComponentEstimate
    estimate(const ComponentContext& ctx) const override
    {
        return builtin_.estimate(ctx);
    }

    ComponentTraits traits() const override { return builtin_.traits(); }

  private:
    std::string name_;
    const ComponentModel& builtin_;
};

/** Registers a renamed copy of @p builtin under @p name. */
void
registerCopy(const std::string& name, const std::string& builtin)
{
    PluginRegistry::instance().add(
        std::make_unique<RenamedCopy>(name, builtin));
}

/** Gives every node of class @p from the class @p to. */
void
renameClass(engine::Arch& arch, const std::string& from,
            const std::string& to)
{
    for (spec::SpecNode& node : arch.hierarchy.nodes) {
        if (node.klass == from)
            node.klass = to;
    }
}

void
expectSameEstimate(const ComponentEstimate& a, const ComponentEstimate& b,
                   const std::string& node)
{
    EXPECT_EQ(a.areaUm2, b.areaUm2) << node;
    EXPECT_EQ(a.latencyNs, b.latencyNs) << node;
    EXPECT_EQ(a.readEnergyPj, b.readEnergyPj) << node;
    EXPECT_EQ(a.fillEnergyPj, b.fillEnergyPj) << node;
    EXPECT_EQ(a.actionEnergyPj, b.actionEnergyPj) << node;
    EXPECT_EQ(a.staticPowerUw, b.staticPowerUw) << node;
}

TEST(ComponentTraits, BuiltinsStateTheirKind)
{
    const PluginRegistry& reg = PluginRegistry::instance();
    for (const char* name : {"SRAMCell", "ReRAMCell", "AnalogAdder",
                             "AnalogAccumulator", "CapacitorMac"}) {
        ComponentTraits t = reg.require(name).traits();
        EXPECT_EQ(t.domain, Domain::Analog) << name;
        EXPECT_EQ(t.role, Role::Compute) << name;
        EXPECT_FALSE(t.digitizesOutput) << name;
    }
    ComponentTraits adc = reg.require("ADC").traits();
    EXPECT_EQ(adc.domain, Domain::Analog);
    EXPECT_TRUE(adc.digitizesOutput);
    EXPECT_EQ(reg.require("SRAM").traits().role, Role::Buffer);
    EXPECT_EQ(reg.require("DRAM").traits().role, Role::OffChip);
    EXPECT_EQ(reg.require("Router").traits().role, Role::Interconnect);
    for (const char* name : {"DAC", "DigitalAdder", "ShiftAdd",
                             "DigitalMac", "LineDriver", "Wire"}) {
        ComponentTraits t = reg.require(name).traits();
        EXPECT_EQ(t.domain, Domain::Digital) << name;
        EXPECT_EQ(t.role, Role::Compute) << name;
        EXPECT_FALSE(t.digitizesOutput) << name;
    }
}

TEST(ComponentTraits, RenamedAnalogCopiesSeeTheFaultyRepresentation)
{
    // Cell and ADC faults, and a value-aware ADC whose energy follows
    // the (offset-encoded, perturbed) output codes it digitizes.
    engine::Arch builtin = macros::baseMacro();
    builtin.faults.stuckOffRate = 0.02;
    builtin.faults.conductanceSigma = 0.2;
    builtin.faults.adcOffset = 0.05;
    builtin.faults.validate();
    const int adc = builtin.hierarchy.indexOf("adc");
    ASSERT_GE(adc, 0);
    builtin.hierarchy.nodes[static_cast<std::size_t>(adc)]
        .attributes["value_aware"] = yaml::Node::makeInt(1);

    registerCopy("RenamedReRAMCell", "ReRAMCell");
    registerCopy("RenamedADC", "ADC");
    engine::Arch renamed = builtin;
    renameClass(renamed, "ReRAMCell", "RenamedReRAMCell");
    renameClass(renamed, "ADC", "RenamedADC");

    const workload::Layer layer =
        workload::networkByName("mvm").layers.front();
    const engine::PerActionTable want = engine::precompute(builtin, layer);
    const engine::PerActionTable got = engine::precompute(renamed, layer);
    ASSERT_EQ(got.nodes.size(), want.nodes.size());
    for (std::size_t i = 0; i < want.nodes.size(); ++i) {
        expectSameEstimate(got.nodes[i], want.nodes[i],
                           builtin.hierarchy.nodes[i].name);
    }

    // The faults do reach the built-ins, so equality above is not the
    // fault-free numbers twice.
    engine::Arch clean = builtin;
    clean.faults = faults::FaultModel{};
    const engine::PerActionTable ideal = engine::precompute(clean, layer);
    const auto cells = static_cast<std::size_t>(
        builtin.hierarchy.indexOf("cells"));
    constexpr int kW = spec::tensorIndex(TensorKind::Weight);
    constexpr int kO = spec::tensorIndex(TensorKind::Output);
    EXPECT_NE(want.nodes[cells].readEnergyPj[kW],
              ideal.nodes[cells].readEnergyPj[kW]);
    EXPECT_NE(want.nodes[static_cast<std::size_t>(adc)].actionEnergyPj[kO],
              ideal.nodes[static_cast<std::size_t>(adc)].actionEnergyPj[kO]);
}

TEST(ComponentTraits, RenamedStorageCopiesKeepTheirRole)
{
    registerCopy("RenamedSRAM", "SRAM");
    registerCopy("RenamedDRAM", "DRAM");
    registerCopy("RenamedRouter", "Router");
    engine::Arch builtin = system::buildSystem(system::SystemParams{});
    engine::Arch renamed = builtin;
    renameClass(renamed, "SRAM", "RenamedSRAM");
    renameClass(renamed, "DRAM", "RenamedDRAM");
    renameClass(renamed, "Router", "RenamedRouter");

    // One distinct power of two per node: equal bins mean every node
    // landed in the same bin.
    engine::Evaluation ev;
    double e = 1.0;
    for (std::size_t i = 0; i < builtin.hierarchy.nodes.size(); ++i) {
        ev.nodeEnergyPj.push_back(e);
        e *= 2.0;
    }
    system::SystemBreakdown want = system::groupBreakdown(builtin, ev);
    system::SystemBreakdown got = system::groupBreakdown(renamed, ev);
    EXPECT_EQ(got.offChipPj, want.offChipPj);
    EXPECT_EQ(got.globalBufferPj, want.globalBufferPj);
    EXPECT_EQ(got.onChipMovePj, want.onChipMovePj);
    EXPECT_EQ(got.macroComputePj, want.macroComputePj);
    EXPECT_GT(want.offChipPj, 0.0);
    EXPECT_GT(want.onChipMovePj, 0.0);

    bool any_eligible = false;
    for (std::size_t i = 0; i < builtin.hierarchy.nodes.size(); ++i) {
        const bool eligible =
            layout::layoutEligible(builtin.hierarchy.nodes[i]);
        EXPECT_EQ(layout::layoutEligible(renamed.hierarchy.nodes[i]),
                  eligible)
            << builtin.hierarchy.nodes[i].name;
        any_eligible = any_eligible || eligible;
    }
    EXPECT_TRUE(any_eligible);
    EXPECT_EQ(layout::enumerateLayouts(renamed.hierarchy).size(),
              layout::enumerateLayouts(builtin.hierarchy).size());
}

/**
 * precompute() of the one layer of `mvm` on a small YAML arch whose
 * buffer, DAC and analog adder carry the given attributes. Returns the
 * FatalError message, or "" when the arch is accepted.
 */
std::string
yamlArchFatal(std::int64_t entries, std::int64_t width, int resolution,
              int operands)
{
    const std::string text =
        "!Component\nname: buffer\nclass: SRAM\n"
        "temporal_reuse: [Inputs, Outputs]\n"
        "entries: " + std::to_string(entries) + "\n"
        "width: " + std::to_string(width) + "\n"
        "!Component\nname: dac\nclass: DAC\nno_coalesce: [Inputs]\n"
        "resolution: " + std::to_string(resolution) + "\n"
        "!Component\nname: adder\nclass: AnalogAdder\n"
        "operands: " + std::to_string(operands) + "\n"
        "!Component\nname: cells\nclass: ReRAMCell\n"
        "temporal_reuse: [Weights]\n";
    engine::Arch arch;
    arch.hierarchy = spec::Hierarchy::fromText(text);
    try {
        engine::precompute(arch,
                           workload::networkByName("mvm").layers.front());
    } catch (const FatalError& e) {
        return e.what();
    }
    return "";
}

TEST(PluginLimits, OutOfRangeSpecAttributesAreFatal)
{
    EXPECT_EQ(yamlArchFatal(1024, 64, 8, 4), "");
    // Each limit reports the attribute a user has to change.
    EXPECT_NE(yamlArchFatal(1024, 64, 16, 4).find("DAC attribute "
                                                  "'resolution'"),
              std::string::npos);
    EXPECT_NE(yamlArchFatal(1024, 64, 0, 4).find("DAC attribute "
                                                 "'resolution'"),
              std::string::npos);
    EXPECT_NE(yamlArchFatal(1024, 64, 8, 17).find("AnalogAdder attribute "
                                                  "'operands'"),
              std::string::npos);
    EXPECT_NE(yamlArchFatal(0, 64, 8, 4).find("SRAM attribute 'entries'"),
              std::string::npos);
    EXPECT_NE(yamlArchFatal(1024, 0, 8, 4).find("SRAM attribute 'width'"),
              std::string::npos);
}

TEST(PluginLimits, SweepPointPastTheDacLimitFailsAsUserError)
{
    dse::SweepSpec spec;
    spec.macro = "base";
    spec.network = "mvm";
    spec.mappings = 4;
    spec.addAxis("dac_bits", std::vector<double>{4, 16});

    dse::SweepResult result = dse::runSweep(spec);
    ASSERT_EQ(result.points.size(), 2u);
    EXPECT_EQ(result.points[0].status, dse::PointStatus::Ok);
    const dse::PointResult& bad = result.points[1];
    EXPECT_EQ(bad.status, dse::PointStatus::Failed);
    ASSERT_EQ(bad.layerDiagnostics.size(), 1u);
    EXPECT_EQ(bad.layerDiagnostics[0].kind, "fatal");
    EXPECT_NE(bad.statusDetail.find("fatal: DAC attribute 'resolution'"),
              std::string::npos)
        << bad.statusDetail;
}

TEST(PluginRegistry, ConcurrentAddDuringPrecompute)
{
    // One thread keeps replacing the user plug-in the cells use while
    // four threads evaluate the base macro: lookups must not race the
    // map, a replaced model must outlive the precompute that found it,
    // and every table must match the built-in one.
    const engine::Arch builtin = macros::baseMacro();
    engine::Arch arch = builtin;
    registerCopy("ConcurrentReRAMCell", "ReRAMCell");
    renameClass(arch, "ReRAMCell", "ConcurrentReRAMCell");
    const workload::Layer layer =
        workload::networkByName("mvm").layers.front();
    const engine::PerActionTable want = engine::precompute(builtin, layer);

    std::atomic<bool> stop{false};
    std::thread writer([&] {
        for (int i = 0; i < 10000 && !stop.load(); ++i)
            registerCopy("ConcurrentReRAMCell", "ReRAMCell");
    });
    std::atomic<int> mismatches{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&] {
            try {
                for (int i = 0; i < 100; ++i) {
                    engine::PerActionTable got =
                        engine::precompute(arch, layer);
                    for (std::size_t n = 0; n < want.nodes.size(); ++n) {
                        if (got.nodes[n].readEnergyPj !=
                                want.nodes[n].readEnergyPj ||
                            got.nodes[n].actionEnergyPj !=
                                want.nodes[n].actionEnergyPj)
                            ++mismatches;
                    }
                }
            } catch (...) {
                ++mismatches;
            }
        });
    }
    for (std::thread& r : readers)
        r.join();
    stop.store(true);
    writer.join();
    EXPECT_EQ(mismatches.load(), 0);
}

} // namespace
} // namespace cimloop::models
