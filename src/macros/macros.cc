#include "cimloop/macros/macros.hh"

#include <algorithm>
#include <array>
#include <limits>

#include "cimloop/common/error.hh"
#include "cimloop/common/util.hh"
#include "cimloop/spec/builder.hh"

namespace cimloop::macros {

using spec::HierarchyBuilder;
using workload::Dim;
using workload::TensorKind;

namespace {

constexpr TensorKind kIn = TensorKind::Input;
constexpr TensorKind kWt = TensorKind::Weight;
constexpr TensorKind kOut = TensorKind::Output;

/**
 * Rejects the shared parameters no macro can be built from. They come
 * from user input (sweep axes, CLI flags, serve requests), so a bad
 * value is a FatalError naming the parameter, not a panic deeper in.
 */
void
checkParams(const MacroParams& p)
{
    auto check = [](const char* name, std::int64_t v, std::int64_t lo,
                    std::int64_t hi) {
        if (v < lo || v > hi)
            CIM_FATAL("macro ", name, " must be in [", lo, ", ", hi,
                      "], got ", v);
    };
    constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
    check("rows", p.rows, 1, std::int64_t{1} << 24);
    check("cols", p.cols, 1, std::int64_t{1} << 24);
    check("input_bits", p.inputBits, 1, 16);
    check("weight_bits", p.weightBits, 1, 16);
    check("dac_bits", p.dacBits, 1, kIntMax);
    check("cell_bits", p.cellBits, 1, kIntMax);
    check("buffer_kb", p.bufferKb, 1, std::int64_t{1} << 40);
}

/**
 * Checks the parameters, then appends the local input/output buffer
 * every macro starts with.
 */
void
appendLocalBuffer(HierarchyBuilder& b, const MacroParams& p)
{
    checkParams(p);
    b.component("buffer", "SRAM")
        .temporalReuse({kIn, kOut})
        .attr("entries", p.bufferKb * 1024) // ~8b elements
        .attr("width", std::int64_t{64});
}

void
appendBase(HierarchyBuilder& b, const MacroParams& p)
{
    appendLocalBuffer(b, p);
    b.container("macro")
        .component("shift_add", "ShiftAdd")
            .coalesce({kOut})
            .attr("width", std::int64_t{24})
        .component("dac_bank", "DAC")
            .noCoalesce({kIn})
            .attr("resolution", std::int64_t{p.dacBits})
        .container("column")
            .spatial(p.cols, 1)
            .spatialReuse({kIn})
            .spatialDims({Dim::K, Dim::WB})
        .component("adc", "ADC")
            .noCoalesce({kOut})
            .attr("resolution", std::int64_t{p.adcBits})
        .component("cells", "ReRAMCell")
            .spatial(1, p.rows)
            .temporalReuse({kWt})
            .spatialReuse({kOut})
            .spatialDims({Dim::C, Dim::R, Dim::S})
            .attr("idle_fraction", 0.25);
}

void
appendA(HierarchyBuilder& b, const MacroParams& p)
{
    CIM_ASSERT(p.outputReuseCols >= 1, "outputReuseCols must be >= 1");
    CIM_ASSERT(p.cols % p.outputReuseCols == 0,
               "columns (", p.cols, ") must divide into output-reuse "
               "groups of ", p.outputReuseCols);
    appendLocalBuffer(b, p);
    // Output-reuse groups: each group of columns holds *different
    // weights* whose outputs sum on a wire (Fig. 3, Macro A). Inputs are
    // unicast within a group — the traded-off input reuse.
    b.container("macro")
        .component("shift_add", "ShiftAdd")
            .coalesce({kOut})
            .attr("width", std::int64_t{24})
        .component("dac_bank", "DAC")
            .noCoalesce({kIn})
            .attr("resolution", std::int64_t{p.dacBits})
        .container("column_groups")
            .spatial(p.cols / p.outputReuseCols, 1)
            .spatialReuse({kIn})
            .spatialDims({Dim::K, Dim::WB})
        .component("adc", "ADC")
            .noCoalesce({kOut})
            .attr("resolution", std::int64_t{p.adcBits})
        .container("group")
            .spatial(p.outputReuseCols, 1)
            .spatialReuse({kOut})
            .spatialDims({Dim::C, Dim::R, Dim::S})
        .component("cells", "SRAMCell")
            .spatial(1, p.rows)
            .temporalReuse({kWt})
            .spatialReuse({kOut})
            .spatialDims({Dim::C, Dim::R, Dim::S})
            .attr("idle_fraction", 0.25);
}

void
appendB(HierarchyBuilder& b, const MacroParams& p)
{
    CIM_ASSERT(p.adderOperands >= 1, "adderOperands must be >= 1");
    CIM_ASSERT(p.cols % p.adderOperands == 0,
               "columns (", p.cols, ") must divide into adder groups of ",
               p.adderOperands);
    // The ADC digitizes the analog sum of `adderOperands` weighted
    // columns; its resolution must track that dynamic range. Anchored so
    // the published 4-operand configuration keeps its 4b ADC.
    const int adc_bits = std::clamp(
        p.adcBits + bitsForCount(std::max(p.adderOperands, 2)) -
            bitsForCount(4),
        2, 12);
    appendLocalBuffer(b, p);
    b.container("macro")
        .component("shift_add", "ShiftAdd")
            .coalesce({kOut})
            .attr("width", std::int64_t{16})
        .component("dac_bank", "DAC")
            .noCoalesce({kIn})
            .attr("resolution", std::int64_t{p.dacBits})
            .attr("unit_cap_energy_fj", 40.0)
        .container("adder_groups")
            .spatial(p.cols / p.adderOperands, 1)
            .spatialReuse({kIn})
            .spatialDims({Dim::K})
        .component("adc", "ADC")
            .noCoalesce({kOut})
            .attr("resolution", std::int64_t{adc_bits})
            .attr("fom_fj_per_step", 50.0)
            .attr("fom_thermal_fj", 0.2)
        .component("analog_adder", "AnalogAdder")
            .coalesce({kOut})
            .attr("operands", std::int64_t{p.adderOperands})
            .attr("unit_energy_fj", 20.0)
        .container("group")
            .spatial(p.adderOperands, 1)
            .spatialReuse({kIn})
            .spatialDims({Dim::WB})
        .component("cells", "SRAMCell")
            .spatial(1, p.rows)
            .temporalReuse({kWt})
            .spatialReuse({kOut})
            .spatialDims({Dim::C, Dim::R, Dim::S})
            .attr("mac_energy_fj", 20.0)
            .attr("idle_fraction", 0.25);
}

void
appendC(HierarchyBuilder& b, const MacroParams& p)
{
    appendLocalBuffer(b, p);
    b.container("macro")
        .component("dac_bank", "DAC")
            .noCoalesce({kIn})
            .attr("resolution", std::int64_t{p.dacBits})
        .container("column")
            .spatial(p.cols, 1)
            .spatialReuse({kIn})
            .spatialDims({Dim::K})
        .component("adc", "ADC")
            .noCoalesce({kOut})
            .attr("resolution", std::int64_t{p.adcBits})
            .attr("fom_fj_per_step", 4.0)
            .attr("fom_thermal_fj", 0.005)
        .component("analog_accumulator", "AnalogAccumulator")
            .temporalReuse({kOut})
        .component("cells", "ReRAMCell")
            .spatial(1, p.rows)
            .temporalReuse({kWt})
            .spatialReuse({kOut})
            .spatialDims({Dim::C, Dim::R, Dim::S})
            .attr("v_read", 0.2)
            .attr("t_read_ns", 4.0)
            .attr("g_on_us", 50.0)
            .attr("idle_fraction", 0.25);
}

void
appendD(HierarchyBuilder& b, const MacroParams& p)
{
    std::int64_t bank_rows =
        p.weightBankRows > 0 ? p.weightBankRows : p.rows;
    appendLocalBuffer(b, p);
    b.container("macro")
        .component("shift_add", "ShiftAdd")
            .coalesce({kOut})
            .attr("width", std::int64_t{24})
        .component("dac_bank", "DAC")
            .noCoalesce({kIn})
            .attr("resolution", std::int64_t{p.dacBits})
        .component("weight_bank", "SRAM")
            .temporalReuse({kWt})
            .attr("entries", bank_rows * p.cols)
            .attr("width", std::int64_t{p.weightBits})
        .container("column")
            .spatial(p.cols, 1)
            .spatialReuse({kIn})
            .spatialDims({Dim::K})
        .component("adc", "ADC")
            .noCoalesce({kOut})
            .attr("resolution", std::int64_t{p.adcBits})
            .attr("fom_fj_per_step", 40.0)
            .attr("fom_thermal_fj", 0.07)
        .component("mac_units", "CapacitorMac")
            .spatial(1, p.rows)
            .temporalReuse({kWt})
            .spatialReuse({kOut})
            .spatialDims({Dim::C, Dim::R, Dim::S})
            .attr("bits", std::int64_t{p.cellBits})
            .attr("unit_energy_fj", 26.0)
            .attr("area_per_bit_um2", 10.0)
            .attr("idle_fraction", 0.25);
}

void
appendDigital(HierarchyBuilder& b, const MacroParams& p)
{
    appendLocalBuffer(b, p);
    b.container("macro")
        .component("adder_tree", "DigitalAdder")
            .coalesce({kOut})
            .attr("width", std::int64_t{24})
        .container("column")
            .spatial(p.cols, 1)
            .spatialReuse({kIn})
            .spatialDims({Dim::K, Dim::WB})
        .component("mac_units", "DigitalMac")
            .spatial(1, p.rows)
            .temporalReuse({kWt})
            .spatialDims({Dim::C, Dim::R, Dim::S});
}

/**
 * One buildable macro: the lower-case names it answers to, the name of
 * the Arch it builds, its Table III defaults and its builder.
 */
struct MacroKind
{
    std::array<const char*, 2> aliases; //!< nullptr: no second alias
    const char* archName;
    MacroParams (*defaults)();
    void (*append)(HierarchyBuilder&, const MacroParams&);
};

const MacroKind kMacroKinds[] = {
    {{"base", nullptr}, "base_macro", baseDefaults, appendBase},
    {{"a", "macro_a"}, "macro_A", macroADefaults, appendA},
    {{"b", "macro_b"}, "macro_B", macroBDefaults, appendB},
    {{"c", "macro_c"}, "macro_C", macroCDefaults, appendC},
    {{"d", "macro_d"}, "macro_D", macroDDefaults, appendD},
    {{"digital", "digital_cim"}, "digital_cim", digitalCimDefaults,
     appendDigital},
};

/** The kind @p name names, in any case; fatal when unknown. */
const MacroKind&
kindByName(const std::string& name)
{
    const std::string n = toLower(name);
    for (const MacroKind& kind : kMacroKinds)
        for (const char* alias : kind.aliases)
            if (alias != nullptr && n == alias)
                return kind;
    CIM_FATAL("unknown macro '", name,
              "' (expected base, A, B, C, D, or digital)");
}

/** Builds @p kind as a complete Arch with params @p p. */
engine::Arch
build(const MacroKind& kind, const MacroParams& p)
{
    HierarchyBuilder b(kind.archName);
    kind.append(b, p);
    engine::Arch arch;
    arch.name = kind.archName;
    arch.hierarchy = b.build();
    applyMacroParams(arch, p);
    return arch;
}

} // namespace

void
applyMacroParams(engine::Arch& arch, const MacroParams& p)
{
    arch.technologyNm = p.technologyNm;
    arch.supplyVoltage = p.supplyVoltage;
    arch.rep.inputEncoding = p.inputEncoding;
    arch.rep.weightEncoding = p.weightEncoding;
    arch.rep.inputBits = p.inputBits;
    arch.rep.weightBits = p.weightBits;
    arch.rep.dacBits = p.dacBits;
    arch.rep.cellBits = p.cellBits;
    arch.rep.outputBits =
        p.inputBits + p.weightBits +
        bitsForCount(std::max<std::int64_t>(p.rows, 2));
}

double
macroOnlyEnergyPj(const engine::Arch& arch, const engine::Evaluation& ev)
{
    CIM_ASSERT(ev.nodeEnergyPj.size() == arch.hierarchy.nodes.size(),
               "evaluation does not match the architecture");
    int start = arch.hierarchy.indexOf("macro");
    if (start < 0)
        start = 0;
    double total = 0.0;
    for (std::size_t i = start; i < ev.nodeEnergyPj.size(); ++i)
        total += ev.nodeEnergyPj[i];
    return total;
}

double
macroTopsPerWatt(const engine::Arch& arch, const engine::Evaluation& ev)
{
    double macro_pj = macroOnlyEnergyPj(arch, ev);
    return macro_pj > 0.0 ? 2.0 * ev.macs / macro_pj : 0.0;
}

int
scaledAdcBits(std::int64_t rows, int bits_at_128)
{
    CIM_ASSERT(rows >= 1, "scaledAdcBits needs rows >= 1");
    int delta = bitsForCount(std::max<std::int64_t>(rows, 2)) -
                bitsForCount(128);
    return std::max(2, std::min(12, bits_at_128 + delta));
}

void
appendMacro(HierarchyBuilder& builder, const MacroParams& p,
            const std::string& kind)
{
    kindByName(kind).append(builder, p);
}

MacroParams
baseDefaults()
{
    // NeuroSim's validated 40 nm ReRAM macro [Lu et al.].
    MacroParams p;
    p.rows = 128;
    p.cols = 128;
    p.technologyNm = 40.0;
    p.dacBits = 1;
    p.cellBits = 1;
    p.adcBits = 5;
    p.bufferKb = 16;
    return p;
}

MacroParams
macroADefaults()
{
    // Jia et al., JSSC 2020: 65 nm SRAM, 768x768 binary cells, 8b ADC,
    // bit-serial 1b inputs, XNOR binary encoding, 3-column output reuse.
    MacroParams p;
    p.rows = 768;
    p.cols = 768;
    p.technologyNm = 65.0;
    p.inputBits = 8;
    p.weightBits = 8;
    p.dacBits = 1;
    p.cellBits = 1;
    p.adcBits = 8;
    p.outputReuseCols = 3;
    p.bufferKb = 64;
    p.inputEncoding = dist::Encoding::Xnor;
    p.weightEncoding = dist::Encoding::Xnor;
    return p;
}

MacroParams
macroBDefaults()
{
    // Sinangil et al., JSSC 2021: 7 nm SRAM, 64x64, 4b in/wt/out, analog
    // adder over 4 columns storing different bits of the same weight.
    MacroParams p;
    p.rows = 64;
    p.cols = 64;
    p.technologyNm = 7.0;
    p.inputBits = 4;
    p.weightBits = 4;
    p.dacBits = 4;
    p.cellBits = 1;
    p.adcBits = 4;
    p.adderOperands = 4;
    p.bufferKb = 2;
    return p;
}

MacroParams
macroCDefaults()
{
    // Wan et al., ISSCC 2020 / Nature 2022: 130 nm CMOS-ReRAM, 256x256,
    // analog weights (one cell per weight), bit-serial inputs integrated
    // on an analog accumulator, 8b ADC nominal (paper sweeps 1-10).
    MacroParams p;
    p.rows = 256;
    p.cols = 256;
    p.technologyNm = 130.0;
    p.inputBits = 8;
    p.weightBits = 8;
    p.dacBits = 1;
    p.cellBits = 8; // analog cell stores the full weight
    p.adcBits = 8;
    p.bufferKb = 4;
    return p;
}

MacroParams
macroDDefaults()
{
    // Wang et al., JSSC 2023: 22 nm SRAM, C-2C ladder 8b MAC units,
    // 512x128 array with a 64x128 active subset.
    MacroParams p;
    p.rows = 64; // active rows
    p.cols = 128;
    p.technologyNm = 22.0;
    p.inputBits = 8;
    p.weightBits = 8;
    p.dacBits = 8;
    p.cellBits = 8;
    p.adcBits = 8;
    p.weightBankRows = 512;
    p.bufferKb = 8;
    return p;
}

MacroParams
digitalCimDefaults()
{
    // Kim et al. "Colonnade", JSSC 2021: 65 nm bit-serial digital CiM.
    MacroParams p;
    p.rows = 128;
    p.cols = 128;
    p.technologyNm = 65.0;
    p.inputBits = 8;
    p.weightBits = 8;
    p.dacBits = 1;
    p.cellBits = 1;
    p.adcBits = 0; // no ADC at all
    return p;
}

engine::Arch
baseMacro(const MacroParams& p)
{
    return build(kindByName("base"), p);
}

engine::Arch
macroA(const MacroParams& p)
{
    return build(kindByName("a"), p);
}

engine::Arch
macroB(const MacroParams& p)
{
    return build(kindByName("b"), p);
}

engine::Arch
macroC(const MacroParams& p)
{
    return build(kindByName("c"), p);
}

engine::Arch
macroD(const MacroParams& p)
{
    return build(kindByName("d"), p);
}

engine::Arch
digitalCim(const MacroParams& p)
{
    return build(kindByName("digital"), p);
}

MacroParams
defaultsByName(const std::string& name)
{
    return kindByName(name).defaults();
}

engine::Arch
macroByName(const std::string& name)
{
    return macroByName(name, defaultsByName(name));
}

engine::Arch
macroByName(const std::string& name, const MacroParams& p)
{
    return build(kindByName(name), p);
}

} // namespace cimloop::macros
