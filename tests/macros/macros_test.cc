#include "cimloop/macros/macros.hh"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "cimloop/common/error.hh"
#include "cimloop/engine/evaluate.hh"
#include "cimloop/spec/builder.hh"
#include "cimloop/workload/networks.hh"

namespace cimloop::macros {
namespace {

using engine::Arch;
using engine::searchMappings;
using engine::SearchResult;
using workload::matmulLayer;

/** A layer that exactly fills a rows x cols array of 1b cells. */
workload::Layer
matchedLayer(const Arch& arch, std::int64_t rows, std::int64_t cols,
             std::int64_t vectors = 16)
{
    workload::Layer l = matmulLayer("mvm", vectors, rows, cols);
    l.network = "mvm";
    (void)arch;
    return l;
}

TEST(TableIII, DefaultsMatchPaper)
{
    MacroParams a = macroADefaults();
    EXPECT_EQ(a.rows, 768);
    EXPECT_EQ(a.cols, 768);
    EXPECT_DOUBLE_EQ(a.technologyNm, 65.0);
    EXPECT_EQ(a.adcBits, 8);
    EXPECT_EQ(a.outputReuseCols, 3); // Jia et al. fabricated 3-column reuse

    MacroParams b = macroBDefaults();
    EXPECT_EQ(b.rows, 64);
    EXPECT_DOUBLE_EQ(b.technologyNm, 7.0);
    EXPECT_EQ(b.inputBits, 4);
    EXPECT_EQ(b.adcBits, 4);

    MacroParams c = macroCDefaults();
    EXPECT_EQ(c.rows, 256);
    EXPECT_DOUBLE_EQ(c.technologyNm, 130.0);
    EXPECT_EQ(c.cellBits, 8); // analog weight: one cell per weight

    MacroParams d = macroDDefaults();
    EXPECT_EQ(d.cols, 128);
    EXPECT_DOUBLE_EQ(d.technologyNm, 22.0);
    EXPECT_EQ(d.weightBankRows, 512);
    EXPECT_EQ(d.dacBits, 8);
}

TEST(Builders, AllValidateAndEvaluate)
{
    for (const char* name : {"base", "A", "B", "C", "D", "digital"}) {
        Arch arch = macroByName(name);
        workload::Layer layer = matchedLayer(arch, 64, 32, 4);
        SearchResult sr = searchMappings(arch, layer, 40, 1);
        EXPECT_TRUE(sr.best.valid) << name;
        EXPECT_GT(sr.best.energyPj, 0.0) << name;
        EXPECT_GT(sr.best.topsPerWatt(), 0.05) << name;
        EXPECT_LT(sr.best.topsPerWatt(), 20000.0) << name;
    }
    EXPECT_THROW(macroByName("E"), FatalError);
}

TEST(MacroA, OutputReuseTradesAdcForDac)
{
    // Paper Fig. 12: reusing outputs between N columns increases output
    // reuse Nx (fewer ADC converts per MAC) but decreases input reuse Nx
    // (more DAC converts per MAC). As in the paper, each configuration
    // runs its own maximum-utilization MVM (dimensions matching the
    // array: reduction = rows x N, outputs fill the column groups).
    auto convertsPerOp = [&](int reuse_cols) {
        MacroParams p = macroADefaults();
        p.outputReuseCols = reuse_cols;
        Arch arch = macroA(p);
        std::int64_t groups = p.cols / reuse_cols;
        // WB = 8 weight-bit slices share the column groups with K.
        workload::Layer layer =
            matmulLayer("mvm", 8, p.rows * reuse_cols, groups / 8);
        layer.network = "mvm";
        engine::PerActionTable table = engine::precompute(arch, layer);
        mapping::Mapper mapper(arch.hierarchy, table.extLayer);
        mapping::NestResult nest = mapping::analyzeNest(
            arch.hierarchy, mapper.greedy(), table.extLayer);
        EXPECT_TRUE(nest.valid) << nest.invalidReason;
        int adc = arch.hierarchy.indexOf("adc");
        int dac = arch.hierarchy.indexOf("dac_bank");
        return std::pair{nest.nodes[adc].tensors[2].actions / nest.totalOps,
                         nest.nodes[dac].tensors[0].actions /
                             nest.totalOps};
    };

    auto [adc1, dac1] = convertsPerOp(1);
    auto [adc3, dac3] = convertsPerOp(3);
    EXPECT_NEAR(adc1 / adc3, 3.0, 0.1); // 3x fewer ADC converts per MAC
    EXPECT_NEAR(dac3 / dac1, 3.0, 0.1); // 3x more DAC converts per MAC
}

TEST(MacroB, AnalogAdderCutsAdcConverts)
{
    workload::Layer layer = matmulLayer("mvm", 8, 64, 16);
    layer.network = "mvm";
    auto adcConverts = [&](int operands) {
        MacroParams p = macroBDefaults();
        p.adderOperands = operands;
        Arch arch = macroB(p);
        engine::PerActionTable table = engine::precompute(arch, layer);
        mapping::Mapper mapper(arch.hierarchy, table.extLayer);
        mapping::NestResult nest = mapping::analyzeNest(
            arch.hierarchy, mapper.greedy(), table.extLayer);
        EXPECT_TRUE(nest.valid) << nest.invalidReason;
        int adc = arch.hierarchy.indexOf("adc");
        return nest.nodes[adc].tensors[2].actions;
    };
    // 4-operand adders merge the 4 weight-bit columns before the ADC.
    EXPECT_LT(adcConverts(4), adcConverts(1));
}

TEST(MacroC, AccumulatorMakesAdcConvertsInputBitInvariant)
{
    // Paper Fig. 3 Macro C: outputs accumulate across input-bit cycles, so
    // ADC converts do not scale with the number of input bits.
    auto adcConverts = [&](int input_bits) {
        MacroParams p = macroCDefaults();
        p.inputBits = input_bits;
        Arch arch = macroC(p);
        workload::Layer layer = matmulLayer("mvm", 4, 256, 64);
        layer.network = "mvm";
        engine::PerActionTable table = engine::precompute(arch, layer);
        mapping::Mapper mapper(arch.hierarchy, table.extLayer);
        mapping::NestResult nest = mapping::analyzeNest(
            arch.hierarchy, mapper.greedy(), table.extLayer);
        EXPECT_TRUE(nest.valid) << nest.invalidReason;
        int adc = arch.hierarchy.indexOf("adc");
        int dac = arch.hierarchy.indexOf("dac_bank");
        return std::pair{nest.nodes[adc].tensors[2].actions,
                         nest.nodes[dac].tensors[0].actions};
    };
    auto [adc2, dac2] = adcConverts(2);
    auto [adc8, dac8] = adcConverts(8);
    EXPECT_DOUBLE_EQ(adc2, adc8);          // accumulation across cycles
    EXPECT_NEAR(dac8 / dac2, 4.0, 1e-9);   // DAC still pays per bit
}

TEST(MacroD, SingleActivationPerEightBitMac)
{
    // 8b DAC + 8b C-2C MAC: IB = WB = 1, so unit ops equal MACs.
    Arch arch = macroD();
    workload::Layer layer = matmulLayer("mvm", 4, 64, 128);
    layer.network = "mvm";
    workload::Layer ext = arch.extendLayer(layer);
    EXPECT_EQ(ext.size(workload::Dim::IB), 1);
    EXPECT_EQ(ext.size(workload::Dim::WB), 1);
}

TEST(DigitalCim, HasNoConverters)
{
    Arch arch = digitalCim();
    EXPECT_EQ(arch.hierarchy.indexOf("adc"), -1);
    EXPECT_EQ(arch.hierarchy.indexOf("dac_bank"), -1);
    workload::Layer layer = matchedLayer(arch, 128, 64, 8);
    SearchResult sr = searchMappings(arch, layer, 40, 1);
    EXPECT_TRUE(sr.best.valid);
}

TEST(Validation, BadParamsRejected)
{
    MacroParams p = macroADefaults();
    p.outputReuseCols = 7; // does not divide 768... actually it does not
    EXPECT_THROW(macroA(p), PanicError);
    MacroParams b = macroBDefaults();
    b.adderOperands = 5;
    EXPECT_THROW(macroB(b), PanicError);
}

TEST(Validation, UserReachableParamsAreFatal)
{
    // Sweep axes and CLI flags set these directly: a bad value is a
    // spec error naming the parameter, for every macro kind.
    auto message = [](const std::string& kind, MacroParams p) {
        try {
            macroByName(kind, p);
        } catch (const FatalError& e) {
            return std::string(e.what());
        }
        return std::string("accepted");
    };
    MacroParams p = baseDefaults();
    p.rows = 0;
    EXPECT_NE(message("base", p).find("rows"), std::string::npos);
    p = baseDefaults();
    p.cols = std::int64_t{1} << 40;
    EXPECT_NE(message("base", p).find("cols"), std::string::npos);
    p = macroCDefaults();
    p.weightBits = 40;
    EXPECT_NE(message("C", p).find("weight_bits"), std::string::npos);
    p = digitalCimDefaults();
    p.inputBits = 0;
    EXPECT_NE(message("digital", p).find("input_bits"), std::string::npos);
    p = macroADefaults();
    p.dacBits = 0;
    EXPECT_NE(message("A", p).find("dac_bits"), std::string::npos);
    p = macroDDefaults();
    p.cellBits = -1;
    EXPECT_NE(message("D", p).find("cell_bits"), std::string::npos);
    p = macroBDefaults();
    p.bufferKb = 0;
    EXPECT_NE(message("B", p).find("buffer_kb"), std::string::npos);
}

TEST(Macros, AliasesResolveAlikeEverywhere)
{
    // Every name of a macro, in any case, picks the same defaults, Arch
    // and embedded hierarchy through every entry point.
    struct Kind
    {
        const char* archName;
        MacroParams (*defaults)();
        Arch (*build)(const MacroParams&);
        std::vector<std::string> aliases;
    };
    const Kind kinds[] = {
        {"base_macro", baseDefaults, baseMacro, {"base", "Base", "BASE"}},
        {"macro_A", macroADefaults, macroA,
         {"a", "A", "macro_a", "Macro_A"}},
        {"macro_B", macroBDefaults, macroB,
         {"b", "B", "macro_b", "MACRO_B"}},
        {"macro_C", macroCDefaults, macroC,
         {"c", "C", "macro_c", "mAcRo_C"}},
        {"macro_D", macroDDefaults, macroD,
         {"d", "D", "macro_d", "Macro_d"}},
        {"digital_cim", digitalCimDefaults, digitalCim,
         {"digital", "Digital", "digital_cim", "Digital_CIM"}},
    };
    for (const Kind& kind : kinds) {
        const MacroParams want = kind.defaults();
        const Arch built = kind.build(want);
        EXPECT_EQ(built.name, kind.archName);
        const std::string yaml = built.hierarchy.toYamlText();
        for (const std::string& alias : kind.aliases) {
            SCOPED_TRACE(alias);
            const MacroParams p = defaultsByName(alias);
            EXPECT_EQ(p.rows, want.rows);
            EXPECT_EQ(p.cols, want.cols);
            EXPECT_EQ(p.technologyNm, want.technologyNm);
            EXPECT_EQ(p.adcBits, want.adcBits);
            EXPECT_EQ(p.bufferKb, want.bufferKb);
            const Arch by_name = macroByName(alias);
            EXPECT_EQ(by_name.name, kind.archName);
            EXPECT_EQ(by_name.hierarchy.toYamlText(), yaml);
            EXPECT_EQ(macroByName(alias, want).name, kind.archName);
            spec::HierarchyBuilder b(kind.archName);
            appendMacro(b, want, alias);
            EXPECT_EQ(b.build().toYamlText(), yaml);
        }
    }

    // An unknown name is the same spec error from each entry point.
    auto fatal = [](const std::function<void()>& f) {
        try {
            f();
        } catch (const FatalError& e) {
            return std::string(e.what());
        }
        return std::string("accepted");
    };
    const std::string want =
        "fatal: unknown macro 'Macro_E' (expected base, A, B, C, D, or "
        "digital)";
    EXPECT_EQ(fatal([] { defaultsByName("Macro_E"); }), want);
    EXPECT_EQ(fatal([] { macroByName("Macro_E"); }), want);
    EXPECT_EQ(fatal([] { macroByName("Macro_E", baseDefaults()); }), want);
    EXPECT_EQ(fatal([] {
                  spec::HierarchyBuilder b("sys");
                  appendMacro(b, baseDefaults(), "Macro_E");
              }),
              want);
}

TEST(Calibration, MacroEfficienciesInPublishedBallpark)
{
    // Published: Macro B 351 TOPS/W (4b), Macro D 32.2 TOPS/W (8b),
    // Macro C 74 TMACS/W (~148 TOPS/W equivalent). We require order-of-
    // magnitude agreement: substitutes for silicon, not the silicon.
    struct Case
    {
        const char* name;
        double published_tops_w;
        std::int64_t rows, cols;
    };
    for (const Case& c : {Case{"B", 351.0, 64, 64},
                          Case{"D", 32.2, 64, 128}}) {
        Arch arch = macroByName(c.name);
        workload::Layer layer =
            matmulLayer("mvm", 2048, c.rows, c.cols);
        layer.network = "mvm";
        SearchResult sr = searchMappings(arch, layer, 60, 1);
        double tops_w = sr.best.topsPerWatt();
        EXPECT_GT(tops_w, c.published_tops_w / 10.0) << c.name;
        EXPECT_LT(tops_w, c.published_tops_w * 10.0) << c.name;
    }
}

} // namespace
} // namespace cimloop::macros
