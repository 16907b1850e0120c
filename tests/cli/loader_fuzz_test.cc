/**
 * Loader fuzz: every user-file loader (arch, workload, layout, faults,
 * sweep) must turn a mangled or out-of-range document into a clean exit
 * through cli::run — 0, or 1 with a `fatal:`-style message — and never
 * into a PanicError, a "panic:" line or a crash. Each case starts from
 * one valid document and either applies random byte edits or swaps one
 * numeric scalar for a boundary value. Seeded, so a failing case
 * reproduces; CI also runs these under ASan+UBSan.
 */
#include "cimloop/cli/cli.hh"

#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cimloop/common/error.hh"
#include "cimloop/common/util.hh"
#include "support/mutate.hh"

namespace cimloop::cli {
namespace {

const char* kArch = "!Component\n"
                    "name: buffer\n"
                    "class: SRAM\n"
                    "temporal_reuse: [Inputs, Outputs]\n"
                    "entries: 8192\n"
                    "width: 64\n"
                    "!Component\n"
                    "name: dac\n"
                    "class: DAC\n"
                    "no_coalesce: [Inputs]\n"
                    "resolution: 1\n"
                    "!Container\n"
                    "name: col\n"
                    "spatial: {meshX: 16}\n"
                    "spatial_reuse: [Inputs]\n"
                    "spatial_dims: [K, WB]\n"
                    "!Component\n"
                    "name: adc\n"
                    "class: ADC\n"
                    "no_coalesce: [Outputs]\n"
                    "resolution: 4\n"
                    "!Component\n"
                    "name: adder\n"
                    "class: AnalogAdder\n"
                    "coalesce: [Outputs]\n"
                    "operands: 4\n"
                    "!Component\n"
                    "name: cells\n"
                    "class: ReRAMCell\n"
                    "spatial: {meshY: 16}\n"
                    "temporal_reuse: [Weights]\n"
                    "spatial_reuse: [Outputs]\n"
                    "spatial_dims: [C, R, S]\n";

const char* kWorkload = "name: tiny\n"
                        "layers:\n"
                        "  - {name: l0, dims: {C: 16, K: 16, P: 8}}\n"
                        "  - name: l1\n"
                        "    dims: {C: 8, K: 4, P: 2, R: 3, S: 3}\n"
                        "    input_bits: 8\n"
                        "    weight_bits: 4\n"
                        "    count: 2\n";

const char* kLayout = "layout:\n"
                      "  name: fuzz\n"
                      "  nodes:\n"
                      "    - node: buffer\n"
                      "      tensors:\n"
                      "        - tensor: Inputs\n"
                      "          rank_order: [C, P]\n"
                      "          banks: 4\n"
                      "          interleave: 1\n"
                      "        - tensor: Outputs\n"
                      "          banks: 2\n"
                      "          interleave: 2\n";

const char* kFaults = "faults:\n"
                      "  stuck_off_rate: 0.01\n"
                      "  stuck_on_rate: 0.005\n"
                      "  conductance_sigma: 0.2\n"
                      "  adc_offset: 0.01\n"
                      "  adc_noise_sigma: 0.005\n"
                      "  seed: 7\n";

/** The sweep document; `@WORKLOAD@` becomes the tiny workload's path. */
const char* kSweep = "sweep:\n"
                     "  name: fuzz\n"
                     "  macro: base\n"
                     "  workload: @WORKLOAD@\n"
                     "  seed: 1\n"
                     "  mappings: 3\n"
                     "  objective: energy\n"
                     "  pareto: [energy, latency]\n"
                     "  axes:\n"
                     "    - field: dac_bits\n"
                     "      values: [1, 2]\n"
                     "    - field: array\n"
                     "      values: [64, 128]\n"
                     "    - field: cell_bits\n"
                     "      values: [2]\n"
                     "    - field: voltage\n"
                     "      values: [0.8]\n"
                     "    - field: fault_stuck_rate\n"
                     "      values: [0.01]\n"
                     "    - field: fault_seed\n"
                     "      values: [3]\n"
                     "    - field: weight_bits\n"
                     "      range: {from: 4, to: 8, mult: 2}\n"
                     "  constraints:\n"
                     "    - {field: rows, max: 4096}\n";

const char* kBoundaryValues[] = {"0",   "-1",  "17",         "33",
                                 "40",  "65",  "1e6",        "2147483648",
                                 "1e11", "1e300", "0.5",     "nan"};

/** Offsets and lengths of the numeric scalars in @p doc. */
std::vector<std::pair<std::size_t, std::size_t>>
numericTokens(const std::string& doc)
{
    std::vector<std::pair<std::size_t, std::size_t>> out;
    std::size_t i = 0;
    while (i < doc.size()) {
        const bool starts =
            std::isdigit(static_cast<unsigned char>(doc[i])) ||
            (doc[i] == '-' && i + 1 < doc.size() &&
             std::isdigit(static_cast<unsigned char>(doc[i + 1])));
        const bool glued =
            i > 0 && (std::isalnum(static_cast<unsigned char>(doc[i - 1])) ||
                      doc[i - 1] == '_' || doc[i - 1] == '.' ||
                      doc[i - 1] == '/');
        if (!starts || glued) {
            ++i;
            continue;
        }
        std::size_t j = i + 1;
        while (j < doc.size() &&
               (std::isalnum(static_cast<unsigned char>(doc[j])) ||
                doc[j] == '.' || doc[j] == '+' || doc[j] == '-'))
            ++j;
        // A million mapping samples is valid input, only slow: keep the
        // search budget out of the swaps so the fuzz stays fast.
        const std::size_t line = doc.rfind('\n', i) + 1;
        if (doc.substr(line, i - line).find("mappings") ==
            std::string::npos)
            out.push_back({i, j - i});
        i = j;
    }
    return out;
}

/** Swaps one numeric scalar of @p base for a boundary value. */
std::string
swapNumber(const std::string& base, Rng& rng)
{
    const auto tokens = numericTokens(base);
    if (tokens.empty())
        return base;
    const auto [pos, len] = tokens[rng.below(tokens.size())];
    const char* value = kBoundaryValues[rng.below(
        sizeof(kBoundaryValues) / sizeof(kBoundaryValues[0]))];
    return base.substr(0, pos) + value + base.substr(pos + len);
}

std::string
tempPath(const std::string& name)
{
    return (std::filesystem::temp_directory_path() /
            ("cimloop_loader_fuzz_" + name))
        .string();
}

void
writeFile(const std::string& path, const std::string& text)
{
    std::ofstream f(path);
    f << text;
}

/**
 * Runs @p cases mutants of @p base through cli::run: the document is
 * written to @p doc_path before each run of @p args. Byte edits and
 * numeric swaps alternate. Every case must exit 0 or 1 without a panic;
 * both outcomes must occur, so the fuzz is exercising the loader.
 */
void
fuzzLoader(const std::string& base, const std::string& doc_path,
           const std::vector<std::string>& args, std::uint64_t seed,
           int cases)
{
    std::ostringstream clean_out, clean_err;
    writeFile(doc_path, base);
    ASSERT_EQ(run(args, clean_out, clean_err), 0) << clean_err.str();

    Rng rng(seed);
    int ok = 0, rejected = 0;
    for (int c = 0; c < cases; ++c) {
        const std::string doc = c % 2 == 0 ? fuzz::mutateBytes(base, rng)
                                           : swapNumber(base, rng);
        writeFile(doc_path, doc);
        std::ostringstream out, err;
        int rc = -1;
        try {
            rc = run(args, out, err);
        } catch (const PanicError& e) {
            ADD_FAILURE() << "case " << c << " panicked: " << e.what()
                          << "\n--- document ---\n" << doc;
            continue;
        }
        const std::string text = out.str() + err.str();
        EXPECT_TRUE(rc == 0 || rc == 1)
            << "case " << c << " exited " << rc << "\n" << text
            << "\n--- document ---\n" << doc;
        EXPECT_EQ(text.find("panic"), std::string::npos)
            << "case " << c << ":\n" << text << "\n--- document ---\n"
            << doc;
        (rc == 0 ? ok : rejected) += 1;
    }
    EXPECT_GT(ok, cases / 10);
    EXPECT_GT(rejected, cases / 10);
    std::filesystem::remove(doc_path);
}

constexpr int kCases = 300;

TEST(LoaderFuzz, Arch)
{
    const std::string arch = tempPath("arch.yaml");
    const std::string net = tempPath("arch_net.yaml");
    writeFile(net, kWorkload);
    fuzzLoader(kArch, arch,
               {"--arch", arch, "--workload", net, "--mappings", "3"},
               0xA2C4, kCases);
    std::filesystem::remove(net);
}

TEST(LoaderFuzz, Workload)
{
    // A YAML arch sets no operand widths, so the layers' own are used.
    const std::string net = tempPath("workload.yaml");
    const std::string arch = tempPath("workload_arch.yaml");
    writeFile(arch, kArch);
    fuzzLoader(kWorkload, net,
               {"--arch", arch, "--workload", net, "--mappings", "3"},
               0x3012, kCases);
    std::filesystem::remove(arch);
}

TEST(LoaderFuzz, Layout)
{
    const std::string layout = tempPath("layout.yaml");
    const std::string net = tempPath("layout_net.yaml");
    writeFile(net, kWorkload);
    fuzzLoader(kLayout, layout,
               {"--macro", "base", "--workload", net, "--layout", layout,
                "--mappings", "3"},
               0x1A7, kCases);
    std::filesystem::remove(net);
}

TEST(LoaderFuzz, Faults)
{
    const std::string faults = tempPath("faults.yaml");
    const std::string net = tempPath("faults_net.yaml");
    writeFile(net, kWorkload);
    fuzzLoader(kFaults, faults,
               {"--macro", "base", "--workload", net, "--faults", faults,
                "--mappings", "3"},
               0xFA17, kCases);
    std::filesystem::remove(net);
}

TEST(LoaderFuzz, Sweep)
{
    const std::string sweep = tempPath("sweep.yaml");
    const std::string net = tempPath("sweep_net.yaml");
    writeFile(net, kWorkload);
    std::string doc = kSweep;
    doc.replace(doc.find("@WORKLOAD@"), 10, net);
    fuzzLoader(doc, sweep, {"--sweep", sweep}, 0x5EE9, kCases);
    std::filesystem::remove(net);
}

} // namespace
} // namespace cimloop::cli
