/**
 * Robustness: the parser must never crash or corrupt memory on mangled
 * input — every malformed document must either parse to something or
 * raise FatalError. Deterministic mutation fuzzing over a corpus of
 * valid documents.
 */
#include "cimloop/yaml/parser.hh"

#include <gtest/gtest.h>

#include "cimloop/common/error.hh"
#include "cimloop/common/util.hh"
#include "support/mutate.hh"

namespace cimloop::yaml {
namespace {

const char* kCorpus[] = {
    "a: 1\nb:\n  c: [1, 2, {d: x}]\n",
    "!Component\nname: buffer\ntemporal_reuse: [Inputs, Outputs]\n"
    "!Container\nname: macro\nspatial: {meshX: 2, meshY: 4}\n",
    "- 1\n- [a, b]\n- name: x\n  v: 2.5\n",
    "k: \"quoted # text\" # comment\nl: 'single'\nm: -3.7e2\n",
    "layers:\n  - {name: l0, dims: {C: 16, K: 16}}\n  - name: l1\n"
    "    dims: {C: 8}\n",
};

TEST(Robustness, MutatedDocumentsNeverCrash)
{
    Rng rng(0xC0FFEE);
    int parsed = 0, rejected = 0;
    for (const char* base : kCorpus) {
        for (int trial = 0; trial < 400; ++trial) {
            std::string doc = fuzz::mutateBytes(base, rng);
            try {
                Node n = parse(doc);
                // Whatever parsed must be traversable and printable.
                (void)n.toString();
                ++parsed;
            } catch (const FatalError&) {
                ++rejected;
            }
            // Any other exception type escapes and fails the test.
        }
    }
    // Both outcomes must actually occur (the fuzzer is doing work).
    EXPECT_GT(parsed, 100);
    EXPECT_GT(rejected, 100);
}

TEST(Robustness, TruncationsNeverCrash)
{
    for (const char* base : kCorpus) {
        std::string doc(base);
        for (std::size_t len = 0; len <= doc.size(); ++len) {
            try {
                (void)parse(doc.substr(0, len)).toString();
            } catch (const FatalError&) {
            }
        }
    }
}

TEST(Robustness, DeepFlowNestingBounded)
{
    // 300 levels of nested flow sequences parse (recursion is linear in
    // input size) and render back.
    std::string doc;
    for (int i = 0; i < 300; ++i)
        doc += '[';
    doc += '1';
    for (int i = 0; i < 300; ++i)
        doc += ']';
    Node n = parseScalar(doc);
    for (int i = 0; i < 300; ++i)
        n = n[std::size_t{0}];
    EXPECT_EQ(n.asInt(), 1);
}

} // namespace
} // namespace cimloop::yaml
