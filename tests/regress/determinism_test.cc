/**
 * Seed/thread-sweep determinism: one workload evaluated at --threads
 * 1/2/8 for seeds {1,2,3} must produce a byte-identical metrics-JSON
 * counters block (span timings are excluded by construction — they
 * live in a separate block). Table-driven over the engine, refsim, and
 * faults paths.
 *
 * This is the load-bearing guarantee behind the golden-metrics harness
 * and behind every "bit-identical at any --threads" claim the previous
 * PRs made: if a counter is bumped from a scheduling-dependent place
 * (e.g. a cache miss counted by a losing racer), this test fails.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "regress_util.hh"
#include "support/scratch.hh"

namespace cimloop::regress {
namespace {

struct Scenario
{
    const char* name;
    std::vector<std::string> args; // without --seed/--threads/--metrics
};

/** Writes the sweep spec the dse scenario runs (includes a design that
 *  fails keep-going, so the diagnostic path is in the sweep too). */
std::string
sweepSpecPath()
{
    static const std::string path = [] {
        const std::string p = support::scratchPath("det_sweep.yaml");
        std::ofstream out(p);
        out << "sweep:\n"
               "  name: det\n"
               "  network: mvm\n"
               "  mappings: 8\n"
               "  scaled_adc: true\n"
               "  axes:\n"
               "    - field: array\n"
               "      values: [64, 128, 4096]\n"
               "    - field: dac_bits\n"
               "      values: [1, 8]\n";
        return p;
    }();
    return path;
}

/** Writes the fixed layout spec the engine_layout scenario pins. */
std::string
layoutSpecPath()
{
    static const std::string path = [] {
        const std::string p = support::scratchPath("det_layout.yaml");
        std::ofstream out(p);
        out << "layout:\n"
               "  name: banked4\n"
               "  nodes:\n"
               "    - node: buffer\n"
               "      tensors:\n"
               "        - tensor: Inputs\n"
               "          banks: 4\n"
               "        - tensor: Outputs\n"
               "          banks: 4\n";
        return p;
    }();
    return path;
}

std::vector<Scenario>
scenarios()
{
    return {
        {"engine",
         {"--macro", "base", "--network", "mvm", "--mappings", "24"}},
        {"engine_layout",
         {"--macro", "base", "--network", "mvm", "--mappings", "24",
          "--layout", layoutSpecPath()}},
        {"engine_cosearch",
         {"--macro", "base", "--network", "mvm", "--mappings", "24",
          "--objective", "delay", "--layout-search"}},
        {"engine_faults",
         {"--macro", "base", "--network", "mvm", "--mappings", "24",
          "--fault-stuck-rate", "0.02", "--fault-sigma", "0.1"}},
        {"refsim",
         {"--refsim", "--network", "mvm", "--refsim-vectors", "4"}},
        {"refsim_faults",
         {"--refsim", "--network", "mvm", "--refsim-vectors", "4",
          "--fault-stuck-rate", "0.05", "--fault-sigma", "0.2"}},
        {"sweep", {"--sweep", sweepSpecPath()}},
    };
}

TEST(Determinism, CountersByteIdenticalAcrossThreadSweep)
{
    for (const Scenario& sc : scenarios()) {
        for (const char* seed : {"1", "2", "3"}) {
            std::string reference;
            for (const char* threads : {"1", "2", "8"}) {
                std::vector<std::string> args = sc.args;
                args.insert(args.end(), {"--seed", seed, "--threads",
                                         threads});
                CliRun run = runCliWithMetrics(
                    args, std::string("det_") + sc.name + "_s" + seed +
                              "_t" + threads);
                ASSERT_EQ(run.rc, 0)
                    << sc.name << " seed " << seed << " threads "
                    << threads << ": " << run.err;
                ASSERT_FALSE(run.counters.empty())
                    << sc.name << " seed " << seed << " threads "
                    << threads;
                if (reference.empty()) {
                    reference = run.counters;
                } else {
                    EXPECT_EQ(run.counters, reference)
                        << sc.name << " seed " << seed << " threads "
                        << threads
                        << ": counters depend on thread count";
                }
            }
        }
    }
}

TEST(Determinism, RepeatRunsAreByteIdentical)
{
    // Same seed, same threads, run twice in one process: the per-run
    // reset (obs counters + per-action cache) must make the second run
    // indistinguishable from the first.
    const Scenario sc = scenarios()[0];
    std::string first;
    for (int rep = 0; rep < 2; ++rep) {
        std::vector<std::string> args = sc.args;
        args.insert(args.end(), {"--seed", "1", "--threads", "2"});
        CliRun run = runCliWithMetrics(
            args, "det_repeat_" + std::to_string(rep));
        ASSERT_EQ(run.rc, 0) << run.err;
        if (rep == 0)
            first = run.counters;
        else
            EXPECT_EQ(run.counters, first)
                << "second in-process run differs from the first";
    }
}

TEST(Determinism, SeedsActuallyChangeTheSearch)
{
    // Sanity that the oracle is sensitive: different seeds draw
    // different mapping samples, so at least one search counter should
    // differ between seeds (if they never did, the determinism sweep
    // above would be vacuous).
    const Scenario sc = scenarios()[0];
    std::vector<std::string> counters;
    for (const char* seed : {"1", "2", "3"}) {
        std::vector<std::string> args = sc.args;
        args.insert(args.end(), {"--seed", seed, "--threads", "1"});
        CliRun run = runCliWithMetrics(
            args, std::string("det_seed_sense_") + seed);
        ASSERT_EQ(run.rc, 0) << run.err;
        counters.push_back(run.counters);
    }
    EXPECT_FALSE(counters[0] == counters[1] &&
                 counters[1] == counters[2])
        << "three seeds produced identical counters; the regression "
           "oracle has no seed sensitivity";
}

} // namespace
} // namespace cimloop::regress
