/**
 * @file
 * The `cimloop` command-line driver, as a testable library.
 *
 * Mirrors the original tool's workflow: point it at an architecture (a
 * YAML container-hierarchy or a built-in macro) and a workload (a YAML
 * network or a bundled one), and it searches mappings and reports
 * energy / area / performance.
 *
 *   cimloop --macro base --network resnet18 --mappings 500
 *   cimloop --arch my_macro.yaml --dac-bits 2 --workload net.yaml \
 *           --csv out.csv --report
 */
#ifndef CIMLOOP_CLI_CLI_HH
#define CIMLOOP_CLI_CLI_HH

#include <ostream>
#include <string>
#include <vector>

#include "cimloop/common/cancel.hh"

namespace cimloop::cli {

/**
 * Process exit codes, standardized across every mode. Scripts (and the
 * e2e tests) branch on these, so the values are frozen:
 *  - ExitOk: the run completed (including a sweep that paused cleanly
 *    at --max-chunks).
 *  - ExitFatal: a fatal error — bad spec, unmappable layer, I/O
 *    failure — after argument parsing succeeded.
 *  - ExitUsage: the command line itself was rejected (unknown flag,
 *    malformed or out-of-range value, contradictory flags).
 *  - ExitDeadline: --timeout expired; work stopped at the next
 *    deterministic boundary (timeout(1) uses the same 124).
 *  - ExitInterrupt: a signal cancelled the run (128 + signo; 130 is
 *    SIGINT, SIGTERM maps to 143).
 */
enum ExitCode : int
{
    ExitOk = 0,
    ExitFatal = 1,
    ExitUsage = 2,
    ExitDeadline = 124,
    ExitInterrupt = 130,
};

/** Parsed command-line options. */
struct CliOptions
{
    std::string archPath;    //!< --arch <file.yaml>
    std::string macroName;   //!< --macro base|A|B|C|D|digital
    std::string workloadPath; //!< --workload <file.yaml>
    std::string networkName; //!< --network resnet18|vit|...

    int mappings = 500;       //!< --mappings N
    std::uint64_t seed = 1;   //!< --seed N
    bool seedGiven = false;   //!< --seed was on the command line
    int threads = 1;          //!< --threads N (layer + intra-layer workers)
    std::string objective = "energy"; //!< --objective energy|edp|delay

    double technologyNm = 0.0; //!< --tech NM (override; 0 = keep)
    double voltage = 0.0;      //!< --voltage V (0 = nominal)
    int dacBits = 0;           //!< --dac-bits B (0 = default)
    int cellBits = 0;          //!< --cell-bits B
    int inputBits = 0;         //!< --input-bits B
    int weightBits = 0;        //!< --weight-bits B
    std::string device;        //!< --device reram|pcm|stt-mram|fefet|sram

    std::string csvPath;     //!< --csv <file>: per-layer CSV dump
    std::string ertPath;     //!< --ert <file>: energy-reference-table dump
    std::string mappingPath; //!< --mapping <file>: replay a fixed mapping
    bool report = false;     //!< --report: per-node table per layer
    bool help = false;       //!< --help

    /**
     * --refsim: run the value-level reference simulator against the
     * statistical model on the base macro instead of searching mappings.
     * No architecture flag is needed; --threads, --seed, and the bit
     * width overrides are honored.
     */
    bool refsim = false;
    std::int64_t refsimVectors = 48; //!< --refsim-vectors N (0 = all)

    /**
     * Device fault / variation injection. --faults loads a YAML fault
     * spec; --fault-stuck-rate and --fault-sigma override (or stand
     * alone). Negative means "flag not given". With any fault enabled,
     * both CLI modes print a per-layer degradation report against the
     * fault-free baseline.
     */
    std::string faultsPath;      //!< --faults <file.yaml>
    double faultStuckRate = -1.0; //!< --fault-stuck-rate R (off+on total)
    double faultSigma = -1.0;     //!< --fault-sigma S (lognormal sigma)

    /**
     * --keep-going: capture per-layer evaluation failures as diagnostics
     * and continue with the remaining layers instead of aborting.
     */
    bool keepGoing = false;

    /**
     * Physical data layouts. --layout pins a layout spec file on every
     * storage node it names (the bank-conflict model folds into each
     * layer's latency); --layout-search co-searches the built-in layout
     * candidates jointly with the mapping search instead. Mutually
     * exclusive; neither given = idealized conflict-free buffers with
     * byte-identical output to earlier releases.
     */
    std::string layoutPath;   //!< --layout <file.yaml>
    bool layoutSearch = false; //!< --layout-search

    /**
     * --sweep FILE: run the declarative design-space sweep the YAML file
     * describes (see cimloop::dse) instead of a single evaluation. No
     * architecture/workload flags are needed — the spec names them.
     * Honors --threads (byte-identical output for any value), --seed
     * (overrides the spec's seed when given), --csv (per-point CSV),
     * --json (sweep JSON artifact), --metrics, and --trace.
     */
    std::string sweepPath;
    std::string jsonPath; //!< --json <file>: sweep JSON artifact

    /**
     * --resume DIR: journal completed sweep chunks to DIR and skip the
     * ranges already journaled there, so an interrupted sweep rerun
     * with the same spec and directory picks up where it stopped and
     * still produces byte-identical artifacts. --chunk-size sets the
     * commit granularity (0 = default 1024 points); --max-chunks stops
     * cleanly after N freshly executed chunks (a controlled
     * interruption for tests/CI; 0 = run to completion).
     */
    std::string resumeDir;     //!< --resume DIR (empty = no journal)
    std::size_t chunkSize = 0; //!< --chunk-size N
    std::size_t maxChunks = 0; //!< --max-chunks N

    /**
     * --timeout SECONDS: arm a wall-clock deadline for the whole run
     * (any mode). Work stops at the next deterministic boundary —
     * sweep chunk, network layer, search sample, refsim vector — and
     * the process exits with ExitDeadline; a journaled sweep keeps
     * every chunk committed before the deadline and resumes normally.
     * 0 (the default) means no deadline.
     */
    double timeoutSeconds = 0.0;

    /**
     * Observability. --metrics prints the run's counter/span summary
     * table; --metrics=FILE writes the metrics JSON instead (counters
     * are deterministic at fixed seed for any --threads; span timings
     * are not). --trace=FILE writes a Chrome trace-event JSON — load it
     * via chrome://tracing or ui.perfetto.dev. Both flags reset the
     * process-wide counters at the start of the run, so the output
     * describes exactly one invocation.
     */
    bool metrics = false;    //!< --metrics[=FILE] given
    std::string metricsPath; //!< empty = print summary to out
    std::string tracePath;   //!< --trace=FILE (empty = tracing off)
};

/**
 * Parses argv-style arguments (without the program name). Fatal
 * (cimloop::FatalError) on unknown flags or malformed values.
 */
CliOptions parseArgs(const std::vector<std::string>& args);

/** Usage text. */
std::string usage();

/**
 * Runs the tool: builds the architecture and workload, searches
 * mappings, and writes results to @p out (diagnostics to @p err).
 * Returns a process exit code (see ExitCode). For `--sweep --resume`
 * runs, SIGINT/SIGTERM are handled cooperatively: the chunk in flight
 * commits to the journal, the resume hint prints, and the exit code is
 * 128 + signo.
 */
int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err);

/**
 * Executes one already-parsed invocation and returns its exit code —
 * the workhorse behind run(), exposed for `cimloop serve`.
 *
 * Unlike run(), this neither resets the process-wide obs counters nor
 * clears the per-action cache, and it installs no signal handlers: the
 * daemon runs many requests through one process and *wants* the cache
 * and counters to accumulate across them. Cancellation (deadline,
 * client disconnect, server shutdown) arrives through @p token. Every
 * byte written to @p out for a given options struct is identical to
 * what a one-shot run() of the same flags writes — the serve e2e
 * harness byte-compares the two — because cached per-action tables are
 * pure values: hitting a warm cache changes counters, never results.
 *
 * FatalError/CancelledError are caught and mapped to exit codes exactly
 * as run() maps them; @p opts must already be validated (parseArgs).
 */
int runParsed(const CliOptions& opts, const CancelToken& token,
              std::ostream& out, std::ostream& err);

} // namespace cimloop::cli

#endif // CIMLOOP_CLI_CLI_HH
