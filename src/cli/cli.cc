#include "cimloop/cli/cli.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <optional>
#include <utility>

#include "cimloop/common/error.hh"
#include "cimloop/common/util.hh"
#include "cimloop/dse/dse.hh"
#include "cimloop/engine/evaluate.hh"
#include "cimloop/obs/obs.hh"
#include "cimloop/faults/faults.hh"
#include "cimloop/layout/layout.hh"
#include "cimloop/macros/macros.hh"
#include "cimloop/models/devices.hh"
#include "cimloop/refsim/refsim.hh"
#include "cimloop/workload/networks.hh"
#include "cimloop/yaml/parser.hh"

namespace cimloop::cli {

std::string
usage()
{
    return R"(usage: cimloop [options]

architecture (exactly one):
  --macro NAME         built-in macro: base, A, B, C, D, digital
  --arch FILE.yaml     container-hierarchy specification file

workload (exactly one):
  --network NAME       bundled: resnet18, vit, mobilenetv3, gpt2,
                       alexnet, vgg16, bert, mvm
  --workload FILE.yaml network description file

search:
  --mappings N         mappings searched per layer (default 500)
  --seed N             search seed (default 1)
  --threads N          worker threads; spread over layers first, and
                       across each layer's mapping search when layers
                       are fewer than threads (default 1; results are
                       identical for any value)
  --objective OBJ      energy | edp | delay (default energy)

operating point / representation overrides:
  --tech NM            technology node in nm
  --voltage V          supply voltage in volts
  --dac-bits B         input slice width (DAC resolution)
  --cell-bits B        weight bits per cell
  --input-bits B       operand precision overrides
  --weight-bits B
  --device NAME        memory-cell preset: ReRAM, PCM, STT-MRAM,
                       FeFET, SRAM (re-targets the 'cells'/'mac_units'
                       node)

output:
  --csv FILE           write per-layer results as CSV
  --ert FILE           dump the per-action energy reference table (YAML)
                       computed for the first layer
  --report             print the per-node energy table for each layer
  --help               this text

physical layout:
  --layout FILE.yaml   pin a physical data layout (per-dataspace rank
                       order, banks, interleave per storage node); the
                       analytical bank-conflict model folds the
                       resulting slowdown into each layer's latency
  --layout-search      co-search the built-in layout candidates jointly
                       with the mapping search (every candidate scores
                       the same sample set; results are bit-identical
                       for any --threads); prints the winning layout
                       per layer

fixed mapping:
  --mapping FILE.yaml  replay a pinned mapping (Timeloop-style) on every
                       layer instead of searching (combines with
                       --layout, not --layout-search)

reference simulation:
  --refsim             run the value-level reference simulator against
                       the statistical model per layer, on the base macro
                       at nominal voltage (honors --threads, --seed,
                       --tech, bit widths and faults; rejects --arch, a
                       --macro other than base, --voltage, --device,
                       --report, --csv, --ert, --mapping, --keep-going
                       and layouts; results are bit-identical for any
                       --threads)
  --refsim-vectors N   activation vectors sampled per layer (default 48;
                       0 simulates every vector)

design-space exploration:
  --sweep FILE.yaml    run the declarative sweep the file describes
                       (axes over macro/fault/network/mapper knobs; see
                       docs/architecture.md) instead of one evaluation;
                       needs no architecture or workload flags. Prints
                       the point table, failed points (with their axis
                       values), the Pareto frontier, and the best point.
                       Honors --threads (output is byte-identical for
                       any value at fixed seed), --seed (overrides the
                       spec's seed), --csv, --json, --metrics, --trace
  --json FILE          write the sweep result as a JSON artifact
  --resume DIR         journal completed chunks to DIR and, when DIR
                       already holds a journal of the same spec, skip
                       the journaled ranges — an interrupted sweep
                       resumes where it stopped, with artifacts
                       byte-identical to an uninterrupted run
  --chunk-size N       points per journal/commit chunk (default 1024;
                       never changes result bytes, only checkpoint
                       granularity)
  --max-chunks N       stop cleanly after N freshly executed chunks (a
                       controlled interruption: combine with --resume
                       to checkpoint, then rerun to continue)

fault injection / robustness:
  --faults FILE.yaml   device fault spec (stuck_off_rate, stuck_on_rate,
                       conductance_sigma, adc_offset, adc_noise_sigma,
                       seed); applies to --refsim and the statistical
                       pipeline alike
  --fault-stuck-rate R total stuck-cell fraction in [0, 1], split evenly
                       between stuck-off and stuck-on; overrides the
                       fault spec's rates
  --fault-sigma S      lognormal conductance variation sigma in [0, 0.8];
                       overrides the fault spec's sigma
  --keep-going         capture per-layer failures (e.g. unmappable
                       layers) as diagnostics and continue with partial
                       results instead of aborting

observability:
  --metrics[=FILE]     print the run's counter/span summary table; with
                       =FILE, write the metrics JSON instead. Counter
                       values are deterministic at fixed --seed for any
                       --threads (span timings are not)
  --trace FILE         write a Chrome trace-event JSON of the run's
                       timing spans; load it via chrome://tracing or
                       ui.perfetto.dev (also accepts --trace=FILE)

cancellation / shutdown:
  --timeout SECONDS    wall-clock deadline for the whole run (any
                       mode); work stops at the next deterministic
                       boundary (sweep chunk, layer, search sample,
                       refsim vector) and exits with code 124. A
                       journaled sweep keeps every committed chunk and
                       --resume continues it later.
  With --sweep --resume, SIGINT/SIGTERM are handled cooperatively: the
  in-flight chunk commits, the resume hint prints, and the exit code
  is 128+signo (Ctrl-C = 130). A second signal kills immediately.

server mode:
  cimloop serve --listen PATH [--cache-mb N] [--threads N]
                       run as a long-lived evaluation daemon speaking
                       newline-delimited JSON over a Unix socket; see
                       `cimloop serve --help` and docs/architecture.md,
                       "The evaluation server"

exit codes:
  0    success (including a sweep paused at --max-chunks)
  1    fatal error (bad spec, unmappable layer, I/O failure)
  2    usage error (bad flags)
  124  --timeout deadline expired
  130  interrupted by SIGINT (SIGTERM exits 143; 128+signo in general)
)";
}

namespace {

constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

/** An integer flag value within [lo, hi]; fatal otherwise. */
std::int64_t
parseInt(const std::string& flag, const std::string& value, std::int64_t lo,
         std::int64_t hi)
{
    std::string error;
    std::optional<std::int64_t> v = parseIntFlag(flag, value, lo, hi, error);
    if (!v)
        CIM_FATAL(error);
    return *v;
}

double
parseDouble(const std::string& flag, const std::string& value)
{
    try {
        std::size_t pos = 0;
        double v = std::stod(value, &pos);
        if (pos != value.size())
            throw std::invalid_argument(value);
        return v;
    } catch (const std::exception&) {
        CIM_FATAL("flag ", flag, " expects a number, got '", value, "'");
    }
}

} // namespace

CliOptions
parseArgs(const std::vector<std::string>& args)
{
    CliOptions opts;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& flag = args[i];
        auto value = [&]() -> const std::string& {
            if (i + 1 >= args.size())
                CIM_FATAL("flag ", flag, " expects a value");
            return args[++i];
        };
        // Every int-typed flag: range-checked, so the cast never narrows.
        auto int_value = [&](std::int64_t lo, std::int64_t hi) {
            return static_cast<int>(parseInt(flag, value(), lo, hi));
        };
        if (flag == "--help" || flag == "-h") {
            opts.help = true;
        } else if (flag == "--macro") {
            opts.macroName = value();
        } else if (flag == "--arch") {
            opts.archPath = value();
        } else if (flag == "--network") {
            opts.networkName = value();
        } else if (flag == "--workload") {
            opts.workloadPath = value();
        } else if (flag == "--mappings") {
            opts.mappings = int_value(1, kIntMax);
        } else if (flag == "--seed") {
            std::string error;
            std::optional<std::uint64_t> seed =
                parseUint64Flag(flag, value(), error);
            if (!seed)
                CIM_FATAL(error);
            opts.seed = *seed;
            opts.seedGiven = true;
        } else if (flag == "--threads") {
            opts.threads = int_value(1, kIntMax);
        } else if (flag == "--objective") {
            opts.objective = value();
        } else if (flag == "--tech") {
            opts.technologyNm = parseDouble(flag, value());
        } else if (flag == "--voltage") {
            opts.voltage = parseDouble(flag, value());
        } else if (flag == "--dac-bits") {
            opts.dacBits = int_value(1, kIntMax);
        } else if (flag == "--cell-bits") {
            opts.cellBits = int_value(1, kIntMax);
        } else if (flag == "--input-bits") {
            opts.inputBits = int_value(1, 16);
        } else if (flag == "--weight-bits") {
            opts.weightBits = int_value(1, 16);
        } else if (flag == "--device") {
            opts.device = value();
        } else if (flag == "--csv") {
            opts.csvPath = value();
        } else if (flag == "--ert") {
            opts.ertPath = value();
        } else if (flag == "--mapping") {
            opts.mappingPath = value();
        } else if (flag == "--report") {
            opts.report = true;
        } else if (flag == "--refsim") {
            opts.refsim = true;
        } else if (flag == "--refsim-vectors") {
            opts.refsimVectors = parseInt(flag, value(), 0, kInt64Max);
        } else if (flag == "--faults") {
            opts.faultsPath = value();
        } else if (flag == "--fault-stuck-rate") {
            opts.faultStuckRate = parseDouble(flag, value());
            if (opts.faultStuckRate < 0.0 || opts.faultStuckRate > 1.0) {
                CIM_FATAL("--fault-stuck-rate must be within [0, 1], "
                          "got ", opts.faultStuckRate);
            }
        } else if (flag == "--fault-sigma") {
            opts.faultSigma = parseDouble(flag, value());
            if (opts.faultSigma < 0.0)
                CIM_FATAL("--fault-sigma must be >= 0, got ",
                          opts.faultSigma);
        } else if (flag == "--keep-going") {
            opts.keepGoing = true;
        } else if (flag == "--layout") {
            opts.layoutPath = value();
        } else if (startsWith(flag, "--layout=")) {
            opts.layoutPath = flag.substr(std::string("--layout=").size());
            if (opts.layoutPath.empty())
                CIM_FATAL("--layout= expects a file path");
        } else if (flag == "--layout-search") {
            opts.layoutSearch = true;
        } else if (flag == "--sweep") {
            opts.sweepPath = value();
        } else if (startsWith(flag, "--sweep=")) {
            opts.sweepPath = flag.substr(std::string("--sweep=").size());
            if (opts.sweepPath.empty())
                CIM_FATAL("--sweep= expects a file path");
        } else if (flag == "--resume") {
            opts.resumeDir = value();
        } else if (startsWith(flag, "--resume=")) {
            opts.resumeDir = flag.substr(std::string("--resume=").size());
            if (opts.resumeDir.empty())
                CIM_FATAL("--resume= expects a directory path");
        } else if (flag == "--chunk-size") {
            opts.chunkSize = static_cast<std::size_t>(
                parseInt(flag, value(), 1, kInt64Max));
        } else if (flag == "--max-chunks") {
            opts.maxChunks = static_cast<std::size_t>(
                parseInt(flag, value(), 1, kInt64Max));
        } else if (flag == "--timeout") {
            opts.timeoutSeconds = parseDouble(flag, value());
            if (!(opts.timeoutSeconds > 0.0)) {
                CIM_FATAL("--timeout must be > 0 seconds, got ",
                          opts.timeoutSeconds);
            }
        } else if (flag == "--json") {
            opts.jsonPath = value();
        } else if (flag == "--metrics") {
            opts.metrics = true;
        } else if (startsWith(flag, "--metrics=")) {
            opts.metrics = true;
            opts.metricsPath = flag.substr(std::string("--metrics=").size());
            if (opts.metricsPath.empty())
                CIM_FATAL("--metrics= expects a file path");
        } else if (flag == "--trace") {
            opts.tracePath = value();
        } else if (startsWith(flag, "--trace=")) {
            opts.tracePath = flag.substr(std::string("--trace=").size());
            if (opts.tracePath.empty())
                CIM_FATAL("--trace= expects a file path");
        } else {
            CIM_FATAL("unknown flag '", flag, "' (try --help)");
        }
    }
    if (!opts.help) {
        if (!opts.sweepPath.empty()) {
            // The sweep spec names the architecture and workload; mixing
            // the single-run selection flags in would be ambiguous.
            if (!opts.macroName.empty() || !opts.archPath.empty() ||
                !opts.networkName.empty() || !opts.workloadPath.empty()) {
                CIM_FATAL("--sweep takes its architecture and workload "
                          "from the sweep spec; drop --macro/--arch/"
                          "--network/--workload");
            }
            if (opts.refsim)
                CIM_FATAL("--sweep and --refsim are mutually exclusive");
            if (!opts.mappingPath.empty())
                CIM_FATAL("--sweep and --mapping are mutually exclusive");
            if (!opts.layoutPath.empty() || opts.layoutSearch)
                CIM_FATAL("--sweep explores layouts through a 'layout' "
                          "axis in the spec; drop --layout/"
                          "--layout-search");
            return opts;
        }
        if (!opts.jsonPath.empty())
            CIM_FATAL("--json is only meaningful with --sweep");
        if (!opts.resumeDir.empty())
            CIM_FATAL("--resume is only meaningful with --sweep");
        if (opts.chunkSize != 0)
            CIM_FATAL("--chunk-size is only meaningful with --sweep");
        if (opts.maxChunks != 0)
            CIM_FATAL("--max-chunks is only meaningful with --sweep");
        if (!opts.layoutPath.empty() && opts.layoutSearch)
            CIM_FATAL("--layout and --layout-search are mutually "
                      "exclusive");
        if (opts.layoutSearch && !opts.mappingPath.empty())
            CIM_FATAL("--layout-search needs a mapping search; it cannot "
                      "be combined with --mapping");
        if (opts.refsim) {
            // The reference simulator always models the base macro at
            // nominal voltage and prints only its own table: a flag that
            // would pick another architecture or add an output is an
            // error, not a silent no-op.
            const std::pair<bool, std::string> ignored[] = {
                {!opts.archPath.empty(), "--arch"},
                {!opts.macroName.empty() &&
                     toLower(opts.macroName) != "base",
                 "--macro " + opts.macroName},
                {opts.voltage != 0.0, "--voltage"},
                {!opts.device.empty(), "--device"},
                {opts.report, "--report"},
                {!opts.csvPath.empty(), "--csv"},
                {!opts.ertPath.empty(), "--ert"},
                {!opts.mappingPath.empty(), "--mapping"},
                {opts.keepGoing, "--keep-going"},
            };
            for (const auto& [given, flag] : ignored) {
                if (given)
                    CIM_FATAL("--refsim simulates only the base macro at "
                              "nominal voltage; remove ", flag);
            }
            if (!opts.layoutPath.empty() || opts.layoutSearch)
                CIM_FATAL("--refsim does not model physical layouts; "
                          "drop --layout/--layout-search");
        } else if (opts.macroName.empty() == opts.archPath.empty()) {
            CIM_FATAL("specify exactly one of --macro or --arch");
        }
        if (opts.networkName.empty() == opts.workloadPath.empty())
            CIM_FATAL("specify exactly one of --network or --workload");
        if (!engine::parseObjective(opts.objective))
            CIM_FATAL("--objective must be energy, edp, or delay");
    }
    return opts;
}

namespace {

engine::Arch
buildArch(const CliOptions& opts)
{
    engine::Arch arch;
    if (!opts.macroName.empty()) {
        // Through MacroParams, as sweeps build points: the builder sizes
        // the DAC resolution and the output width from these flags.
        macros::MacroParams p = macros::defaultsByName(opts.macroName);
        if (opts.dacBits > 0)
            p.dacBits = opts.dacBits;
        if (opts.cellBits > 0)
            p.cellBits = opts.cellBits;
        if (opts.inputBits > 0)
            p.inputBits = opts.inputBits;
        if (opts.weightBits > 0)
            p.weightBits = opts.weightBits;
        arch = macros::macroByName(opts.macroName, p);
    } else {
        arch.name = opts.archPath;
        arch.hierarchy = spec::Hierarchy::fromFile(opts.archPath);
        if (opts.dacBits > 0)
            arch.rep.dacBits = opts.dacBits;
        if (opts.cellBits > 0)
            arch.rep.cellBits = opts.cellBits;
        if (opts.inputBits > 0)
            arch.rep.inputBits = opts.inputBits;
        if (opts.weightBits > 0)
            arch.rep.weightBits = opts.weightBits;
    }
    if (opts.technologyNm > 0.0)
        arch.technologyNm = opts.technologyNm;
    if (opts.voltage > 0.0)
        arch.supplyVoltage = opts.voltage;
    if (!opts.device.empty()) {
        const models::DevicePreset& preset =
            models::devicePreset(opts.device);
        const char* cell_node =
            arch.hierarchy.indexOf("cells") >= 0 ? "cells" : "mac_units";
        models::applyDevicePreset(arch.hierarchy, cell_node, preset);
        arch.rep.cellBits =
            std::min(arch.rep.cellBits, preset.maxBitsPerCell);
    }
    return arch;
}

faults::FaultModel
buildFaults(const CliOptions& opts)
{
    faults::FaultModel model;
    if (!opts.faultsPath.empty())
        model = faults::FaultModel::fromFile(opts.faultsPath);
    if (opts.faultStuckRate >= 0.0) {
        // The flag gives the total stuck fraction, split evenly.
        model.stuckOffRate = opts.faultStuckRate / 2.0;
        model.stuckOnRate = opts.faultStuckRate / 2.0;
    }
    if (opts.faultSigma >= 0.0)
        model.conductanceSigma = opts.faultSigma;
    model.validate();
    return model;
}

workload::Network
buildWorkload(const CliOptions& opts)
{
    if (!opts.networkName.empty())
        return workload::networkByName(opts.networkName);
    return workload::networkFromFile(opts.workloadPath);
}

int
runRefSim(const CliOptions& opts, const faults::FaultModel& fault_model,
          const CancelToken& token, std::ostream& out)
{
    workload::Network net = buildWorkload(opts);

    refsim::RefSimConfig cfg;
    cfg.cancel = token;
    cfg.threads = opts.threads;
    cfg.seed = opts.seed;
    cfg.maxVectors = opts.refsimVectors;
    cfg.faults = fault_model;
    if (opts.inputBits > 0)
        cfg.inputBits = opts.inputBits;
    if (opts.weightBits > 0)
        cfg.weightBits = opts.weightBits;
    if (opts.dacBits > 0)
        cfg.dacBits = opts.dacBits;
    if (opts.cellBits > 0)
        cfg.cellBits = opts.cellBits;
    if (opts.technologyNm > 0.0)
        cfg.technologyNm = opts.technologyNm;

    const bool faulty = fault_model.enabled();

    out << "value-level reference vs statistical model on "
        << net.name << " (" << net.layers.size() << " layers, "
        << (cfg.maxVectors == 0 ? std::string("all")
                                : std::to_string(cfg.maxVectors))
        << " vectors/layer, " << cfg.threads << " thread"
        << (cfg.threads == 1 ? "" : "s") << ", seed " << cfg.seed
        << ")\n";
    if (faulty) {
        out << "faults: stuck-off " << fault_model.stuckOffRate
            << ", stuck-on " << fault_model.stuckOnRate << ", sigma "
            << fault_model.conductanceSigma << ", adc offset "
            << fault_model.adcOffset << ", adc noise "
            << fault_model.adcNoiseSigma << ", seed "
            << fault_model.seed << "\n";
    }
    out << "\n";

    // With faults enabled, each layer runs a second, fault-free truth
    // simulation so the report shows the energy degradation the injected
    // faults cause next to the truth-vs-model agreement under faults.
    refsim::RefSimConfig clean_cfg = cfg;
    clean_cfg.faults = faults::FaultModel{};

    char line[200];
    if (faulty) {
        std::snprintf(line, sizeof(line), "%-24s %14s %14s %8s %14s %8s\n",
                      "layer", "truth (pJ)", "model (pJ)", "err",
                      "clean (pJ)", "dE");
    } else {
        std::snprintf(line, sizeof(line), "%-24s %14s %14s %8s\n",
                      "layer", "truth (pJ)", "model (pJ)", "err");
    }
    out << line;

    double err_sum = 0.0;
    for (const workload::Layer& layer : net.layers) {
        dist::OperandProfile profile;
        refsim::RefSimResult truth =
            refsim::simulateValueLevel(cfg, layer, &profile);
        refsim::RefSimResult model =
            refsim::estimateStatistical(cfg, layer, profile);
        double err =
            model.totalPj() / std::max(truth.totalPj(), 1e-300) - 1.0;
        err_sum += std::abs(err);
        if (faulty) {
            refsim::RefSimResult clean =
                refsim::simulateValueLevel(clean_cfg, layer, nullptr);
            double de =
                truth.totalPj() / std::max(clean.totalPj(), 1e-300) - 1.0;
            std::snprintf(line, sizeof(line),
                          "%-24s %14.6g %14.6g %+7.2f%% %14.6g %+7.2f%%\n",
                          layer.name.c_str(), truth.totalPj(),
                          model.totalPj(), err * 100.0, clean.totalPj(),
                          de * 100.0);
        } else {
            std::snprintf(line, sizeof(line),
                          "%-24s %14.6g %14.6g %+7.2f%%\n",
                          layer.name.c_str(), truth.totalPj(),
                          model.totalPj(), err * 100.0);
        }
        out << line;
    }
    std::snprintf(line, sizeof(line),
                  "\nmean |error| : %.2f%% over %zu layers\n",
                  err_sum / static_cast<double>(net.layers.size()) * 100.0,
                  net.layers.size());
    out << line;
    return 0;
}

/** Writes @p text to @p path and says so on @p out; fatal when the file
 *  cannot be opened. @p what names the artifact in the error. */
void
writeArtifact(const std::string& path, const char* what,
              const std::string& text, std::ostream& out)
{
    std::ofstream f(path);
    if (!f)
        CIM_FATAL("cannot write ", what, " to '", path, "'");
    f << text;
    out << "wrote " << path << "\n";
}

/**
 * Arms span timing (and tracing) for one run and guarantees both are
 * off again when the run leaves scope, whatever path it exits on, so a
 * metrics run never leaks timing overhead into a later in-process run.
 */
struct ObsRunScope
{
    explicit ObsRunScope(const CliOptions& opts)
    {
        // Hermetic per-invocation numbers: counters are process-wide
        // and the per-action cache would turn misses into hits across
        // back-to-back runs.
        obs::resetAll();
        engine::clearPerActionCache();
        obs::setTimingEnabled(opts.metrics || !opts.tracePath.empty());
        obs::setTraceEnabled(!opts.tracePath.empty());
    }
    ~ObsRunScope()
    {
        obs::setTraceEnabled(false);
        obs::setTimingEnabled(false);
    }
};

/**
 * --sweep mode: loads the spec, runs the grid, and prints the report.
 * Every byte written here (table, CSV, JSON) is identical for any
 * --threads at fixed seed — the determinism harness compares them.
 */
int
runSweepCli(const CliOptions& opts, const CancelToken& token,
            std::ostream& out, std::ostream& err)
{
    dse::SweepSpec spec = dse::SweepSpec::fromFile(opts.sweepPath);
    if (opts.seedGiven)
        spec.seed = opts.seed;

    dse::SweepOptions sweep_opts;
    sweep_opts.threads = opts.threads;
    sweep_opts.chunkSize = opts.chunkSize;
    sweep_opts.resumeDir = opts.resumeDir;
    sweep_opts.maxChunks = opts.maxChunks;
    sweep_opts.cancel = token;
    dse::SweepResult result = dse::runSweep(spec, sweep_opts);
    out << dse::formatTable(result);

    if (!opts.csvPath.empty())
        writeArtifact(opts.csvPath, "CSV", dse::toCsv(result), out);
    if (!opts.jsonPath.empty())
        writeArtifact(opts.jsonPath, "JSON", dse::toJson(result), out);
    if (result.stoppedEarly) {
        if (result.cancelled) {
            out << "sweep cancelled ("
                << cancelReasonName(token.reason()) << ")\n";
        }
        out << "sweep paused after "
            << result.chunksExecuted + result.chunksResumed << " of "
            << result.chunksTotal << " chunks";
        if (!opts.resumeDir.empty())
            out << "; rerun with --resume " << opts.resumeDir
                << " to continue";
        out << "\n";
        return ExitOk;
    }
    if (result.evaluated == 0) {
        err << "sweep '" << result.name
            << "' evaluated no points successfully\n";
        return ExitFatal;
    }
    return ExitOk;
}

/**
 * Installs the cooperative SIGINT/SIGTERM handler for the run when
 * @p enable (sweep --resume mode, where an interrupted run loses
 * nothing), and guarantees the previous dispositions come back on any
 * exit path — a library embedder's handlers must survive run().
 */
struct SignalCancelScope
{
    bool installed = false;
    SignalCancelScope(const CancelToken& token, bool enable)
    {
        if (enable) {
            installSignalCancel(token);
            installed = true;
        }
    }
    ~SignalCancelScope()
    {
        if (installed)
            uninstallSignalCancel();
    }
};

/** Maps a cancelled run's reason to its process exit code. */
int
cancelExitCode(CancelReason reason)
{
    if (reason == CancelReason::Signal) {
        const int sig = lastCancelSignal();
        return sig > 0 ? 128 + sig : static_cast<int>(ExitInterrupt);
    }
    return ExitDeadline;
}

/** Writes --trace / --metrics outputs at the end of a successful run. */
void
emitObservability(const CliOptions& opts, std::ostream& out)
{
    if (!opts.tracePath.empty())
        writeArtifact(opts.tracePath, "trace", obs::traceJson(), out);
    if (opts.metrics) {
        obs::MetricsSnapshot snap = obs::snapshot();
        if (opts.metricsPath.empty()) {
            out << "\n" << obs::summaryTable(snap);
        } else {
            writeArtifact(opts.metricsPath, "metrics",
                          obs::metricsJson(snap), out);
        }
    }
}

} // namespace

int
run(const std::vector<std::string>& args, std::ostream& out,
    std::ostream& err)
{
    CliOptions opts;
    try {
        opts = parseArgs(args);
    } catch (const FatalError& e) {
        err << e.what() << "\n" << usage();
        return ExitUsage;
    }
    if (opts.help) {
        out << usage();
        return ExitOk;
    }

    // One token for the whole run: --timeout arms its deadline, and in
    // sweep --resume mode SIGINT/SIGTERM flip it instead of killing the
    // process (an interrupted journaled sweep loses nothing; other
    // modes keep the default die-on-signal behavior).
    CancelToken token;
    if (opts.timeoutSeconds > 0.0)
        token.setDeadline(Deadline::after(opts.timeoutSeconds));
    SignalCancelScope signal_scope(
        token, !opts.sweepPath.empty() && !opts.resumeDir.empty());

    // Hermetic per-invocation numbers for the one-shot tool only: the
    // serve daemon calls runParsed() directly, keeping the per-action
    // cache warm and the counters cumulative across requests.
    ObsRunScope obs_scope(opts);
    return runParsed(opts, token, out, err);
}

int
runParsed(const CliOptions& opts, const CancelToken& token,
          std::ostream& out, std::ostream& err)
{
    try {
        if (!opts.sweepPath.empty()) {
            int rc = runSweepCli(opts, token, out, err);
            if (rc == 0)
                emitObservability(opts, out);
            if (rc == 0 && token.cancelled())
                rc = cancelExitCode(token.reason());
            return rc;
        }
        faults::FaultModel fault_model = buildFaults(opts);
        if (opts.refsim) {
            int rc = runRefSim(opts, fault_model, token, out);
            if (rc == 0)
                emitObservability(opts, out);
            return rc;
        }

        engine::Arch arch = buildArch(opts);
        arch.faults = fault_model;
        if (!opts.layoutPath.empty())
            arch.layout = layout::LayoutSpec::fromFile(opts.layoutPath);
        arch.layoutSearch = opts.layoutSearch;
        workload::Network net = buildWorkload(opts);

        out << "architecture: " << arch.name << " ("
            << arch.technologyNm << " nm)\n";
        out << "workload: " << net.name << " (" << net.layers.size()
            << " layers, " << net.totalMacs() << " MACs)\n";
        // These lines print only when a layout flag was given, keeping
        // layout-free runs byte-identical to earlier releases.
        if (!opts.layoutPath.empty())
            out << "layout: " << arch.layout.summary() << "\n";
        if (opts.layoutSearch) {
            out << "layout co-search: "
                << layout::enumerateLayouts(arch.hierarchy).size()
                << " candidates per layer\n";
        }
        const engine::EvalOptions eval_opts{
            .objective = engine::parseObjective(opts.objective).value(),
            .threads = opts.threads,
            .keepGoing = opts.keepGoing,
            .cancel = &token};
        engine::NetworkEvaluation ev;
        if (!opts.mappingPath.empty()) {
            out << "replaying fixed mapping " << opts.mappingPath
                << " on every layer\n\n";
            mapping::Mapping fixed = mapping::Mapping::fromYaml(
                arch.hierarchy, yaml::parseFile(opts.mappingPath));
            for (const workload::Layer& layer : net.layers) {
                token.throwIfCancelled("fixed-mapping replay at layer '" +
                                       layer.name + "'");
                engine::PerActionTable table =
                    engine::precompute(arch, layer);
                engine::SearchResult sr;
                sr.bestMapping = fixed;
                sr.best = engine::evaluate(arch, table, fixed);
                sr.evaluated = sr.best.valid ? 1 : 0;
                if (!sr.best.valid) {
                    CIM_FATAL("fixed mapping invalid for layer '",
                              layer.name, "': ",
                              sr.best.invalidReason);
                }
                double reps = static_cast<double>(layer.count);
                ev.energyPj += sr.best.energyPj * reps;
                ev.latencyNs += sr.best.latencyNs * reps;
                ev.macs += sr.best.macs * reps;
                ev.areaUm2 = std::max(ev.areaUm2, sr.best.areaUm2);
                ev.layers.push_back(std::move(sr));
            }
        } else {
            out << "searching " << opts.mappings
                << " mappings per layer (objective: " << opts.objective
                << ", seed " << opts.seed << ")\n\n";
            ev = engine::evaluateNetwork(arch, net, opts.mappings,
                                         opts.seed, eval_opts);
        }

        if (!ev.complete()) {
            err << "warning: " << ev.diagnostics.size() << " of "
                << net.layers.size()
                << " layers failed; continuing with partial results:\n";
            for (const engine::LayerDiagnostic& d : ev.diagnostics) {
                err << "  layer '" << d.layer << "' (" << d.kind
                    << "): " << d.message << "\n";
            }
        }

        if (opts.layoutSearch) {
            out << "co-searched layouts:\n";
            for (std::size_t i = 0; i < net.layers.size(); ++i) {
                const engine::SearchResult& sr = ev.layers[i];
                out << "  " << net.layers[i].name << ": "
                    << (sr.best.valid ? sr.bestLayout.summary()
                                      : std::string("-"))
                    << "\n";
            }
            out << "\n";
        }

        if (fault_model.enabled() && opts.mappingPath.empty()) {
            // Degradation report: re-evaluate the same network fault-free
            // (identical seed and mapping search) and show the per-layer
            // energy delta the fault model predicts.
            engine::Arch clean_arch = arch;
            clean_arch.faults = faults::FaultModel{};
            engine::NetworkEvaluation clean = engine::evaluateNetwork(
                clean_arch, net, opts.mappings, opts.seed, eval_opts);
            char fl[160];
            out << "per-layer degradation vs fault-free baseline:\n";
            std::snprintf(fl, sizeof(fl), "%-24s %14s %14s %8s\n",
                          "layer", "clean (pJ)", "faulty (pJ)", "dE");
            out << fl;
            for (std::size_t i = 0; i < net.layers.size(); ++i) {
                const engine::Evaluation& cb = clean.layers[i].best;
                const engine::Evaluation& fb = ev.layers[i].best;
                if (!cb.valid || !fb.valid) {
                    std::snprintf(fl, sizeof(fl), "%-24s %14s %14s %8s\n",
                                  net.layers[i].name.c_str(), "-", "-",
                                  "-");
                    out << fl;
                    continue;
                }
                double de =
                    fb.energyPj / std::max(cb.energyPj, 1e-300) - 1.0;
                std::snprintf(fl, sizeof(fl),
                              "%-24s %14.6g %14.6g %+7.2f%%\n",
                              net.layers[i].name.c_str(), cb.energyPj,
                              fb.energyPj, de * 100.0);
                out << fl;
            }
            out << "\n";
        }

        if (!opts.ertPath.empty()) {
            engine::PerActionTable table =
                engine::precompute(arch, net.layers.front());
            writeArtifact(opts.ertPath, "ERT",
                          engine::toYamlErt(arch, table), out);
        }

        if (opts.report) {
            for (std::size_t i = 0; i < net.layers.size(); ++i) {
                out << "--- " << net.layers[i].name << " ("
                    << net.layers[i].shapeString() << ") ---\n";
                out << engine::formatReport(arch, ev.layers[i].best);
            }
            out << "\n";
        }

        char line[160];
        std::snprintf(line, sizeof(line),
                      "total energy : %.6g uJ (%.4g pJ/MAC)\n",
                      ev.energyPj / 1e6, ev.energyPerMacPj());
        out << line;
        std::snprintf(line, sizeof(line), "efficiency   : %.4g TOPS/W\n",
                      ev.topsPerWatt());
        out << line;
        std::snprintf(line, sizeof(line), "area         : %.4g mm^2\n",
                      ev.areaUm2 / 1e6);
        out << line;
        std::snprintf(line, sizeof(line), "latency      : %.4g ms\n",
                      ev.latencyNs / 1e6);
        out << line;

        if (!opts.csvPath.empty())
            writeArtifact(opts.csvPath, "CSV", engine::toCsv(ev, net), out);

        emitObservability(opts, out);
        // Keep-going runs absorb cancellation into "cancelled"
        // diagnostics instead of throwing; the partial table above is
        // still worth printing, but the exit code must say the run was
        // cut short.
        if (token.cancelled())
            return cancelExitCode(token.reason());
        return ExitOk;
    } catch (const CancelledError& e) {
        err << e.what() << "\n";
        return cancelExitCode(e.reason());
    } catch (const FatalError& e) {
        err << e.what() << "\n";
        return ExitFatal;
    }
}

} // namespace cimloop::cli
