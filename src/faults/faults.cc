#include "cimloop/faults/faults.hh"

#include <cmath>
#include <utility>

#include "cimloop/common/error.hh"
#include "cimloop/common/util.hh"
#include "cimloop/dist/operands.hh"
#include "cimloop/obs/obs.hh"
#include "cimloop/yaml/node.hh"
#include "cimloop/yaml/parser.hh"

namespace cimloop::faults {

using dist::Pmf;

bool
FaultModel::enabled() const
{
    return cellFaultsEnabled() || adcFaultsEnabled();
}

bool
FaultModel::cellFaultsEnabled() const
{
    return stuckOffRate > 0.0 || stuckOnRate > 0.0 ||
           conductanceSigma > 0.0;
}

bool
FaultModel::adcFaultsEnabled() const
{
    return adcOffset != 0.0 || adcNoiseSigma > 0.0;
}

double
FaultModel::varianceFactor() const
{
    return std::exp(conductanceSigma * conductanceSigma);
}

void
FaultModel::validate() const
{
    auto rate = [](const char* key, double v) {
        if (!(v >= 0.0 && v <= 1.0)) {
            CIM_FATAL("faults.", key, " must be within [0, 1], got ", v);
        }
    };
    rate("stuck_off_rate", stuckOffRate);
    rate("stuck_on_rate", stuckOnRate);
    if (stuckOffRate + stuckOnRate > 1.0) {
        CIM_FATAL("faults.stuck_off_rate + faults.stuck_on_rate must not "
                  "exceed 1, got ", stuckOffRate + stuckOnRate);
    }
    if (!(conductanceSigma >= 0.0 && conductanceSigma <= 0.8)) {
        CIM_FATAL("faults.conductance_sigma must be within [0, 0.8], got ",
                  conductanceSigma,
                  " (the two-point analytic inflation needs "
                  "exp(sigma^2) - 1 <= 1)");
    }
    if (!(adcOffset >= -1.0 && adcOffset <= 1.0)) {
        CIM_FATAL("faults.adc_offset must be within [-1, 1] (fraction of "
                  "full scale), got ", adcOffset);
    }
    if (!(adcNoiseSigma >= 0.0 && adcNoiseSigma <= 1.0)) {
        CIM_FATAL("faults.adc_noise_sigma must be within [0, 1] (fraction "
                  "of full scale), got ", adcNoiseSigma);
    }
}

FaultModel
FaultModel::fromYaml(const yaml::Node& node)
{
    if (!node.isMapping())
        CIM_FATAL("fault spec must be a YAML mapping holding a 'faults:' "
                  "key or the fault keys themselves (stuck_off_rate, "
                  "stuck_on_rate, conductance_sigma, adc_offset, "
                  "adc_noise_sigma, seed)");
    const yaml::Node* body = node.find("faults");
    const yaml::Node& map = body ? *body : node;
    if (!map.isMapping())
        CIM_FATAL("'faults' must hold a YAML mapping of fault keys, not "
                  "a scalar or sequence");

    // Re-raise kind mismatches from the YAML layer with the offending
    // key path attached, so "expected number" names the bad key.
    auto num = [](const std::string& key,
                  const yaml::Node& value) -> double {
        try {
            return value.asDouble();
        } catch (const FatalError& e) {
            CIM_FATAL("faults.", key, ": ", e.what());
        }
    };

    FaultModel m;
    for (const auto& [key, value] : map.items()) {
        if (key == "stuck_off_rate") {
            m.stuckOffRate = num(key, value);
        } else if (key == "stuck_on_rate") {
            m.stuckOnRate = num(key, value);
        } else if (key == "conductance_sigma") {
            m.conductanceSigma = num(key, value);
        } else if (key == "adc_offset") {
            m.adcOffset = num(key, value);
        } else if (key == "adc_noise_sigma") {
            m.adcNoiseSigma = num(key, value);
        } else if (key == "seed") {
            std::int64_t s = 0;
            try {
                s = value.asInt();
            } catch (const FatalError& e) {
                CIM_FATAL("faults.seed: ", e.what());
            }
            if (s < 0)
                CIM_FATAL("faults.seed must be >= 0, got ", s);
            m.seed = static_cast<std::uint64_t>(s);
        } else {
            CIM_FATAL("unknown fault spec key 'faults.", key,
                      "' (known: stuck_off_rate, stuck_on_rate, "
                      "conductance_sigma, adc_offset, adc_noise_sigma, "
                      "seed)");
        }
    }
    m.validate();
    return m;
}

FaultModel
FaultModel::fromFile(const std::string& path)
{
    return fromYaml(yaml::parseFile(path));
}

std::uint64_t
layerFaultSeed(const FaultModel& model, const std::string& layer_name,
               int layer_index)
{
    return model.seed ^ dist::stableHash(layer_name) ^
           (0x9E3779B97F4A7C15ull *
            static_cast<std::uint64_t>(layer_index + 1));
}

void
perturbConductances(const FaultModel& model, std::uint64_t fault_seed,
                    std::vector<double>& g_norm)
{
    if (!model.cellFaultsEnabled())
        return;
    CellFaultTally tally;
    perturbConductances(model, fault_seed, 0, g_norm.data(), g_norm.size(),
                        tally);
    countCellFaults(tally);
}

void
perturbConductances(const FaultModel& model, std::uint64_t fault_seed,
                    std::uint64_t first, double* g, std::size_t n,
                    CellFaultTally& tally)
{
    if (!model.cellFaultsEnabled())
        return;
    const double p_off = model.stuckOffRate;
    const double p_on = model.stuckOnRate;
    const double sigma = model.conductanceSigma;
    const double log_shift = -0.5 * sigma * sigma; // mean-preserving
    for (std::size_t i = 0; i < n; ++i) {
        Rng rng = Rng::forStream(fault_seed, first + i);
        double u = rng.uniform();
        if (u < p_off) {
            g[i] = 0.0;
            ++tally.stuckOff;
        } else if (u < p_off + p_on) {
            g[i] = 1.0;
            ++tally.stuckOn;
        } else if (sigma > 0.0) {
            g[i] *= std::exp(sigma * rng.gaussian() + log_shift);
            ++tally.varied;
        }
    }
    tally.total += n;
}

void
countCellFaults(const CellFaultTally& tally)
{
    static obs::Counter& c_total = obs::counter("faults.cells.total");
    static obs::Counter& c_off = obs::counter("faults.cells.stuck_off");
    static obs::Counter& c_on = obs::counter("faults.cells.stuck_on");
    static obs::Counter& c_varied = obs::counter("faults.cells.varied");
    c_total.add(tally.total);
    c_off.add(tally.stuckOff);
    c_on.add(tally.stuckOn);
    c_varied.add(tally.varied);
}

namespace {

/**
 * Mean-preserving two-point inflation: each atom v splits into
 * v * (1 -/+ sqrt(exp(sigma^2) - 1)) at half its mass, matching the
 * lognormal variation's first and second moments exactly.
 */
std::vector<Pmf::Point>
inflatedPoints(const Pmf& levels, double sigma)
{
    const double spread =
        std::sqrt(std::exp(sigma * sigma) - 1.0);
    std::vector<Pmf::Point> pts;
    pts.reserve(2 * levels.size());
    for (const Pmf::Point& pt : levels.points()) {
        pts.push_back({pt.value * (1.0 - spread), 0.5 * pt.prob});
        pts.push_back({pt.value * (1.0 + spread), 0.5 * pt.prob});
    }
    return pts;
}

} // namespace

Pmf
perturbedCellLevels(const FaultModel& model, const Pmf& levels,
                    double max_level)
{
    if (!model.cellFaultsEnabled())
        return levels;
    const double survivors = model.survivorRate();
    std::vector<Pmf::Point> pts =
        model.conductanceSigma > 0.0
            ? inflatedPoints(levels, model.conductanceSigma)
            : levels.points();
    for (Pmf::Point& pt : pts)
        pt.prob *= survivors;
    if (model.stuckOffRate > 0.0)
        pts.push_back({0.0, model.stuckOffRate});
    if (model.stuckOnRate > 0.0)
        pts.push_back({max_level, model.stuckOnRate});
    return Pmf::fromPoints(std::move(pts));
}

namespace {

/** Rounds and clamps perturbed points back onto the code lattice. */
Pmf
quantizedToCodes(std::vector<Pmf::Point> pts, double max_code)
{
    for (Pmf::Point& pt : pts) {
        double v = std::round(pt.value);
        pt.value = std::min(std::max(v, 0.0), max_code);
    }
    return Pmf::fromPoints(std::move(pts));
}

} // namespace

Pmf
perturbedCellCodes(const FaultModel& model, const Pmf& codes,
                   double max_code)
{
    if (!model.cellFaultsEnabled())
        return codes;
    static obs::Counter& c =
        obs::counter("faults.pmf.cell_perturbations");
    c.add();
    Pmf continuous = perturbedCellLevels(model, codes, max_code);
    return quantizedToCodes(continuous.points(), max_code);
}

Pmf
perturbedAdcCodes(const FaultModel& model, const Pmf& codes,
                  double max_code)
{
    if (!model.adcFaultsEnabled())
        return codes;
    static obs::Counter& c =
        obs::counter("faults.pmf.adc_perturbations");
    c.add();
    const double shift = model.adcOffset * max_code;
    const double kick = model.adcNoiseSigma * max_code;
    std::vector<Pmf::Point> pts;
    pts.reserve(2 * codes.size());
    for (const Pmf::Point& pt : codes.points()) {
        if (kick > 0.0) {
            pts.push_back({pt.value + shift - kick, 0.5 * pt.prob});
            pts.push_back({pt.value + shift + kick, 0.5 * pt.prob});
        } else {
            pts.push_back({pt.value + shift, pt.prob});
        }
    }
    return quantizedToCodes(std::move(pts), max_code);
}

} // namespace cimloop::faults
