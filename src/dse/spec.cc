/**
 * @file
 * Sweep specification: YAML parsing, validation, and grid-point
 * materialization. Everything here is deterministic — a point depends
 * only on (spec, index), never on threads or evaluation order.
 */
#include "cimloop/dse/dse.hh"

#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <sstream>
#include <type_traits>
#include <utility>

#include "cimloop/common/error.hh"
#include "cimloop/common/util.hh"
#include "cimloop/layout/layout.hh"
#include "cimloop/yaml/node.hh"
#include "cimloop/yaml/parser.hh"

namespace cimloop::dse {

namespace {

constexpr const char* kNumericFields =
    "rows, cols, array, dac_bits, adc_bits, cell_bits, input_bits, "
    "weight_bits, voltage, tech_nm, buffer_kb, mappings, "
    "fault_stuck_rate, stuck_off_rate, stuck_on_rate, "
    "conductance_sigma, adc_offset, adc_noise_sigma, fault_seed";

constexpr const char* kStringFields = "macro, network, layout";

bool
isStringField(const std::string& field)
{
    return field == "macro" || field == "network" || field == "layout";
}

/** Fatal unless @p value is a valid layout axis value. */
void
checkLayoutValue(const std::string& value, const std::string& at)
{
    if (!layout::isLayoutValueName(value)) {
        CIM_FATAL("unknown layout value '", value, "' at ", at,
                  " (known: none, search, ", layout::presetNames(),
                  ", or a .yaml layout spec path)");
    }
}

/**
 * One numeric sweep field: the integer type its axis values are cast to
 * (nullptr for a double field), how a value is written onto a point and
 * how constraints read it back. The one place a field is defined.
 */
struct NumericField
{
    const char* name;
    const char* intType;
    void (*set)(SweepPoint&, double);
    double (*get)(const SweepPoint&);
};

/** A field stored in the one point member @p Ref returns. */
template <typename Ref>
NumericField
memberField(const char* name, Ref)
{
    using T = std::remove_reference_t<
        decltype(Ref{}(std::declval<SweepPoint&>()))>;
    const char* int_type = nullptr;
    if constexpr (std::is_same_v<T, int>)
        int_type = "int";
    else if constexpr (std::is_same_v<T, std::int64_t>)
        int_type = "int64";
    else if constexpr (std::is_same_v<T, std::uint64_t>)
        int_type = "uint64";
    return {name, int_type,
            [](SweepPoint& s, double v) { Ref{}(s) = static_cast<T>(v); },
            [](const SweepPoint& s) { return static_cast<double>(Ref{}(s)); }};
}

const NumericField kNumericFieldTable[] = {
    memberField("rows", [](auto& s) -> auto& { return s.params.rows; }),
    memberField("cols", [](auto& s) -> auto& { return s.params.cols; }),
    {"array", "int64",
     [](SweepPoint& s, double v) {
         s.params.rows = s.params.cols = static_cast<std::int64_t>(v);
     },
     [](const SweepPoint& s) { return static_cast<double>(s.params.rows); }},
    memberField("dac_bits",
                [](auto& s) -> auto& { return s.params.dacBits; }),
    memberField("adc_bits",
                [](auto& s) -> auto& { return s.params.adcBits; }),
    memberField("cell_bits",
                [](auto& s) -> auto& { return s.params.cellBits; }),
    memberField("input_bits",
                [](auto& s) -> auto& { return s.params.inputBits; }),
    memberField("weight_bits",
                [](auto& s) -> auto& { return s.params.weightBits; }),
    memberField("voltage",
                [](auto& s) -> auto& { return s.params.supplyVoltage; }),
    memberField("tech_nm",
                [](auto& s) -> auto& { return s.params.technologyNm; }),
    memberField("buffer_kb",
                [](auto& s) -> auto& { return s.params.bufferKb; }),
    memberField("mappings", [](auto& s) -> auto& { return s.mappings; }),
    // Total stuck-cell rate, split evenly between the two polarities
    // (the convention bench/fault_sweep established).
    {"fault_stuck_rate", nullptr,
     [](SweepPoint& s, double v) {
         s.faults.stuckOffRate = v / 2.0;
         s.faults.stuckOnRate = v / 2.0;
     },
     [](const SweepPoint& s) {
         return s.faults.stuckOffRate + s.faults.stuckOnRate;
     }},
    memberField("stuck_off_rate",
                [](auto& s) -> auto& { return s.faults.stuckOffRate; }),
    memberField("stuck_on_rate",
                [](auto& s) -> auto& { return s.faults.stuckOnRate; }),
    memberField("conductance_sigma",
                [](auto& s) -> auto& { return s.faults.conductanceSigma; }),
    memberField("fault_sigma",
                [](auto& s) -> auto& { return s.faults.conductanceSigma; }),
    memberField("adc_offset",
                [](auto& s) -> auto& { return s.faults.adcOffset; }),
    memberField("adc_noise_sigma",
                [](auto& s) -> auto& { return s.faults.adcNoiseSigma; }),
    memberField("fault_seed", [](auto& s) -> auto& { return s.faults.seed; }),
};

/** The numeric field named @p field, or nullptr. */
const NumericField*
numericField(const std::string& field)
{
    for (const NumericField& f : kNumericFieldTable) {
        if (field == f.name)
            return &f;
    }
    return nullptr;
}

/** One rendering for axis values everywhere (labels, CSV, JSON), shared
 *  by the YAML and programmatic construction paths. */
std::string
renderNum(double v)
{
    if (v == std::floor(v) && std::abs(v) < 1e15) {
        std::ostringstream oss;
        oss << static_cast<long long>(v);
        return oss.str();
    }
    std::ostringstream oss;
    oss << v;
    return oss.str();
}

/**
 * Fatal unless @p x is finite and, for an integer field, casts exactly
 * to the field's type.
 */
void
checkNumericValue(const NumericField& field, double x, const std::string& at)
{
    if (!std::isfinite(x))
        CIM_FATAL(at, ": field '", field.name,
                  "' needs a finite number, got ", x);
    if (!field.intType)
        return;
    if (x != std::floor(x))
        CIM_FATAL(at, ": field '", field.name, "' needs an integer, got ",
                  renderNum(x));
    const std::string type = field.intType;
    const double hi = type == "int" ? 0x1p31 : type == "int64" ? 0x1p63
                                                               : 0x1p64;
    if (x < (type == "uint64" ? 0.0 : -hi) || x >= hi)
        CIM_FATAL(at, ": field '", field.name, "' is out of range for ",
                  type, ", got ", renderNum(x));
    if (std::string(field.name) == "mappings" && x < 1)
        CIM_FATAL(at, ": field 'mappings' must be >= 1, got ",
                  renderNum(x));
}

engine::Objective
objectiveFromName(const std::string& name, const char* key)
{
    if (std::optional<engine::Objective> o =
            engine::parseObjective(toLower(name)))
        return *o;
    CIM_FATAL("unknown objective '", name, "' at ", key,
              " (expected energy, edp, or delay)");
}

bool
isParetoObjective(const std::string& name)
{
    return name == "energy" || name == "energy_per_mac" ||
           name == "latency" || name == "area" || name == "accuracy";
}

/** Parses one sweep.axes[i] entry. */
Axis
axisFromYaml(const yaml::Node& node, std::size_t i)
{
    std::ostringstream path;
    path << "sweep.axes[" << i << "]";
    const std::string at = path.str();
    if (!node.isMapping())
        CIM_FATAL(at, " must be a YAML mapping with a 'field' key");

    Axis axis;
    const yaml::Node* values = nullptr;
    const yaml::Node* range = nullptr;
    for (const auto& [key, value] : node.items()) {
        if (key == "field") {
            axis.field = value.asString();
        } else if (key == "values") {
            values = &value;
        } else if (key == "range") {
            range = &value;
        } else {
            CIM_FATAL("unknown sweep axis key '", at, ".", key,
                      "' (known: field, values, range)");
        }
    }
    if (axis.field.empty())
        CIM_FATAL(at, ".field must be set");
    if ((values == nullptr) == (range == nullptr)) {
        CIM_FATAL(at, " must have exactly one of 'values' and 'range'");
    }

    if (values) {
        if (!values->isSequence())
            CIM_FATAL(at, ".values must be a YAML sequence");
        for (const yaml::Node& v : values->elements()) {
            AxisValue av;
            if (v.kind() == yaml::Kind::String) {
                av.isString = true;
                av.text = v.asString();
            } else {
                av.num = v.asDouble();
                av.text = renderNum(av.num);
            }
            axis.values.push_back(std::move(av));
        }
        return axis;
    }

    // range: {from, to, step} (additive) or {from, to, mult} (geometric)
    if (!range->isMapping())
        CIM_FATAL(at, ".range must be a YAML mapping "
                  "{from, to, step | mult}");
    for (const auto& [key, value] : range->items()) {
        (void)value;
        if (key != "from" && key != "to" && key != "step" &&
            key != "mult") {
            CIM_FATAL("unknown sweep range key '", at, ".range.", key,
                      "' (known: from, to, step, mult)");
        }
    }
    if (!range->has("from") || !range->has("to"))
        CIM_FATAL(at, ".range needs both 'from' and 'to'");
    const double from = (*range)["from"].asDouble();
    const double to = (*range)["to"].asDouble();
    const bool hasStep = range->has("step");
    const bool hasMult = range->has("mult");
    if (hasStep == hasMult) {
        CIM_FATAL(at, ".range must have exactly one of 'step' and "
                  "'mult'");
    }
    if (from > to)
        CIM_FATAL(at, ".range.from must be <= range.to, got ", from,
                  " > ", to);
    const double step = hasStep ? (*range)["step"].asDouble() : 0.0;
    const double mult = hasMult ? (*range)["mult"].asDouble() : 0.0;
    if (hasStep && step <= 0.0)
        CIM_FATAL(at, ".range.step must be > 0, got ", step);
    if (hasMult && mult <= 1.0)
        CIM_FATAL(at, ".range.mult must be > 1, got ", mult);
    if (hasMult && from <= 0.0)
        CIM_FATAL(at, ".range.from must be > 0 with 'mult', got ", from);
    // Tolerance so e.g. {from: 0.1, to: 0.5, step: 0.1} includes 0.5
    // despite binary rounding, and a geometric walk keeps its endpoint
    // when v * mult lands 1 ULP past `to`. Scaled to the range's own
    // magnitude: an absolute floor (the old max(1, |to|) form) admits
    // whole spurious values once |to| drops below it — {from: 1e-10,
    // to: 8e-10, mult: 2} must stop at 8e-10, not 1.6e-9.
    const double tol =
        1e-9 * std::max(std::abs(from), std::abs(to));
    for (double v = from; v <= to + tol;
         v = hasStep ? v + step : v * mult) {
        axis.values.push_back({v, renderNum(v), false});
        if (axis.values.size() > 1000000)
            CIM_FATAL(at, ".range enumerates more than 1e6 values");
    }
    return axis;
}

Constraint
constraintFromYaml(const yaml::Node& node, std::size_t j)
{
    std::ostringstream path;
    path << "sweep.constraints[" << j << "]";
    const std::string at = path.str();
    if (!node.isMapping())
        CIM_FATAL(at, " must be a YAML mapping "
                  "{field, min and/or max}");
    Constraint c;
    for (const auto& [key, value] : node.items()) {
        if (key == "field") {
            c.field = value.asString();
        } else if (key == "min") {
            c.hasMin = true;
            c.min = value.asDouble();
        } else if (key == "max") {
            c.hasMax = true;
            c.max = value.asDouble();
        } else {
            CIM_FATAL("unknown sweep constraint key '", at, ".", key,
                      "' (known: field, min, max)");
        }
    }
    if (c.field.empty())
        CIM_FATAL(at, ".field must be set");
    return c;
}

} // namespace

void
SweepSpec::addAxis(const std::string& field, std::vector<double> values)
{
    Axis axis;
    axis.field = field;
    axis.values.reserve(values.size());
    for (double v : values)
        axis.values.push_back({v, renderNum(v), false});
    axes.push_back(std::move(axis));
}

void
SweepSpec::addAxis(const std::string& field,
                   std::vector<std::string> values)
{
    Axis axis;
    axis.field = field;
    axis.values.reserve(values.size());
    for (std::string& v : values)
        axis.values.push_back({0.0, std::move(v), true});
    axes.push_back(std::move(axis));
}

std::size_t
SweepSpec::pointCount() const
{
    std::size_t n = 1;
    for (const Axis& axis : axes)
        n *= axis.values.size();
    return n;
}

void
SweepSpec::validateGrid() const
{
    for (std::size_t i = 0; i < axes.size(); ++i) {
        const Axis& axis = axes[i];
        std::ostringstream path;
        path << "sweep.axes[" << i << "]";
        const std::string at = path.str();
        if (axis.field.empty())
            CIM_FATAL(at, ".field must be set");
        const bool stringField = isStringField(axis.field);
        const NumericField* numeric = numericField(axis.field);
        if (!stringField && !numeric) {
            CIM_FATAL("unknown sweep axis field '", axis.field, "' at ",
                      at, ".field (numeric: ", kNumericFields,
                      "; string: ", kStringFields, ")");
        }
        if (axis.values.empty())
            CIM_FATAL(at, ".values must not be empty (field '",
                      axis.field, "')");
        for (std::size_t v = 0; v < axis.values.size(); ++v) {
            if (axis.values[v].isString != stringField) {
                CIM_FATAL(at, ".values[", v, "]: field '", axis.field,
                          "' takes ",
                          stringField ? "string" : "numeric",
                          " values, got '", axis.values[v].text, "'");
            }
            const std::string value_at =
                at + ".values[" + std::to_string(v) + "]";
            if (axis.field == "layout")
                checkLayoutValue(axis.values[v].text, value_at);
            else if (numeric)
                checkNumericValue(*numeric, axis.values[v].num, value_at);
        }
        for (std::size_t j = 0; j < i; ++j) {
            if (axes[j].field == axis.field) {
                CIM_FATAL("duplicate sweep axis field '", axis.field,
                          "' at sweep.axes[", j, "] and sweep.axes[", i,
                          "]");
            }
        }
    }
    for (std::size_t j = 0; j < constraints.size(); ++j) {
        const Constraint& c = constraints[j];
        std::ostringstream path;
        path << "sweep.constraints[" << j << "]";
        const std::string at = path.str();
        if (!numericField(c.field)) {
            CIM_FATAL("unknown sweep constraint field '", c.field,
                      "' at ", at, ".field (known: ", kNumericFields,
                      ")");
        }
        if (!c.hasMin && !c.hasMax)
            CIM_FATAL(at, " needs at least one of 'min' and 'max' "
                      "(field '", c.field, "')");
        if (c.hasMin && c.hasMax && c.min > c.max)
            CIM_FATAL(at, ".min must be <= max, got ", c.min, " > ",
                      c.max, " (field '", c.field, "')");
    }
    // Million-plus grids are fine — the executor streams chunks and
    // keeps only frontier + summary in memory past
    // SweepOptions::maxPointsInMemory. The overflow-guarded product
    // below only rejects grids whose sheer enumeration time could
    // never finish (and whose size_t product would wrap).
    constexpr std::size_t kMaxGridPoints = 1000000000000ull; // 1e12
    std::size_t n = 1;
    for (const Axis& axis : axes) {
        const std::size_t k = axis.values.size();
        if (k != 0 && n > kMaxGridPoints / k) {
            CIM_FATAL("sweep '", name, "' enumerates more than 1e12 "
                      "points; thin the axes");
        }
        n *= k;
    }
}

void
SweepSpec::validate() const
{
    validateGrid();
    const bool hasNetworkAxis = [&] {
        for (const Axis& axis : axes)
            if (axis.field == "network")
                return true;
        return false;
    }();
    if (!hasNetworkAxis && network.empty() == workloadPath.empty()) {
        CIM_FATAL("sweep '", name, "': exactly one of sweep.network and "
                  "sweep.workload must be set (network names a bundled "
                  "network; workload is a YAML file path)");
    }
    if (hasNetworkAxis && !workloadPath.empty()) {
        CIM_FATAL("sweep '", name, "': sweep.workload cannot be "
                  "combined with a 'network' axis");
    }
    if (mappings < 1)
        CIM_FATAL("sweep.mappings must be >= 1, got ", mappings);
    if (scaledAdcAnchor < 1)
        CIM_FATAL("sweep.scaled_adc_anchor must be >= 1, got ",
                  scaledAdcAnchor);
    if (paretoObjectives.empty())
        CIM_FATAL("sweep.pareto must name at least one objective");
    for (const std::string& obj : paretoObjectives) {
        if (!isParetoObjective(obj)) {
            CIM_FATAL("unknown pareto objective '", obj,
                      "' at sweep.pareto (known: energy, "
                      "energy_per_mac, latency, area, accuracy)");
        }
    }
    faults.validate();
    checkLayoutValue(layout, "sweep.layout");
    // The macro name resolves lazily per point (a 'macro' axis may
    // override it), but a bad base name should fail at spec time.
    macros::defaultsByName(macro);
}

SweepSpec
SweepSpec::fromYaml(const yaml::Node& node)
{
    if (!node.isMapping())
        CIM_FATAL("sweep spec must be a YAML mapping (bare keys or "
                  "under a top-level 'sweep:')");
    const yaml::Node* body = node.find("sweep");
    const yaml::Node& map = body ? *body : node;
    if (!map.isMapping())
        CIM_FATAL("sweep: must hold a YAML mapping");

    SweepSpec spec;
    for (const auto& [key, value] : map.items()) {
        if (key == "name") {
            spec.name = value.asString();
        } else if (key == "macro") {
            spec.macro = value.asString();
        } else if (key == "network") {
            spec.network = value.asString();
        } else if (key == "workload") {
            spec.workloadPath = value.asString();
        } else if (key == "mappings") {
            std::int64_t m = value.asInt();
            if (m < 1 || m > std::numeric_limits<int>::max())
                CIM_FATAL("sweep.mappings must be in [1, ",
                          std::numeric_limits<int>::max(), "], got ", m);
            spec.mappings = static_cast<int>(m);
        } else if (key == "seed") {
            std::int64_t s = value.asInt();
            if (s < 0)
                CIM_FATAL("sweep.seed must be >= 0, got ", s);
            spec.seed = static_cast<std::uint64_t>(s);
        } else if (key == "objective") {
            spec.objective =
                objectiveFromName(value.asString(), "sweep.objective");
        } else if (key == "scaled_adc") {
            spec.scaledAdc = value.asBool();
        } else if (key == "scaled_adc_anchor") {
            spec.scaledAdcAnchor = static_cast<int>(value.asInt());
        } else if (key == "pareto") {
            if (!value.isSequence())
                CIM_FATAL("sweep.pareto must be a YAML sequence of "
                          "objective names");
            spec.paretoObjectives.clear();
            for (const yaml::Node& obj : value.elements())
                spec.paretoObjectives.push_back(obj.asString());
        } else if (key == "axes") {
            if (!value.isSequence())
                CIM_FATAL("sweep.axes must be a YAML sequence");
            for (std::size_t i = 0; i < value.size(); ++i)
                spec.axes.push_back(axisFromYaml(value[i], i));
        } else if (key == "constraints") {
            if (!value.isSequence())
                CIM_FATAL("sweep.constraints must be a YAML sequence");
            for (std::size_t j = 0; j < value.size(); ++j)
                spec.constraints.push_back(
                    constraintFromYaml(value[j], j));
        } else if (key == "faults") {
            spec.faults = faults::FaultModel::fromYaml(value);
        } else if (key == "layout") {
            spec.layout = value.asString();
        } else {
            CIM_FATAL("unknown sweep spec key 'sweep.", key,
                      "' (known: name, macro, network, workload, "
                      "mappings, seed, objective, scaled_adc, "
                      "scaled_adc_anchor, pareto, axes, constraints, "
                      "faults, layout)");
        }
    }
    spec.validate();
    return spec;
}

SweepSpec
SweepSpec::fromFile(const std::string& path)
{
    return fromYaml(yaml::parseFile(path));
}

std::string
SweepPoint::label(const SweepSpec& spec) const
{
    if (axisText.empty())
        return "defaults";
    std::string out;
    for (std::size_t i = 0; i < axisText.size(); ++i) {
        if (i)
            out += ", ";
        out += spec.axes[i].field;
        out += '=';
        out += axisText[i];
    }
    return out;
}

double
SweepPoint::fieldValue(const std::string& field) const
{
    if (const NumericField* numeric = numericField(field))
        return numeric->get(*this);
    CIM_FATAL("unknown sweep field '", field, "' (known: ",
              kNumericFields, ")");
}

SweepPoint
pointShell(const SweepSpec& spec, std::size_t index)
{
    CIM_ASSERT(index < spec.pointCount(), "sweep point index ", index,
               " out of range (grid has ", spec.pointCount(),
               " points)");
    SweepPoint point;
    point.index = index;
    point.coords.resize(spec.axes.size());
    std::size_t rem = index;
    for (std::size_t i = spec.axes.size(); i-- > 0;) {
        point.coords[i] = rem % spec.axes[i].values.size();
        rem /= spec.axes[i].values.size();
    }
    point.axisText.reserve(spec.axes.size());
    for (std::size_t i = 0; i < spec.axes.size(); ++i)
        point.axisText.push_back(
            spec.axes[i].values[point.coords[i]].text);
    return point;
}

SweepPoint
materializePoint(const SweepSpec& spec, std::size_t index)
{
    SweepPoint point = pointShell(spec, index);

    point.macroName = spec.macro;
    point.networkName = spec.network;
    point.workloadPath = spec.workloadPath;
    point.mappings = spec.mappings;
    point.seed = spec.seed;
    point.objective = spec.objective;
    point.faults = spec.faults;
    point.layoutName = spec.layout;

    // String axes resolve first so the macro defaults they select form
    // the base the numeric axes then override.
    for (std::size_t i = 0; i < spec.axes.size(); ++i) {
        const Axis& axis = spec.axes[i];
        const AxisValue& v = axis.values[point.coords[i]];
        if (axis.field == "macro") {
            point.macroName = v.text;
        } else if (axis.field == "network") {
            point.networkName = v.text;
            point.workloadPath.clear();
        } else if (axis.field == "layout") {
            point.layoutName = v.text;
        }
    }
    point.params = macros::defaultsByName(point.macroName);
    for (std::size_t i = 0; i < spec.axes.size(); ++i) {
        const Axis& axis = spec.axes[i];
        if (isStringField(axis.field))
            continue;
        const NumericField* numeric = numericField(axis.field);
        CIM_ASSERT(numeric, "unvalidated numeric sweep field '",
                   axis.field, "'");
        numeric->set(point, axis.values[point.coords[i]].num);
    }
    if (spec.scaledAdc) {
        point.params.adcBits =
            macros::scaledAdcBits(point.params.rows,
                                  spec.scaledAdcAnchor) +
            std::max(0, point.params.dacBits - 3);
    }
    return point;
}

bool
pointIsValid(const SweepSpec& spec, const SweepPoint& point,
             std::string* reason)
{
    for (std::size_t j = 0; j < spec.constraints.size(); ++j) {
        const Constraint& c = spec.constraints[j];
        const double v = point.fieldValue(c.field);
        const bool ok = (!c.hasMin || v >= c.min) &&
                        (!c.hasMax || v <= c.max);
        if (ok)
            continue;
        if (reason) {
            std::ostringstream oss;
            oss << "constraint sweep.constraints[" << j << "] ("
                << c.field;
            if (c.hasMin)
                oss << " >= " << c.min;
            if (c.hasMin && c.hasMax)
                oss << " and";
            if (c.hasMax)
                oss << " <= " << c.max;
            oss << ") violated: " << c.field << " = " << renderNum(v);
            *reason = oss.str();
        }
        return false;
    }
    if (spec.validity && !spec.validity(point)) {
        if (reason)
            *reason = "validity predicate rejected the point";
        return false;
    }
    return true;
}

double
accuracyLossProxy(const macros::MacroParams& params,
                  const faults::FaultModel& faults)
{
    // Bits of column-sum information the ADC discards: a rows-deep
    // analog sum of dac*cell-bit products needs about
    // log2(rows) + dac + cell - 2 bits to digitize losslessly.
    const double needed =
        std::log2(static_cast<double>(std::max<std::int64_t>(
            params.rows, 1))) +
        params.dacBits + params.cellBits - 2.0;
    const double clip = std::max(0.0, needed - params.adcBits);
    const double faultLoss =
        8.0 * (faults.stuckOffRate + faults.stuckOnRate) +
        faults.conductanceSigma + 4.0 * faults.adcNoiseSigma +
        2.0 * std::abs(faults.adcOffset);
    return clip + faultLoss;
}

std::string
specFingerprint(const SweepSpec& spec)
{
    // Serialize every field a grid index's evaluation depends on at
    // full precision, with 0x1f separators so no concatenation of two
    // specs can alias. The programmatic validity predicate cannot be
    // hashed and is deliberately absent (see the header).
    std::ostringstream oss;
    oss.precision(17);
    oss << "cimloop-sweep-v1" << '\x1f' << spec.name << '\x1f'
        << spec.macro << '\x1f' << spec.network << '\x1f'
        << spec.workloadPath << '\x1f' << spec.mappings << ' '
        << spec.seed << ' ' << static_cast<int>(spec.objective) << ' '
        << spec.scaledAdc << ' ' << spec.scaledAdcAnchor << '\x1f'
        << spec.faults.stuckOffRate << ' ' << spec.faults.stuckOnRate
        << ' ' << spec.faults.conductanceSigma << ' '
        << spec.faults.adcOffset << ' ' << spec.faults.adcNoiseSigma
        << ' ' << spec.faults.seed << '\x1f';
    // The base layout joins the fingerprint only when set: journals of
    // pre-layout specs keep their fingerprints (and stay resumable).
    if (spec.layout != "none")
        oss << "layout" << '\x1f' << spec.layout << '\x1f';
    for (const Axis& axis : spec.axes) {
        oss << "axis" << '\x1f' << axis.field << '\x1f';
        for (const AxisValue& v : axis.values)
            oss << v.isString << ' ' << v.num << ' ' << v.text
                << '\x1f';
    }
    for (const Constraint& c : spec.constraints) {
        oss << "constraint" << '\x1f' << c.field << '\x1f' << c.hasMin
            << ' ' << c.min << ' ' << c.hasMax << ' ' << c.max
            << '\x1f';
    }
    for (const std::string& obj : spec.paretoObjectives)
        oss << "pareto" << '\x1f' << obj << '\x1f';
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(oss.str())));
    return buf;
}

const char*
pointStatusName(PointStatus s)
{
    switch (s) {
    case PointStatus::Ok:
        return "ok";
    case PointStatus::Skipped:
        return "skipped";
    case PointStatus::Failed:
        return "failed";
    }
    return "?";
}

} // namespace cimloop::dse
