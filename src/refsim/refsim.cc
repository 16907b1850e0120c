#include "cimloop/refsim/refsim.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "cimloop/common/error.hh"
#include "cimloop/common/parallel.hh"
#include "cimloop/common/util.hh"
#include "cimloop/dist/encoding.hh"
#include "cimloop/dist/reduce.hh"
#include "cimloop/faults/faults.hh"
#include "cimloop/models/tech.hh"
#include "cimloop/obs/obs.hh"

namespace cimloop::refsim {

using dist::EncodedTensor;
using dist::Pmf;
using workload::Dim;
using workload::Layer;

namespace {

/**
 * Shared physics, mirroring the plug-in constants (src/models/plugins.cc)
 * so that the statistical model and the value-level simulator disagree
 * only through their treatment of data values.
 */
struct Physics
{
    double e65;         //!< tech energy scale relative to 65 nm
    int dacBits;
    int adcBits;
    bool valueAwareAdc;

    // DAC (capacitive, value-proportional).
    static constexpr double kDacUnitFj = 3.0;
    static constexpr double kDacBaseFjPerBit = 1.5;

    // ReRAM cell: G V^2 T.
    static constexpr double kGOnUs = 100.0;
    static constexpr double kGOffUs = 2.0;
    static constexpr double kVRead = 0.3;
    static constexpr double kTReadNs = 10.0;

    // ADC: survey regression.
    static constexpr double kAdcFomFj = 25.0;

    // Digital shift-add per ADC output.
    static constexpr double kShiftAddPj = 0.064;

    // Buffer word access (CACTI-lite at 8K x 64b).
    static constexpr double kBufferWordPj = 8.9;

    // Hoisted per-call invariants (pow() would otherwise run on every
    // DAC/ADC convert of the value-level loop).
    double dacLevels;
    double adcConvertPj;

    explicit Physics(const RefSimConfig& c)
        : e65(models::energyScale(65.0, c.technologyNm)),
          dacBits(c.dacBits), adcBits(c.adcBits),
          valueAwareAdc(c.valueAwareAdc),
          dacLevels(std::pow(2.0, c.dacBits) - 1.0),
          adcConvertPj(kAdcFomFj * std::pow(2.0, c.adcBits) / 1000.0 *
                       models::energyScale(65.0, c.technologyNm))
    {}

    /** DAC convert of a normalized slice level in [0, 1]. */
    double
    dacPj(double x_norm) const
    {
        return (kDacUnitFj * x_norm * dacLevels +
                kDacBaseFjPerBit * dacBits) / 1000.0 * e65;
    }

    /** One cell read: conductance level g_norm, input level x_norm. */
    double
    cellPj(double g_norm, double x_norm) const
    {
        double g_us = kGOffUs + (kGOnUs - kGOffUs) * g_norm;
        double v2 = kVRead * kVRead * x_norm * x_norm;
        return g_us * v2 * kTReadNs / 1000.0; // uS * V^2 * ns = fJ
    }

    /** One ADC convert of a normalized column sum in [0, 1]. */
    double
    adcPj(double sum_norm) const
    {
        double e = adcConvertPj;
        if (valueAwareAdc) {
            // Value-aware SAR: resolved-bit count grows ~sqrt-like with
            // the code, so the energy transfer is concave — which is why
            // the *spread* of the column-sum distribution (and thus the
            // independence assumption) matters, not just its mean.
            e *= 0.3 + 0.7 * std::min(1.0,
                                      std::sqrt(2.0 * std::abs(sum_norm)));
        }
        return e;
    }

    double
    shiftAddPj() const
    {
        return kShiftAddPj * e65;
    }

    double
    bufferPjPerWord() const
    {
        return kBufferWordPj * e65;
    }
};

/** Matrix view of a layer: reduction, outputs, activation vectors. */
struct LayerShape
{
    std::int64_t c_total; //!< C * R * S
    std::int64_t k_total; //!< K
    std::int64_t vectors; //!< N * P * Q
    std::int64_t ib;      //!< input slices
    std::int64_t wb;      //!< weight slices
    std::int64_t kcols;   //!< outputs per column tile (cols / WB)
    std::int64_t tiles_c;
    std::int64_t tiles_k;

    LayerShape(const RefSimConfig& cfg, const Layer& layer)
    {
        c_total = layer.size(Dim::C) * layer.size(Dim::R) *
                  layer.size(Dim::S);
        k_total = layer.size(Dim::K);
        vectors = layer.size(Dim::N) * layer.size(Dim::P) *
                  layer.size(Dim::Q);
        ib = ceilDiv(cfg.inputBits, cfg.dacBits);
        wb = ceilDiv(cfg.weightBits, cfg.cellBits);
        kcols = std::max<std::int64_t>(1, cfg.cols / wb);
        tiles_c = ceilDiv(c_total, cfg.rows);
        tiles_k = ceilDiv(k_total, kcols);
    }
};

/** Deterministic layer-dependent generator parameters (mirrors the
 *  structure of dist::synthesizeOperands, plus joint correlations). */
struct GenParams
{
    double inSigma;     //!< activation scale (fraction of full range)
    double wtSigma;     //!< weight scale
    double zeroProb;    //!< extra activation sparsity
    bool signedInputs;  //!< first layer behaves image-like

    GenParams(const std::string& network, int index, int num_layers)
    {
        Rng rng(dist::stableHash(network) ^
                (0x9E3779B97F4A7C15ull *
                 static_cast<std::uint64_t>(index + 1)));
        double u_act = rng.uniform();
        rng.uniform(); // u_wt drawn below to decorrelate
        double u_wt = rng.uniform();
        double u_sp = rng.uniform();
        double depth = num_layers > 1
            ? static_cast<double>(index) /
                  static_cast<double>(num_layers - 1)
            : 0.0;
        signedInputs = (index == 0);
        inSigma = signedInputs
            ? 0.18 + 0.12 * u_act
            : 0.06 + 0.30 * u_act * (1.0 - 0.5 * depth);
        wtSigma = 0.05 + 0.18 * u_wt;
        zeroProb = signedInputs ? 0.0 : 0.25 + 0.40 * u_sp;
    }
};

/** Normalized level of slice @p slice_idx of unsigned code @p code. */
double
sliceNorm(std::int64_t code, int slice_idx, int slice_bits, int total_bits)
{
    int lo = slice_idx * slice_bits;
    int width = std::min(slice_bits, total_bits - lo);
    std::int64_t mask = (std::int64_t{1} << width) - 1;
    std::int64_t v = (code >> lo) & mask;
    std::int64_t max_code = (std::int64_t{1} << width) - 1;
    return max_code > 0 ? static_cast<double>(v) /
                              static_cast<double>(max_code)
                        : 0.0;
}

/** Offset-encodes a signed operand to an unsigned code at @p bits. */
std::int64_t
offsetCode(double v, int bits)
{
    std::int64_t half = std::int64_t{1} << (bits - 1);
    std::int64_t full = (std::int64_t{1} << bits) - 1;
    auto c = static_cast<std::int64_t>(std::llround(v)) + half;
    if (c < 0)
        c = 0;
    if (c > full)
        c = full;
    return c;
}

/** Closed-form action counts shared by all three estimators. */
struct ActionCounts
{
    double dac, cells, adc, digital, buffer_reads, buffer_writes;

    ActionCounts(const LayerShape& s, bool accumulate_across_input_bits)
    {
        double v = static_cast<double>(s.vectors);
        dac = v * static_cast<double>(s.tiles_k) *
              static_cast<double>(s.c_total) * static_cast<double>(s.ib);
        cells = v * static_cast<double>(s.c_total) *
                static_cast<double>(s.k_total) *
                static_cast<double>(s.ib) * static_cast<double>(s.wb);
        // With an analog accumulator (Macro C) the ADC converts each
        // output once, not once per input-bit cycle.
        double adc_ib = accumulate_across_input_bits
            ? 1.0
            : static_cast<double>(s.ib);
        adc = v * static_cast<double>(s.k_total) * adc_ib *
              static_cast<double>(s.wb) * static_cast<double>(s.tiles_c);
        digital = adc;
        buffer_reads = dac; // one input-slice fetch per DAC convert
        buffer_writes = v * static_cast<double>(s.k_total);
    }
};

} // namespace

namespace {

/**
 * One sampled activation vector's contribution. Energies are summed
 * per-vector and reduced in ascending vector order afterwards, and the
 * input histogram is kept as integer counts (whose merge is exact), so
 * the full result is bit-identical for any thread count.
 */
struct VectorPartial
{
    double dacPj = 0.0;
    double cellPj = 0.0;
    double adcPj = 0.0;
    double digitalPj = 0.0;
    std::int64_t values = 0;
    std::vector<std::int64_t> inCounts; //!< histogram over input codes
    std::vector<Pmf::Point> outPts;     //!< recorded output samples
};

/** Simulates vector @p v of the layer into @p part. The per-vector RNG
 *  stream makes the draw independent of which thread runs it. */
void
simulateVector(const RefSimConfig& config, const Physics& phys,
               const LayerShape& shape, const GenParams& gen,
               const std::vector<double>& weights,
               const std::vector<double>& g_norm,
               const std::vector<double>& bit_weight,
               std::uint64_t layer_seed, std::int64_t v, bool record,
               VectorPartial& part)
{
    const std::int64_t in_half = std::int64_t{1} << (config.inputBits - 1);
    const std::int64_t wt_half = std::int64_t{1} << (config.weightBits - 1);
    Rng rng = Rng::forStream(layer_seed, static_cast<std::uint64_t>(v));

    // ADC non-idealities: every convert of this vector reads out shifted
    // by the offset plus a fresh noise draw from the per-vector stream
    // (serial within the vector, so still bit-identical at any thread
    // count). Gated so fault-free runs draw nothing and stay bit-identical
    // to the pre-fault baseline.
    const bool adc_faulty = config.faults.adcFaultsEnabled();
    const double adc_offset = config.faults.adcOffset;
    const double adc_noise = config.faults.adcNoiseSigma;
    auto adcReadout = [&](double sum_norm) {
        if (adc_faulty) {
            if (adc_noise > 0.0)
                sum_norm += adc_noise * rng.gaussian();
            sum_norm += adc_offset;
        }
        return sum_norm;
    };

    // Per-worker scratch: reused across every vector a thread simulates.
    thread_local std::vector<double> x;
    thread_local std::vector<double> xn;
    thread_local std::vector<double> xn2;
    thread_local std::vector<double> sum_x2;
    x.resize(shape.c_total);
    xn.resize(shape.ib * shape.c_total);
    xn2.resize(shape.ib * shape.c_total);
    sum_x2.resize(shape.ib);

    // Correlated activations: a shared per-vector contrast factor.
    double contrast = std::exp(config.contrastStd * rng.gaussian());
    for (std::int64_t c = 0; c < shape.c_total; ++c) {
        double val;
        if (gen.signedInputs) {
            val = contrast * gen.inSigma *
                  static_cast<double>(in_half) * rng.gaussian();
        } else {
            if (rng.uniform() < gen.zeroProb) {
                val = 0.0;
            } else {
                val = std::abs(contrast * gen.inSigma *
                               static_cast<double>(in_half) *
                               rng.gaussian());
            }
        }
        val = std::max(std::min(val, static_cast<double>(in_half - 1)),
                       gen.signedInputs
                           ? static_cast<double>(-in_half)
                           : 0.0);
        x[c] = std::round(val);
    }
    if (record) {
        part.inCounts.assign(
            static_cast<std::size_t>(std::int64_t{1} << config.inputBits),
            0);
        for (std::int64_t c = 0; c < shape.c_total; ++c)
            ++part.inCounts[static_cast<std::size_t>(
                static_cast<std::int64_t>(x[c]) + in_half)];
    }

    // Slice levels for every input-bit slice of this vector.
    for (std::int64_t c = 0; c < shape.c_total; ++c) {
        std::int64_t code = offsetCode(x[c], config.inputBits);
        for (std::int64_t ib = 0; ib < shape.ib; ++ib) {
            double level = sliceNorm(code, static_cast<int>(ib),
                                     config.dacBits, config.inputBits);
            xn[ib * shape.c_total + c] = level;
            xn2[ib * shape.c_total + c] = level * level;
        }
    }

    // 1-bit DAC slices drive exact 0.0 / 1.0 levels, so xn2 == xn
    // element-for-element and the energy dot product equals the signal
    // dot product (same doubles, same order): skip the second dot.
    const bool unit_levels = config.dacBits == 1;
    const double v2 = Physics::kVRead * Physics::kVRead;
    for (std::int64_t ct = 0; ct < shape.tiles_c; ++ct) {
        std::int64_t c0 = ct * config.rows;
        std::int64_t c1 = std::min(c0 + config.rows, shape.c_total);
        auto rows_used = static_cast<double>(c1 - c0);

        // DAC converts: one per row per input-bit cycle, re-driven for
        // every k-tile — the per-tile sum is identical each time, so
        // compute it once and charge it tiles_k times.
        double dac_tile = 0.0;
        for (std::int64_t ib = 0; ib < shape.ib; ++ib) {
            const double* xs = &xn[ib * shape.c_total];
            for (std::int64_t c = c0; c < c1; ++c)
                dac_tile += phys.dacPj(xs[c]);
        }
        part.dacPj += static_cast<double>(shape.tiles_k) * dac_tile;

        // Per-slice x^2 row sums over this tile: independent of (k, wb),
        // so hoist them out of the column loops.
        const auto tile_len = static_cast<std::size_t>(c1 - c0);
        for (std::int64_t ib = 0; ib < shape.ib; ++ib)
            sum_x2[ib] = dist::sum(&xn2[ib * shape.c_total] + c0, tile_len);

        for (std::int64_t k = 0; k < shape.k_total; ++k) {
            for (std::int64_t wb = 0; wb < shape.wb; ++wb) {
                // Slice-major conductance row: contiguous in c, so the
                // dot products stream it under the fixed association
                // from reduce.hh — the same bytes at any thread count.
                const double* g =
                    &g_norm[(k * shape.wb + wb) * shape.c_total];
                double acc_s = 0.0; // accumulated across cycles
                for (std::int64_t ib = 0; ib < shape.ib; ++ib) {
                    const double* xs = &xn[ib * shape.c_total];
                    const double* xs2 = &xn2[ib * shape.c_total];
                    double dot_s = 0.0; // sum x*g (ADC input)
                    double dot_e = 0.0; // sum x^2*g (cells)
                    if (unit_levels) {
                        dot_s = dist::dot(xs + c0, g + c0, tile_len);
                        dot_e = dot_s;
                    } else {
                        dist::dotPair(xs + c0, xs2 + c0, g + c0, tile_len,
                                      dot_s, dot_e);
                    }
                    // Cell energy, exact over the tile.
                    part.cellPj +=
                        (Physics::kGOffUs * sum_x2[ib] +
                         (Physics::kGOnUs - Physics::kGOffUs) * dot_e) *
                        v2 * Physics::kTReadNs / 1000.0;
                    part.values += static_cast<std::int64_t>(rows_used);
                    if (config.accumulateAcrossInputBits) {
                        // Integrate on the analog accumulator
                        // (binary-weighted across cycles).
                        acc_s += dot_s * bit_weight[ib];
                    } else {
                        part.adcPj += phys.adcPj(
                            adcReadout(dot_s / rows_used));
                        part.digitalPj += phys.shiftAddPj();
                        ++part.values;
                    }
                }
                if (config.accumulateAcrossInputBits) {
                    double norm = acc_s / (2.0 * rows_used);
                    part.adcPj += phys.adcPj(adcReadout(norm));
                    part.digitalPj += phys.shiftAddPj();
                    ++part.values;
                }
            }
        }
    }

    // Output values for the recorded profile.
    if (record && v < 8) {
        for (std::int64_t k = 0;
             k < std::min<std::int64_t>(shape.k_total, 64); ++k) {
            double dot = 0.0;
            for (std::int64_t c = 0; c < shape.c_total; ++c)
                dot += x[c] * weights[k * shape.c_total + c];
            double norm = dot / (static_cast<double>(shape.c_total) *
                                 static_cast<double>(wt_half));
            part.outPts.push_back(
                {std::round(std::max(
                     std::min(norm * static_cast<double>(in_half),
                              static_cast<double>(in_half - 1)),
                     static_cast<double>(-in_half))),
                 1.0});
        }
    }
}

} // namespace

RefSimResult
simulateValueLevel(const RefSimConfig& config, const Layer& layer,
                   dist::OperandProfile* out_profile)
{
    CIM_SPAN("refsim.simulate_layer");
    config.cancel.throwIfCancelled("value-level simulation of layer '" +
                                   layer.name + "'");
    CIM_ASSERT(config.rows >= 1 && config.cols >= 1,
               "refsim needs a non-empty array");
    if (config.maxVectors < 0) {
        CIM_FATAL("refsim maxVectors must be >= 0 (0 simulates every "
                  "vector), got ", config.maxVectors);
    }
    if (config.seed == 0) {
        CIM_FATAL("refsim seed must be nonzero (seed 0 would silently "
                  "alias the generator's internal fallback state)");
    }
    if (config.threads < 1) {
        CIM_FATAL("refsim threads must be >= 1, got ", config.threads);
    }
    config.faults.validate();
    Physics phys(config);
    LayerShape shape(config, layer);
    GenParams gen(layer.network.empty() ? layer.name : layer.network,
                  layer.index, std::max(layer.networkLayers, 1));

    if (shape.c_total * shape.k_total > (std::int64_t{1} << 24)) {
        CIM_FATAL("layer '", layer.name, "' weight matrix (",
                  shape.c_total, " x ", shape.k_total,
                  ") is too large for value-level simulation");
    }

    const std::uint64_t layer_seed =
        config.seed ^ dist::stableHash(layer.name) ^
        (0x9E3779B97F4A7C15ull *
         static_cast<std::uint64_t>(layer.index + 1));
    Rng rng(layer_seed);

    const std::int64_t wt_half = std::int64_t{1} << (config.weightBits - 1);

    // --- Sample the (correlated) weight matrix once: per-filter scale. ---
    std::vector<double> weights(shape.c_total * shape.k_total);
    for (std::int64_t k = 0; k < shape.k_total; ++k) {
        double filter_scale = std::exp(0.3 * rng.gaussian());
        for (std::int64_t c = 0; c < shape.c_total; ++c) {
            double w = filter_scale * gen.wtSigma *
                       static_cast<double>(wt_half) * rng.gaussian();
            w = std::max(std::min(w, static_cast<double>(wt_half - 1)),
                         static_cast<double>(-wt_half));
            weights[k * shape.c_total + c] = std::round(w);
        }
    }

    // Precompute per-(k, wb, c) cell conductance levels, slice-major so
    // the kernel's c loop runs over contiguous memory.
    std::vector<double> g_norm(weights.size() * shape.wb);
    for (std::int64_t k = 0; k < shape.k_total; ++k) {
        for (std::int64_t c = 0; c < shape.c_total; ++c) {
            std::int64_t code = offsetCode(weights[k * shape.c_total + c],
                                           config.weightBits);
            for (std::int64_t wb = 0; wb < shape.wb; ++wb) {
                g_norm[(k * shape.wb + wb) * shape.c_total + c] =
                    sliceNorm(code, static_cast<int>(wb), config.cellBits,
                              config.weightBits);
            }
        }
    }

    // Inject device faults into the conductance array: each cell draws
    // from its own counter-derived stream, so the pattern depends only on
    // (fault model, layer identity, flat cell index) — never on thread
    // scheduling. The recorded operand profile keeps the IDEAL weights:
    // the statistical model receives clean marginals and applies the same
    // fault model analytically, which is exactly the truth-vs-model
    // comparison the fault tests assert.
    if (config.faults.cellFaultsEnabled()) {
        faults::perturbConductances(
            config.faults,
            faults::layerFaultSeed(config.faults, layer.name, layer.index),
            g_norm);
    }

    // Binary cycle weights for the Macro-C analog accumulator.
    std::vector<double> bit_weight(shape.ib);
    for (std::int64_t ib = 0; ib < shape.ib; ++ib)
        bit_weight[ib] = std::pow(2.0, -(shape.ib - 1 - ib));

    std::int64_t sim_vectors = shape.vectors;
    if (config.maxVectors > 0)
        sim_vectors = std::min(sim_vectors, config.maxVectors);
    double scale = static_cast<double>(shape.vectors) /
                   static_cast<double>(sim_vectors);

    // Fan the sampled vectors over workers; each vector draws from its
    // own counter-derived stream (Rng::forStream(layer_seed, v)), so the
    // sampled values do not depend on thread scheduling.
    const bool record = out_profile != nullptr;
    std::vector<VectorPartial> partials(sim_vectors);
    // Workers poll the token between vectors; a fired token throws
    // CancelledError out of the parallelFor join, abandoning the layer
    // whole — no partial reduction ever escapes.
    parallelFor(config.threads, static_cast<std::size_t>(sim_vectors),
                [&](std::size_t v) {
                    simulateVector(config, phys, shape, gen, weights,
                                   g_norm, bit_weight, layer_seed,
                                   static_cast<std::int64_t>(v), record,
                                   partials[v]);
                },
                &config.cancel);

    // Deterministic ordered reduction: ascending vector order, so energy
    // sums (and histogram concatenation) are bit-identical for any
    // thread count.
    RefSimResult res;
    std::vector<std::int64_t> in_counts(
        record ? static_cast<std::size_t>(std::int64_t{1}
                                          << config.inputBits)
               : 0,
        0);
    std::vector<Pmf::Point> out_hist;
    for (std::int64_t v = 0; v < sim_vectors; ++v) {
        const VectorPartial& part = partials[v];
        res.dacPj += part.dacPj;
        res.cellPj += part.cellPj;
        res.adcPj += part.adcPj;
        res.digitalPj += part.digitalPj;
        res.valuesSimulated += part.values;
        if (record) {
            for (std::size_t i = 0; i < in_counts.size(); ++i)
                in_counts[i] += part.inCounts[i];
            out_hist.insert(out_hist.end(), part.outPts.begin(),
                            part.outPts.end());
        }
    }

    static obs::Counter& c_vectors =
        obs::counter("refsim.vectors.simulated");
    static obs::Counter& c_values = obs::counter("refsim.values.simulated");
    c_vectors.add(static_cast<std::uint64_t>(sim_vectors));
    c_values.add(static_cast<std::uint64_t>(res.valuesSimulated));

    // Scale the sampled vectors up to the full layer.
    res.dacPj *= scale;
    res.cellPj *= scale;
    res.adcPj *= scale;
    res.digitalPj *= scale;

    // Buffer traffic is value-independent; count it analytically.
    ActionCounts counts(shape, config.accumulateAcrossInputBits);
    res.bufferPj = (counts.buffer_reads + counts.buffer_writes) *
                   phys.bufferPjPerWord() / 8.0;
    res.ops = counts.cells;

    if (out_profile) {
        const std::int64_t in_half =
            std::int64_t{1} << (config.inputBits - 1);
        std::vector<Pmf::Point> in_pts;
        for (std::size_t i = 0; i < in_counts.size(); ++i) {
            if (in_counts[i] > 0)
                in_pts.push_back(
                    {static_cast<double>(static_cast<std::int64_t>(i) -
                                         in_half),
                     static_cast<double>(in_counts[i])});
        }
        out_profile->inputs = Pmf::fromPoints(std::move(in_pts));
        out_profile->weights = Pmf::fromPoints([&] {
            std::vector<Pmf::Point> pts;
            pts.reserve(weights.size());
            for (double w : weights)
                pts.push_back({w, 1.0});
            return pts;
        }());
        out_profile->outputs = out_hist.empty()
            ? Pmf::delta(0.0)
            : Pmf::fromPoints(std::move(out_hist));
        out_profile->inputSparsity = out_profile->inputs.probOf(0.0);
    }
    return res;
}

namespace {

/** Per-action energies from marginal PMFs (the statistical model). */
struct StatEnergies
{
    double dac_pj;
    double cell_pj;
    double adc_pj;
    double digital_pj;
    double buffer_word_pj;

    StatEnergies(const RefSimConfig& config, const LayerShape& shape,
                 const dist::OperandProfile& profile)
    {
        Physics phys(config);

        // Inputs: offset-encode, slice, take the slice mixture.
        EncodedTensor in_full = dist::encodeOperands(
            profile.inputs, dist::Encoding::Offset, config.inputBits);
        double exf = in_full.meanNormValue();
        double exf2 = in_full.meanNormSquare();
        std::vector<EncodedTensor> in_slices =
            in_full.slices(config.dacBits);
        double e_dac = 0.0, ex = 0.0, ex2 = 0.0;
        for (const EncodedTensor& s : in_slices) {
            double mc = s.maxCode();
            e_dac += s.codes.expectation([&](double code) {
                return phys.dacPj(mc > 0 ? code / mc : 0.0);
            });
            ex += s.meanNormValue();
            ex2 += s.meanNormSquare();
        }
        double n_slices = static_cast<double>(in_slices.size());
        dac_pj = e_dac / n_slices;
        ex /= n_slices;
        ex2 /= n_slices;

        // Weights: offset-encode, slice at the cell width. Device faults
        // perturb each slice's level PMF the same way the value-level
        // simulator perturbs cells: stuck-at mass moves to the 0 / full
        // atoms and surviving levels get the mean-preserving two-point
        // variance inflation, whose first two moments exactly match the
        // injected lognormal variation.
        EncodedTensor wt_full = dist::encodeOperands(
            profile.weights, dist::Encoding::Offset, config.weightBits);
        std::vector<EncodedTensor> wt_slices =
            wt_full.slices(config.cellBits);
        double eg = 0.0, eg2 = 0.0;
        for (EncodedTensor& s : wt_slices) {
            if (config.faults.cellFaultsEnabled()) {
                s.codes = faults::perturbedCellLevels(config.faults,
                                                      s.codes, s.maxCode());
            }
            eg += s.meanNormValue();
            eg2 += s.meanNormSquare();
        }
        double n_wslices = static_cast<double>(wt_slices.size());
        eg /= n_wslices;
        eg2 /= n_wslices;

        // Cell: E[(g_off + gd*g) * v^2 * x^2] = independence-exact.
        double v2 = Physics::kVRead * Physics::kVRead;
        cell_pj = (Physics::kGOffUs * ex2 +
                   (Physics::kGOnUs - Physics::kGOffUs) * eg * ex2) *
                  v2 * Physics::kTReadNs / 1000.0;

        // ADC: the column sum of `rows` INDEPENDENT x*g terms (this is
        // the paper's independence approximation; the ground truth has
        // correlated terms). CLT Gaussian for E[f(sum / rows)]. Under
        // Macro-C accumulation the converted value integrates all input
        // bits, so the FULL-precision input moments apply.
        double rows = static_cast<double>(
            std::min<std::int64_t>(config.rows, shape.c_total));
        double mu1 = (config.accumulateAcrossInputBits ? exf : ex) * eg;
        double var1 = (config.accumulateAcrossInputBits ? exf2 : ex2) *
                          eg2 -
                      mu1 * mu1;
        // ADC faults shift the readout mean by the offset and widen it by
        // the per-convert noise variance (the value-level path draws both
        // per convert). The quantization window widens with them so no
        // perturbed mass clamps to the window ends.
        double mu = mu1 + config.faults.adcOffset;
        double sigma = std::sqrt(
            std::max(var1, 1e-12) / rows +
            config.faults.adcNoiseSigma * config.faults.adcNoiseSigma);
        std::int64_t window_lo = -100, window_hi = 1100;
        if (config.faults.adcFaultsEnabled()) {
            window_lo = -1100;
            window_hi = 2100;
        }
        Pmf sum_pmf = Pmf::quantizedGaussian(mu * 1000.0, sigma * 1000.0,
                                             window_lo, window_hi);
        adc_pj = sum_pmf.expectation(
            [&](double milli) { return phys.adcPj(milli / 1000.0); });

        digital_pj = phys.shiftAddPj();
        buffer_word_pj = phys.bufferPjPerWord();
    }
};

RefSimResult
estimateFromProfile(const RefSimConfig& config, const Layer& layer,
                    const dist::OperandProfile& profile)
{
    CIM_SPAN("refsim.estimate_statistical");
    static obs::Counter& c_estimates =
        obs::counter("refsim.statistical.estimates");
    c_estimates.add();
    config.faults.validate();
    LayerShape shape(config, layer);
    ActionCounts counts(shape, config.accumulateAcrossInputBits);
    StatEnergies e(config, shape, profile);

    RefSimResult res;
    res.dacPj = counts.dac * e.dac_pj;
    res.cellPj = counts.cells * e.cell_pj;
    res.adcPj = counts.adc * e.adc_pj;
    res.digitalPj = counts.digital * e.digital_pj;
    res.bufferPj =
        (counts.buffer_reads + counts.buffer_writes) * e.buffer_word_pj /
        8.0;
    res.ops = counts.cells;
    res.valuesSimulated = 0;
    return res;
}

} // namespace

RefSimResult
estimateStatistical(const RefSimConfig& config, const Layer& layer,
                    const dist::OperandProfile& profile)
{
    return estimateFromProfile(config, layer, profile);
}

RefSimResult
estimateFixedEnergy(const RefSimConfig& config, const Layer& layer,
                    const dist::OperandProfile& network_avg)
{
    return estimateFromProfile(config, layer, network_avg);
}

dist::OperandProfile
averageProfiles(const std::vector<dist::OperandProfile>& profiles)
{
    CIM_ASSERT(!profiles.empty(), "averageProfiles needs profiles");
    std::vector<Pmf> ins, wts, outs;
    ins.reserve(profiles.size());
    wts.reserve(profiles.size());
    outs.reserve(profiles.size());
    for (const dist::OperandProfile& p : profiles) {
        ins.push_back(p.inputs);
        wts.push_back(p.weights);
        outs.push_back(p.outputs);
    }
    dist::OperandProfile avg;
    avg.inputs = Pmf::mixture(ins);
    avg.weights = Pmf::mixture(wts);
    avg.outputs = Pmf::mixture(outs);
    avg.inputSparsity = avg.inputs.probOf(0.0);
    return avg;
}

} // namespace cimloop::refsim
