#include "cimloop/refsim/refsim.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <vector>

#include "cimloop/common/error.hh"
#include "cimloop/common/parallel.hh"
#include "cimloop/common/util.hh"
#include "cimloop/dist/encoding.hh"
#include "cimloop/dist/reduce.hh"
#include "cimloop/faults/faults.hh"
#include "cimloop/models/physics.hh"
#include "cimloop/models/tech.hh"
#include "cimloop/obs/obs.hh"

namespace cimloop::refsim {

namespace physics = models::physics;
using dist::EncodedTensor;
using dist::Pmf;
using workload::Dim;
using workload::Layer;

namespace {

/**
 * The per-event prices of one config, hoisted out of the walk (pow()
 * would otherwise run on every DAC/ADC convert). Every constant and
 * form comes from models::physics, the plug-ins' own, at refsim's
 * operating point: nominal supply, the plug-ins' default attributes, a
 * 16-bit shift-add and an 8K x 64b buffer.
 */
struct Prices
{
    double e65;          //!< tech energy scale relative to 65 nm
    int dacBits;
    double dacLevels;    //!< 2^dacBits - 1
    double adcConvertPj; //!< one full-scale ADC convert
    double shiftAddPj;   //!< one shift-add per ADC output
    double bufferWordPj; //!< one 64-bit buffer word

    explicit Prices(const RefSimConfig& c)
        : e65(models::energyScale(65.0, c.technologyNm)),
          dacBits(c.dacBits),
          dacLevels(std::pow(2.0, c.dacBits) - 1.0),
          adcConvertPj(physics::adcConvertFj(c.adcBits) / 1000.0 * e65),
          shiftAddPj(physics::kShiftAdd.energyPerBitFj *
                     static_cast<double>(physics::kShiftAdd.width) /
                     1000.0 * e65),
          bufferWordPj(physics::sramWordPj(8192.0 * 64.0, 64) * e65)
    {}

    /** DAC convert of a normalized slice level in [0, 1]. */
    double
    dacPj(double x_norm) const
    {
        return (physics::kDac.unitCapEnergyFj * x_norm * dacLevels +
                physics::kDac.baseEnergyFjPerBit * dacBits) /
               1000.0 * e65;
    }

    /** One ADC convert of a normalized column sum. */
    double
    adcPj(double sum_norm) const
    {
        return adcConvertPj * physics::sarValueFactor(sum_norm);
    }
};

/** ReRAM cell energy of one input slice over a row tile: its x^2 row
 *  sum @p sum_x2 and its sum of x^2 * g_norm, @p dot_e (exact). */
double
cellTilePj(double sum_x2, double dot_e)
{
    const physics::ReramCellDefaults& cell = physics::kReramCell;
    return (cell.gOffUs * sum_x2 + (cell.gOnUs - cell.gOffUs) * dot_e) *
           (cell.vRead * cell.vRead) * cell.tReadNs / 1000.0;
}

/** Matrix view of a layer: reduction, outputs, activation vectors. */
struct LayerShape
{
    std::int64_t c_total; //!< C * R * S
    std::int64_t k_total; //!< K
    std::int64_t vectors; //!< N * P * Q
    std::int64_t ib;      //!< input slices
    std::int64_t wb;      //!< weight slices
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
        tiles_c = ceilDiv(c_total, cfg.rows);
        // A column tile holds cols / WB outputs.
        tiles_k = ceilDiv(k_total, std::max<std::int64_t>(1, cfg.cols / wb));
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
    std::int64_t max_code = (std::int64_t{1} << width) - 1;
    std::int64_t v = (code >> lo) & max_code;
    return max_code > 0 ? static_cast<double>(v) /
                              static_cast<double>(max_code)
                        : 0.0;
}

/** Offset-encodes a signed operand to an unsigned code at @p bits. */
std::int64_t
offsetCode(double v, int bits)
{
    const std::int64_t half = std::int64_t{1} << (bits - 1);
    return std::clamp<std::int64_t>(
        static_cast<std::int64_t>(std::llround(v)) + half, 0, 2 * half - 1);
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

/**
 * Sampled vectors walked over each row tile per pass. A block's slice
 * buffers bound the walk's memory whatever maxVectors is, and each tile
 * build is shared by up to this many vectors. Not a tuning knob: the
 * output does not depend on it.
 */
constexpr std::int64_t kBlockVectors = 32;

/** Array rows per packed word of a bit plane. */
constexpr std::int64_t kPlaneRows = 64;

/**
 * Packs bit b of codes[0..n) into planes[b * words + r / 64], bit r % 64,
 * for every plane b in [0, nplanes): plane b holds slice b of 1-bit
 * cells (or 1-bit DAC levels) of those rows. Branch-free: one multiply
 * gathers bit b of four 16-bit codes into a nibble.
 */
void
packPlanes(const std::uint16_t* codes, std::size_t n, std::size_t nplanes,
           std::size_t words, std::uint64_t* planes)
{
    static_assert(std::endian::native == std::endian::little,
                  "packPlanes reads four codes as one word");
    constexpr std::uint64_t kLaneBit = 0x0001000100010001ull;
    // Moves bit 16i of a word to bit 60 + i, i = 0..3, without carries.
    constexpr std::uint64_t kGather =
        (1ull << 60) | (1ull << 45) | (1ull << 30) | (1ull << 15);
    std::fill(planes, planes + nplanes * words, 0);
    std::size_t r = 0;
    for (; r + 4 <= n; r += 4) {
        std::uint64_t quad;
        std::memcpy(&quad, codes + r, sizeof quad);
        std::uint64_t* word = planes + r / kPlaneRows;
        const auto at = static_cast<unsigned>(r % kPlaneRows);
        for (std::size_t b = 0; b < nplanes; ++b)
            word[b * words] |=
                ((((quad >> b) & kLaneBit) * kGather) >> 60) << at;
    }
    for (; r < n; ++r) {
        std::uint64_t* word = planes + r / kPlaneRows;
        const auto at = static_cast<unsigned>(r % kPlaneRows);
        for (std::size_t b = 0; b < nplanes; ++b)
            word[b * words] |= std::uint64_t{(codes[r] >> b) & 1u} << at;
    }
}

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

/**
 * A sampled vector in flight across the row tiles of its block: its RNG
 * stream (the ADC noise draws continue it after the input draws), its
 * slice levels and per-tile scratch. Reused by the next block.
 */
struct VectorWalk
{
    Rng rng;
    std::vector<double> x;      //!< input values
    std::vector<std::uint16_t> xc; //!< their offset codes
    std::vector<double> xn;     //!< slice levels, slice-major
    std::vector<double> xn2;    //!< their squares (dacBits > 1 only)
    // Levels path, per tile:
    std::vector<double> sumX2;  //!< per-slice x^2 sums
    std::vector<double> dotS;   //!< per-slice sum x*g (ADC input)
    std::vector<double> dotE;   //!< per-slice sum x^2*g (cells)
    // Bit-plane path, per tile:
    std::vector<std::uint64_t> xPlanes; //!< [ib * words + r / 64]
    std::vector<std::uint32_t> counts;  //!< per-slice popcount(x & g)
    std::vector<double> cellPj; //!< [ib * (len + 1) + count]
};

/** A row tile: array rows [c0, c1) of every conductance row. */
struct Tile
{
    std::int64_t c0, c1;

    std::int64_t len() const { return c1 - c0; }

    /** Packed words per bit-plane row. */
    std::int64_t words() const { return ceilDiv(len(), kPlaneRows); }
};

/**
 * The row tile the block shares: conductance levels,
 * g[(k * wb + w) * len + (c - c0)], or on the bit-plane path the packed
 * cell bits, planes[(k * wb + w) * words + (c - c0) / 64].
 */
struct TileBuffer
{
    std::vector<double> g;
    std::vector<std::uint64_t> planes;
    /** Bit-plane path, fault-free per-cycle converts: adcPj per count. */
    std::vector<double> adcPj;
};

/**
 * The value-level walk of one layer. Vectors run in blocks; for each row
 * tile the block shares one TileBuffer, and every vector walks it in
 * (k, wb, ib) order. Per vector, that is the same sequence of sums and
 * RNG draws as walking the whole layer vector by vector, so the result
 * does not depend on the tiling, the block size or the threads.
 */
struct LayerWalk
{
    const RefSimConfig& config;
    const Prices& prices;
    const LayerShape& shape;
    const GenParams& gen;
    const std::vector<std::uint16_t>& codes; //!< [k * c_total + c]
    std::uint64_t layerSeed;
    std::uint64_t faultSeed;
    bool record;
    /** 1-bit DAC slices drive exact 0.0 / 1.0 levels, so x^2 == x
     *  element for element and the energy dot product equals the signal
     *  dot product (same doubles, same order): skip the second dot. */
    bool unitLevels;
    /** 1-bit slices on 1-bit cells without cell faults: every level and
     *  conductance is exactly 0.0 or 1.0, so tiles hold packed bit planes
     *  and every dot product is an integer popcount. */
    bool bitPlanes;
    std::vector<double> levels;    //!< levels path: [code * wb + w]
    std::vector<double> bitWeight; //!< Macro-C cycle weights

    LayerWalk(const RefSimConfig& c, const Prices& p, const LayerShape& s,
              const GenParams& g, const std::vector<std::uint16_t>& w,
              std::uint64_t layer_seed, std::uint64_t fault_seed, bool rec)
        : config(c), prices(p), shape(s), gen(g), codes(w),
          layerSeed(layer_seed), faultSeed(fault_seed), record(rec),
          unitLevels(c.dacBits == 1),
          bitPlanes(c.dacBits == 1 && c.cellBits == 1 &&
                    !c.faults.cellFaultsEnabled())
    {
        const std::int64_t n_codes =
            bitPlanes ? 0 : std::int64_t{1} << c.weightBits;
        levels.resize(n_codes * s.wb);
        for (std::int64_t code = 0; code < n_codes; ++code) {
            for (std::int64_t wb = 0; wb < s.wb; ++wb) {
                levels[code * s.wb + wb] = sliceNorm(
                    code, static_cast<int>(wb), c.cellBits, c.weightBits);
            }
        }
        bitWeight.resize(s.ib);
        for (std::int64_t ib = 0; ib < s.ib; ++ib)
            bitWeight[ib] = std::pow(2.0, -(s.ib - 1 - ib));
    }

    /** Draws vector @p v's inputs from its own stream into @p w, records
     *  its histogram and output samples into @p part. The per-vector
     *  stream makes the draw independent of which thread runs it. */
    void prepare(std::int64_t v, VectorWalk& w, VectorPartial& part) const;

    /** Fills output @p k's wb conductance rows over @p tile's rows into
     *  @p t and injects their cell faults (counted into @p tally). */
    void build(const Tile& tile, std::int64_t k, TileBuffer& t,
               faults::CellFaultTally& tally) const;

    /** Walks @p w over the conductance rows of @p tile. */
    void walk(const Tile& tile, const TileBuffer& t, VectorWalk& w,
              VectorPartial& part) const;
};

void
LayerWalk::prepare(std::int64_t v, VectorWalk& w, VectorPartial& part) const
{
    const std::int64_t in_half = std::int64_t{1} << (config.inputBits - 1);
    const std::int64_t wt_half = std::int64_t{1} << (config.weightBits - 1);
    w.rng = Rng::forStream(layerSeed, static_cast<std::uint64_t>(v));
    w.x.resize(shape.c_total);
    w.xc.resize(shape.c_total);
    w.xn.resize(shape.ib * shape.c_total);
    w.xn2.resize(unitLevels ? 0 : shape.ib * shape.c_total);
    w.sumX2.resize(shape.ib);
    w.dotS.resize(shape.ib);
    w.dotE.resize(shape.ib);
    w.counts.resize(shape.ib);

    // Correlated activations: a shared per-vector contrast factor.
    double contrast = std::exp(config.contrastStd * w.rng.gaussian());
    for (std::int64_t c = 0; c < shape.c_total; ++c) {
        double val;
        if (gen.signedInputs) {
            val = contrast * gen.inSigma *
                  static_cast<double>(in_half) * w.rng.gaussian();
        } else {
            if (w.rng.uniform() < gen.zeroProb) {
                val = 0.0;
            } else {
                val = std::abs(contrast * gen.inSigma *
                               static_cast<double>(in_half) *
                               w.rng.gaussian());
            }
        }
        val = std::max(std::min(val, static_cast<double>(in_half - 1)),
                       gen.signedInputs
                           ? static_cast<double>(-in_half)
                           : 0.0);
        w.x[c] = std::round(val);
    }
    if (record) {
        part.inCounts.assign(
            static_cast<std::size_t>(std::int64_t{1} << config.inputBits),
            0);
        for (std::int64_t c = 0; c < shape.c_total; ++c)
            ++part.inCounts[static_cast<std::size_t>(
                static_cast<std::int64_t>(w.x[c]) + in_half)];
    }

    // Slice levels for every input-bit slice of this vector.
    for (std::int64_t c = 0; c < shape.c_total; ++c) {
        std::int64_t code = offsetCode(w.x[c], config.inputBits);
        w.xc[c] = static_cast<std::uint16_t>(code);
        for (std::int64_t ib = 0; ib < shape.ib; ++ib) {
            double level = sliceNorm(code, static_cast<int>(ib),
                                     config.dacBits, config.inputBits);
            w.xn[ib * shape.c_total + c] = level;
            if (!unitLevels)
                w.xn2[ib * shape.c_total + c] = level * level;
        }
    }

    // Output values for the recorded profile.
    if (record && v < 8) {
        for (std::int64_t k = 0;
             k < std::min<std::int64_t>(shape.k_total, 64); ++k) {
            double dot = 0.0;
            for (std::int64_t c = 0; c < shape.c_total; ++c)
                dot += w.x[c] *
                       static_cast<double>(
                           std::int64_t{codes[k * shape.c_total + c]} -
                           wt_half);
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

void
LayerWalk::build(const Tile& tile, std::int64_t k, TileBuffer& t,
                 faults::CellFaultTally& tally) const
{
    const std::int64_t len = tile.len();
    const std::uint16_t* row = &codes[k * shape.c_total + tile.c0];
    if (bitPlanes) {
        // Slice w of a 1-bit cell is bit w of the code.
        const std::int64_t words = tile.words();
        packPlanes(row, static_cast<std::size_t>(len),
                   static_cast<std::size_t>(shape.wb),
                   static_cast<std::size_t>(words),
                   &t.planes[k * shape.wb * words]);
        return;
    }
    double* g = &t.g[k * shape.wb * len];
    for (std::int64_t c = 0; c < len; ++c) {
        for (std::int64_t wb = 0; wb < shape.wb; ++wb)
            g[wb * len + c] = levels[row[c] * shape.wb + wb];
    }
    // Each cell draws from its own counter-derived stream keyed by its
    // flat index (k * wb + w) * c_total + c in the layer's conductance
    // array, so the pattern never depends on the tiling or threads.
    for (std::int64_t wb = 0; wb < shape.wb; ++wb) {
        const std::int64_t first = (k * shape.wb + wb) * shape.c_total;
        faults::perturbConductances(
            config.faults, faultSeed,
            static_cast<std::uint64_t>(first + tile.c0), g + wb * len,
            static_cast<std::size_t>(len), tally);
    }
}

void
LayerWalk::walk(const Tile& tile, const TileBuffer& t, VectorWalk& w,
                VectorPartial& part) const
{
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
                sum_norm += adc_noise * w.rng.gaussian();
            sum_norm += adc_offset;
        }
        return sum_norm;
    };

    const std::int64_t c0 = tile.c0;
    const std::int64_t len = tile.len();
    const auto rows_used = static_cast<double>(len);
    const auto stride = static_cast<std::size_t>(shape.c_total);
    const auto slices = static_cast<std::size_t>(shape.ib);
    const std::vector<double>& xn2 = unitLevels ? w.xn : w.xn2;
    // DAC converts: one per row per input-bit cycle, re-driven for
    // every k-tile — the per-tile sum is identical each time, so
    // compute it once and charge it tiles_k times.
    double dac_tile = 0.0;
    for (std::int64_t ib = 0; ib < shape.ib; ++ib) {
        const double* xs = &w.xn[ib * shape.c_total];
        for (std::int64_t c = c0; c < tile.c1; ++c)
            dac_tile += prices.dacPj(xs[c]);
    }
    part.dacPj += static_cast<double>(shape.tiles_k) * dac_tile;

    // Per-slice x^2 row sums over this tile are independent of (k, wb).
    // On bit planes they are popcounts, and each slice's cell energy is
    // tabulated per count d <= its popcount: the same expression of the
    // same doubles as the levels path evaluates per row.
    const std::int64_t words = tile.words();
    const std::int64_t counts_per_slice = len + 1;
    if (bitPlanes) {
        w.xPlanes.resize(slices * words);
        w.cellPj.resize(slices * counts_per_slice);
        packPlanes(&w.xc[c0], static_cast<std::size_t>(len), slices,
                   static_cast<std::size_t>(words), w.xPlanes.data());
        for (std::int64_t ib = 0; ib < shape.ib; ++ib) {
            const std::uint64_t* xs = &w.xPlanes[ib * words];
            std::uint32_t ones = 0; // popcount(x & x)
            dist::andCountRows(xs, 0, 1, xs, static_cast<std::size_t>(words),
                               &ones);
            const auto sum_x2 = static_cast<double>(ones);
            double* cell = &w.cellPj[ib * counts_per_slice];
            for (std::uint32_t d = 0; d <= ones; ++d)
                cell[d] = cellTilePj(sum_x2, d);
        }
    } else {
        for (std::int64_t ib = 0; ib < shape.ib; ++ib)
            w.sumX2[ib] = dist::sum(&xn2[ib * shape.c_total] + c0,
                                    static_cast<std::size_t>(len));
    }

    // The running sums live in locals for the tile (the same additions in
    // the same order), so the dot kernels' stores cannot force them out
    // to memory and workers never write a shared cache line per row. The
    // loop invariants are hoisted too: the kernels are opaque calls.
    double cell_pj = part.cellPj;
    double adc_pj = part.adcPj;
    double digital_pj = part.digitalPj;
    const bool accumulate = config.accumulateAcrossInputBits;
    const double shift_add_pj = prices.shiftAddPj;
    const std::int64_t g_rows = shape.k_total * shape.wb;
    // The Macro-C accumulator converts once per conductance row.
    auto convertAccumulated = [&](double acc_s) {
        double norm = acc_s / (2.0 * rows_used);
        adc_pj += prices.adcPj(adcReadout(norm));
        digital_pj += shift_add_pj;
    };
    // Conductance rows (k, wb) in order against every input slice of
    // this vector: popcounts on bit planes, otherwise each dot under the
    // fixed association from reduce.hh — the same bytes at any thread
    // count. Per slice, the cell energy (exact over the tile), then the
    // slice's ADC convert or its share of the accumulated one.
    if (bitPlanes) {
        const double* adc_tab = t.adcPj.empty() ? nullptr : t.adcPj.data();
        const double* cell_tab = w.cellPj.data();
        std::uint32_t* counts = w.counts.data();
        for (std::int64_t row = 0; row < g_rows; ++row) {
            dist::andCountRows(w.xPlanes.data(), words, slices,
                               &t.planes[row * words], words, counts);
            double acc_s = 0.0;
            for (std::int64_t ib = 0; ib < shape.ib; ++ib) {
                const std::uint32_t d = counts[ib];
                cell_pj += cell_tab[ib * counts_per_slice + d];
                if (accumulate) {
                    acc_s += d * bitWeight[ib];
                } else {
                    adc_pj += adc_tab
                        ? adc_tab[d]
                        : prices.adcPj(adcReadout(d / rows_used));
                    digital_pj += shift_add_pj;
                }
            }
            if (accumulate)
                convertAccumulated(acc_s);
        }
    } else {
        const std::vector<double>& dot_e = unitLevels ? w.dotS : w.dotE;
        for (std::int64_t row = 0; row < g_rows; ++row) {
            if (unitLevels) {
                dist::dotRows(&w.xn[c0], stride, slices, &t.g[row * len],
                              len, w.dotS.data());
            } else {
                dist::dotPairRows(&w.xn[c0], &xn2[c0], stride, slices,
                                  &t.g[row * len], len, w.dotS.data(),
                                  w.dotE.data());
            }
            double acc_s = 0.0;
            for (std::int64_t ib = 0; ib < shape.ib; ++ib) {
                const double dot_s = w.dotS[ib]; // sum x*g (ADC input)
                cell_pj += cellTilePj(w.sumX2[ib], dot_e[ib]);
                if (accumulate) {
                    acc_s += dot_s * bitWeight[ib];
                } else {
                    adc_pj += prices.adcPj(adcReadout(dot_s / rows_used));
                    digital_pj += shift_add_pj;
                }
            }
            if (accumulate)
                convertAccumulated(acc_s);
        }
    }
    part.cellPj = cell_pj;
    part.adcPj = adc_pj;
    part.digitalPj = digital_pj;
    // Values: every cell read of each slice, plus each ADC convert.
    part.values += g_rows * (shape.ib * len + (accumulate ? 1 : shape.ib));
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
    for (int bits : {config.inputBits, config.weightBits}) {
        if (bits < 1 || bits > 16) {
            CIM_FATAL("refsim input and weight bits must be in [1, 16] "
                      "(codes are 16-bit), got ", bits);
        }
    }
    config.faults.validate();
    const Prices prices(config);
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

    // --- Sample the (correlated) weight matrix once: per-filter scale.
    // Each weight is kept as its offset code (weight + wt_half) and
    // counted into the recorded weight histogram as it is drawn.
    std::vector<std::uint16_t> codes(shape.c_total * shape.k_total);
    std::vector<std::int64_t> code_counts(
        static_cast<std::size_t>(2 * wt_half), 0);
    for (std::int64_t k = 0; k < shape.k_total; ++k) {
        double filter_scale = std::exp(0.3 * rng.gaussian());
        for (std::int64_t c = 0; c < shape.c_total; ++c) {
            double w = filter_scale * gen.wtSigma *
                       static_cast<double>(wt_half) * rng.gaussian();
            w = std::max(std::min(w, static_cast<double>(wt_half - 1)),
                         static_cast<double>(-wt_half));
            const auto code = static_cast<std::uint16_t>(
                static_cast<std::int64_t>(std::round(w)) + wt_half);
            codes[k * shape.c_total + c] = code;
            ++code_counts[code];
        }
    }

    std::int64_t sim_vectors = shape.vectors;
    if (config.maxVectors > 0)
        sim_vectors = std::min(sim_vectors, config.maxVectors);
    double scale = static_cast<double>(shape.vectors) /
                   static_cast<double>(sim_vectors);

    // Device faults perturb the conductances per cell as each tile is
    // built: the pattern depends only on (fault model, layer identity,
    // flat cell index). The recorded operand profile keeps the IDEAL
    // weights: the statistical model receives clean marginals and applies
    // the same fault model analytically, which is exactly the
    // truth-vs-model comparison the fault tests assert.
    const bool record = out_profile != nullptr;
    const LayerWalk lw(
        config, prices, shape, gen, codes, layer_seed,
        faults::layerFaultSeed(config.faults, layer.name, layer.index),
        record);

    // One reused row tile: `rows` array rows of every conductance row.
    const std::int64_t tile_rows = std::min(config.rows, shape.c_total);
    TileBuffer tile_buf;
    if (lw.bitPlanes) {
        tile_buf.planes.resize(shape.k_total * shape.wb *
                               ceilDiv(tile_rows, kPlaneRows));
    } else {
        tile_buf.g.resize(shape.k_total * shape.wb * tile_rows);
    }
    const bool adc_table = lw.bitPlanes &&
                           !config.faults.adcFaultsEnabled() &&
                           !config.accumulateAcrossInputBits;

    // Blocks of sampled vectors; each vector draws from its own
    // counter-derived stream (Rng::forStream(layer_seed, v)), so the
    // sampled values do not depend on thread scheduling. Workers poll the
    // token between vectors and tile rows; a fired token throws
    // CancelledError out of the parallelFor join, abandoning the layer
    // whole — no partial reduction ever escapes.
    std::vector<VectorPartial> partials(sim_vectors);
    std::vector<VectorWalk> block(
        std::min<std::int64_t>(sim_vectors, kBlockVectors));
    for (std::int64_t b0 = 0; b0 < sim_vectors; b0 += kBlockVectors) {
        const auto nb = static_cast<std::size_t>(
            std::min<std::int64_t>(kBlockVectors, sim_vectors - b0));
        parallelFor(config.threads, nb,
                    [&](std::size_t i) {
                        const auto v = b0 + static_cast<std::int64_t>(i);
                        lw.prepare(v, block[i], partials[v]);
                    },
                    &config.cancel);
        for (std::int64_t c0 = 0; c0 < shape.c_total; c0 += config.rows) {
            const Tile tile{c0, std::min(c0 + config.rows, shape.c_total)};
            // Rows build in parallel; the fault counters count each cell
            // once, in the first block.
            parallelFor(
                config.threads, static_cast<std::size_t>(shape.k_total),
                [&](std::size_t k) {
                    faults::CellFaultTally tally;
                    lw.build(tile, static_cast<std::int64_t>(k), tile_buf,
                             tally);
                    if (b0 == 0 && config.faults.cellFaultsEnabled())
                        faults::countCellFaults(tally);
                },
                &config.cancel);
            // Fault-free converts of a d-row count read out d / len.
            if (adc_table) {
                const auto rows_used = static_cast<double>(tile.len());
                tile_buf.adcPj.resize(tile.len() + 1);
                for (std::int64_t d = 0; d <= tile.len(); ++d)
                    tile_buf.adcPj[d] =
                        prices.adcPj(static_cast<double>(d) / rows_used);
            }
            parallelFor(config.threads, nb,
                        [&](std::size_t i) {
                            lw.walk(tile, tile_buf, block[i],
                                    partials[b0 + i]);
                        },
                        &config.cancel);
        }
    }

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
                   prices.bufferWordPj / 8.0;
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
        out_profile->weights = Pmf::fromCounts(-wt_half, code_counts);
        out_profile->outputs = out_hist.empty()
            ? Pmf::delta(0.0)
            : Pmf::fromPoints(std::move(out_hist));
        out_profile->inputSparsity = out_profile->inputs.probOf(0.0);
    }
    return res;
}

RefSimResult
estimateStatistical(const RefSimConfig& config, const Layer& layer,
                    const dist::OperandProfile& profile)
{
    CIM_SPAN("refsim.estimate_statistical");
    static obs::Counter& c_estimates =
        obs::counter("refsim.statistical.estimates");
    c_estimates.add();
    config.faults.validate();
    LayerShape shape(config, layer);
    ActionCounts counts(shape, config.accumulateAcrossInputBits);

    // Per-action energies from the marginal PMFs.
    const Prices prices(config);

    // Inputs: offset-encode, slice, take the slice mixture.
    EncodedTensor in_full = dist::encodeOperands(
        profile.inputs, dist::Encoding::Offset, config.inputBits);
    double exf = in_full.meanNormValue();
    double exf2 = in_full.meanNormSquare();
    std::vector<EncodedTensor> in_slices = in_full.slices(config.dacBits);
    double e_dac = 0.0, ex = 0.0, ex2 = 0.0;
    for (const EncodedTensor& s : in_slices) {
        double mc = s.maxCode();
        e_dac += s.codes.expectation([&](double code) {
            return prices.dacPj(mc > 0 ? code / mc : 0.0);
        });
        ex += s.meanNormValue();
        ex2 += s.meanNormSquare();
    }
    double n_slices = static_cast<double>(in_slices.size());
    double dac_pj = e_dac / n_slices;
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
    std::vector<EncodedTensor> wt_slices = wt_full.slices(config.cellBits);
    double eg = 0.0, eg2 = 0.0;
    for (EncodedTensor& s : wt_slices) {
        if (config.faults.cellFaultsEnabled()) {
            s.codes = faults::perturbedCellLevels(config.faults, s.codes,
                                                  s.maxCode());
        }
        eg += s.meanNormValue();
        eg2 += s.meanNormSquare();
    }
    double n_wslices = static_cast<double>(wt_slices.size());
    eg /= n_wslices;
    eg2 /= n_wslices;

    // Cell: E[(g_off + gd*g) * v^2 * x^2] = independence-exact.
    const physics::ReramCellDefaults& cell = physics::kReramCell;
    double cell_pj =
        (cell.gOffUs * ex2 + (cell.gOnUs - cell.gOffUs) * eg * ex2) *
        (cell.vRead * cell.vRead) * cell.tReadNs / 1000.0;

    // ADC: the column sum of `rows` INDEPENDENT x*g terms (this is
    // the paper's independence approximation; the ground truth has
    // correlated terms). CLT Gaussian for E[f(sum / rows)]. Under
    // Macro-C accumulation the converted value integrates all input
    // bits, so the FULL-precision input moments apply.
    double rows = static_cast<double>(
        std::min<std::int64_t>(config.rows, shape.c_total));
    double mu1 = (config.accumulateAcrossInputBits ? exf : ex) * eg;
    double var1 =
        (config.accumulateAcrossInputBits ? exf2 : ex2) * eg2 - mu1 * mu1;
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
    double adc_pj = sum_pmf.expectation(
        [&](double milli) { return prices.adcPj(milli / 1000.0); });

    RefSimResult res;
    res.dacPj = counts.dac * dac_pj;
    res.cellPj = counts.cells * cell_pj;
    res.adcPj = counts.adc * adc_pj;
    res.digitalPj = counts.digital * prices.shiftAddPj;
    res.bufferPj =
        (counts.buffer_reads + counts.buffer_writes) *
        prices.bufferWordPj / 8.0;
    res.ops = counts.cells;
    return res;
}

RefSimResult
estimateFixedEnergy(const RefSimConfig& config, const Layer& layer,
                    const dist::OperandProfile& network_avg)
{
    return estimateStatistical(config, layer, network_avg);
}

dist::OperandProfile
averageProfiles(const std::vector<dist::OperandProfile>& profiles)
{
    CIM_ASSERT(!profiles.empty(), "averageProfiles needs profiles");
    std::vector<Pmf> ins, wts, outs;
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
