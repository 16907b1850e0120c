#include "cimloop/dist/operands.hh"

#include <cmath>

#include "cimloop/common/error.hh"
#include "cimloop/common/util.hh"

namespace cimloop::dist {

std::uint64_t
stableHash(const std::string& s)
{
    const std::uint64_t h = fnv1a64(s);
    return h ? h : 1;
}

OperandProfile
synthesizeOperands(const std::string& network, int layer_index,
                   int num_layers, int input_bits, int weight_bits)
{
    CIM_ASSERT(layer_index >= 0 && layer_index < std::max(num_layers, 1),
               "layer index ", layer_index, " out of range for ",
               num_layers, " layers");
    CIM_ASSERT(input_bits >= 1 && input_bits <= 16,
               "input bits out of supported range: ", input_bits);
    CIM_ASSERT(weight_bits >= 1 && weight_bits <= 16,
               "weight bits out of supported range: ", weight_bits);

    // Deterministic per-layer parameter draws. Three draws decorrelate the
    // activation scale, weight scale, and sparsity across layers, mimicking
    // the layer-to-layer variation the paper's Fig. 4/6 rely on.
    Rng rng(stableHash(network) ^
            (0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(
                                         layer_index + 1)));
    double u_act = rng.uniform();
    double u_wt = rng.uniform();
    double u_sp = rng.uniform();

    const std::int64_t in_half = std::int64_t{1} << (input_bits - 1);
    const std::int64_t wt_half = std::int64_t{1} << (weight_bits - 1);

    OperandProfile prof;

    // Binary operands (binarized networks): Bernoulli activations and
    // sign weights; the Gaussian machinery below would degenerate.
    if (input_bits == 1 || weight_bits == 1) {
        if (input_bits == 1) {
            double p_on = 0.35 + 0.30 * u_act;
            prof.inputs = Pmf::delta(0.0).mixedWith(Pmf::delta(1.0),
                                                    1.0 - p_on);
        } else if (layer_index == 0) {
            prof.inputs = Pmf::quantizedGaussian(
                0.0, 0.25 * static_cast<double>(in_half), -in_half,
                in_half - 1);
        } else {
            prof.inputs = Pmf::delta(0.0).mixedWith(
                Pmf::reluGaussian(0.0,
                                  (0.1 + 0.3 * u_act) *
                                      static_cast<double>(in_half),
                                  in_half - 1),
                0.25 + 0.40 * u_sp);
        }
        prof.inputSparsity = prof.inputs.probOf(0.0);
        if (weight_bits == 1) {
            // Two's-complement 1b: code 1 carries the -1 level (XNOR).
            double p_neg = 0.45 + 0.10 * u_wt;
            prof.weights = Pmf::delta(-1.0).mixedWith(Pmf::delta(0.0),
                                                      p_neg);
        } else {
            prof.weights = Pmf::quantizedGaussian(
                0.0, (0.05 + 0.18 * u_wt) * static_cast<double>(wt_half),
                -wt_half, wt_half - 1);
        }
        prof.outputs = (in_half > 1)
            ? Pmf::quantizedGaussian(0.0,
                                     0.25 * static_cast<double>(in_half),
                                     -in_half, in_half - 1)
            : Pmf::delta(0.0).mixedWith(Pmf::delta(-1.0), 0.5);
        return prof;
    }

    if (layer_index == 0) {
        // First layer: image-like, roughly symmetric around a small offset.
        double sigma = (0.18 + 0.12 * u_act) * static_cast<double>(in_half);
        double mean = 0.05 * static_cast<double>(in_half) * (u_sp - 0.5);
        prof.inputs = Pmf::quantizedGaussian(mean, sigma, -in_half,
                                             in_half - 1);
    } else {
        // Post-ReLU half-normal whose scale shrinks/grows with depth. Extra
        // mass at exactly zero models activation sparsity (30-70% typical).
        double depth = num_layers > 1
            ? static_cast<double>(layer_index) /
                  static_cast<double>(num_layers - 1)
            : 0.0;
        double sigma = (0.06 + 0.30 * u_act * (1.0 - 0.5 * depth)) *
                       static_cast<double>(in_half);
        Pmf relu = Pmf::reluGaussian(0.0, sigma, in_half - 1);
        double extra_zero = 0.25 + 0.40 * u_sp;
        prof.inputs = Pmf::delta(0.0).mixedWith(relu, extra_zero);
    }
    prof.inputSparsity = prof.inputs.probOf(0.0);

    // Weights: zero-mean Gaussian, layer-varying spread (trained nets have
    // narrow late layers and wider early ones; we just vary determinately).
    double wt_sigma = (0.05 + 0.18 * u_wt) * static_cast<double>(wt_half);
    prof.weights =
        Pmf::quantizedGaussian(0.0, wt_sigma, -wt_half, wt_half - 1);

    // Outputs: accumulation of many products widens the distribution; the
    // post-quantization output is roughly Gaussian at the input precision.
    double out_sigma =
        std::min(0.45, 0.10 + 2.5 * (prof.inputs.meanAbs() /
                                     static_cast<double>(in_half)) *
                            (prof.weights.meanAbs() /
                             static_cast<double>(wt_half))) *
        static_cast<double>(in_half);
    prof.outputs = Pmf::quantizedGaussian(0.0, std::max(out_sigma, 1.0),
                                          -in_half, in_half - 1);
    return prof;
}

} // namespace cimloop::dist
