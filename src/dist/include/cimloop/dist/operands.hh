/**
 * @file
 * Synthetic per-layer DNN operand distributions.
 *
 * The paper profiles real DNN runs (ImageNet / Wikipedia inputs) to obtain a
 * PMF per tensor per layer (Sec. III-D1). Those traces are unavailable here,
 * so this module generates *deterministic, layer-varying* operand PMFs with
 * the statistical structure published DNN profiles show: post-ReLU
 * half-normal activations whose scale and sparsity vary layer to layer,
 * zero-mean Gaussian weights with layer-dependent variance, and
 * accumulation-widened outputs. The modeling pipeline only ever consumes the
 * PMFs, so every downstream code path is exercised identically (see
 * DESIGN.md, substitution table).
 */
#ifndef CIMLOOP_DIST_OPERANDS_HH
#define CIMLOOP_DIST_OPERANDS_HH

#include <cstdint>
#include <string>

#include "cimloop/dist/pmf.hh"

namespace cimloop::dist {

/** Per-layer operand value distributions (signed integer domain). */
struct OperandProfile
{
    Pmf inputs;         //!< activation values at input precision
    Pmf weights;        //!< weight values at weight precision
    Pmf outputs;        //!< output values at output precision
    double inputSparsity = 0.0; //!< P(input == 0), informational
};

/**
 * Deterministically synthesizes operand PMFs for layer @p layer_index of
 * @p num_layers in network @p network. The same arguments always give the
 * same profile. Layer 0 of image networks is treated as a signed
 * (image-like) input; later layers are post-ReLU non-negative.
 *
 * @param network      network name; seeds the per-layer variation
 * @param layer_index  0-based layer position
 * @param num_layers   total layers in the network
 * @param input_bits   activation precision in bits (signed domain)
 * @param weight_bits  weight precision in bits (signed domain)
 */
OperandProfile synthesizeOperands(const std::string& network,
                                  int layer_index, int num_layers,
                                  int input_bits, int weight_bits);

/** fnv1a64 of a string (1 in place of 0), used to seed deterministic
 *  per-layer draws. */
std::uint64_t stableHash(const std::string& s);

} // namespace cimloop::dist

#endif // CIMLOOP_DIST_OPERANDS_HH
