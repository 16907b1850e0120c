/**
 * @file
 * Device fault and variation injection (NeuroSim / MICSim-style
 * non-idealities).
 *
 * Real CiM macros suffer device non-idealities the ideal energy model
 * ignores: cells stuck at G_on / G_off, lot-to-lot conductance variation,
 * and ADC offset / thermal noise. This module provides one FaultModel
 * specification consumed by BOTH evaluation paths:
 *
 *  - The value-level reference simulator perturbs every cell of its
 *    precomputed conductance array using counter-derived
 *    Rng::forStream(fault_seed, cell_index) streams, so the injected
 *    fault pattern is bit-identical for any thread count.
 *  - The statistical pipeline applies the same model analytically as a
 *    PMF perturbation: a mixture with stuck-at atoms plus a
 *    mean-preserving variance inflation of the conductance levels, so
 *    truth-vs-model comparison still works under faults.
 *
 * Conductance variation is mean-preserving lognormal: a surviving cell's
 * level g becomes g * exp(sigma * Z - sigma^2 / 2), which keeps E[g]
 * unchanged and multiplies E[g^2] by exp(sigma^2). No clamping is applied
 * at the value level (a strong device simply conducts above nominal
 * G_on), which is what keeps the analytic second moment exact.
 */
#ifndef CIMLOOP_FAULTS_FAULTS_HH
#define CIMLOOP_FAULTS_FAULTS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cimloop/dist/pmf.hh"

namespace cimloop::yaml {
class Node;
} // namespace cimloop::yaml

namespace cimloop::faults {

/** Device fault / variation specification for one evaluation. */
struct FaultModel
{
    /** P(cell stuck at G_off), i.e. reads as level 0. In [0, 1]. */
    double stuckOffRate = 0.0;

    /** P(cell stuck at G_on), i.e. reads as the full level. In [0, 1]. */
    double stuckOnRate = 0.0;

    /**
     * Lognormal sigma of the mean-preserving conductance variation on
     * surviving cells. In [0, 0.8] (beyond that the two-point analytic
     * inflation would need negative levels).
     */
    double conductanceSigma = 0.0;

    /** Additive ADC input offset as a fraction of full scale, [-1, 1]. */
    double adcOffset = 0.0;

    /** Gaussian ADC input noise sigma as a fraction of full scale, >= 0. */
    double adcNoiseSigma = 0.0;

    /** Seed of the injected fault pattern (independent of data seeds). */
    std::uint64_t seed = 1;

    /** True when any fault or variation mechanism is active. */
    bool enabled() const;

    /** True when cell-level mechanisms (stuck-at, variation) are active. */
    bool cellFaultsEnabled() const;

    /** True when ADC offset or noise is active. */
    bool adcFaultsEnabled() const;

    /** Fraction of cells that are neither stuck on nor stuck off. */
    double survivorRate() const { return 1.0 - stuckOffRate - stuckOnRate; }

    /** E[g'^2] / E[g^2] of the variation alone: exp(sigma^2). */
    double varianceFactor() const;

    /**
     * Range-checks every field; CIM_FATAL naming the offending YAML key
     * (faults.stuck_off_rate, faults.conductance_sigma, ...) on failure.
     */
    void validate() const;

    /**
     * Parses a fault spec from YAML. Accepts either the bare mapping or a
     * document with a top-level `faults:` key:
     *
     *   faults:
     *     stuck_off_rate: 0.01     # all keys optional
     *     stuck_on_rate: 0.002
     *     conductance_sigma: 0.15
     *     adc_offset: 0.02
     *     adc_noise_sigma: 0.01
     *     seed: 7
     *
     * Fatal on unknown keys, non-numeric values, negative seeds, or
     * out-of-range rates (via validate()).
     */
    static FaultModel fromYaml(const yaml::Node& node);

    /** Loads a fault spec from a YAML file; fatal when unreadable. */
    static FaultModel fromFile(const std::string& path);
};

/**
 * Deterministic per-layer fault seed: mixes the model's seed with the
 * layer identity so every layer receives an independent fault pattern
 * while staying reproducible run to run.
 */
std::uint64_t layerFaultSeed(const FaultModel& model,
                             const std::string& layer_name, int layer_index);

/**
 * Perturbs a flat array of normalized conductance levels in place. Cell i
 * draws from its own counter-derived stream Rng::forStream(fault_seed, i),
 * so the injected pattern depends only on (model, fault_seed, i) — never
 * on iteration order or thread scheduling. No-op when no cell-level
 * mechanism is active.
 */
void perturbConductances(const FaultModel& model, std::uint64_t fault_seed,
                         std::vector<double>& g_norm);

/** Per-mechanism cell counts of one or more perturbations. */
struct CellFaultTally
{
    std::uint64_t total = 0;
    std::uint64_t stuckOff = 0;
    std::uint64_t stuckOn = 0;
    std::uint64_t varied = 0;
};

/**
 * Range form: perturbs g[0..n) as the cells first .. first + n - 1 of a
 * flat conductance array, each exactly as the whole-array form perturbs
 * that cell, and adds what it did to @p tally. Touches no counter, so a
 * caller that perturbs the same cells more than once (refsim rebuilds
 * each row tile per vector block) reports them once through
 * countCellFaults(). No-op when no cell-level mechanism is active.
 */
void perturbConductances(const FaultModel& model, std::uint64_t fault_seed,
                         std::uint64_t first, double* g, std::size_t n,
                         CellFaultTally& tally);

/** Adds @p tally to the faults.cells.* counters. */
void countCellFaults(const CellFaultTally& tally);

/**
 * Analytic counterpart of perturbConductances for the statistical
 * pipeline: mixture of stuck-at atoms (level 0 with stuckOffRate,
 * @p max_level with stuckOnRate) and the survivor mass under a
 * mean-preserving two-point variance inflation whose first and second
 * moments exactly match the lognormal variation. Support points are NOT
 * clamped or quantized — use perturbedCellCodes() when downstream
 * consumers need integer codes.
 */
dist::Pmf perturbedCellLevels(const FaultModel& model,
                              const dist::Pmf& levels, double max_level);

/**
 * Integer-lattice variant of perturbedCellLevels for component plug-ins
 * that interpret values as binary codes (bitOnProbs etc.): inflated
 * points are rounded and clamped into [0, max_code].
 */
dist::Pmf perturbedCellCodes(const FaultModel& model, const dist::Pmf& codes,
                             double max_code);

/**
 * ADC readout perturbation on an integer code PMF: shifts every code by
 * adcOffset * max_code and spreads it by a two-point +/- adcNoiseSigma *
 * max_code kick, rounded and clamped into [0, max_code].
 */
dist::Pmf perturbedAdcCodes(const FaultModel& model, const dist::Pmf& codes,
                            double max_code);

} // namespace cimloop::faults

#endif // CIMLOOP_FAULTS_FAULTS_HH
