/**
 * @file
 * Value-level reference simulator and baseline energy models.
 *
 * The paper validates CiMLoop's statistical model against NeuroSim, which
 * "calculates every data value propagated by every modeled component"
 * (Sec. IV). NeuroSim is unavailable here, so this module provides a
 * from-scratch equivalent (see DESIGN.md): it synthesizes *correlated*
 * operand tensors (per-activation contrast, per-filter scale — the joint
 * structure real DNN tensors have), then walks every DAC convert, cell
 * read, column sum, ADC convert, and digital accumulation of the base CiM
 * macro, summing exact per-value energies.
 *
 * Three estimators price every event with the component plug-ins'
 * physics (cimloop/models/physics.hh: the same default constants and
 * per-event forms the ADC, DAC, ReRAMCell, ShiftAdd and SRAM plug-ins
 * use), so they disagree only through their treatment of data values:
 *  - simulateValueLevel(): exact, slow — the ground truth (paper's
 *    "NeuroSim" column in Fig. 6 / Table II).
 *  - estimateStatistical(): CiMLoop's model — expectation over *per-layer
 *    marginal PMFs recorded from the same tensors*, treating tensors as
 *    independent (paper Sec. III-D1). Error relative to ground truth
 *    comes from the independence assumption on nonlinear components.
 *  - estimateFixedEnergy(): Timeloop-style non-data-value-dependent
 *    baseline using one network-average distribution for all layers.
 */
#ifndef CIMLOOP_REFSIM_REFSIM_HH
#define CIMLOOP_REFSIM_REFSIM_HH

#include <cstdint>

#include "cimloop/common/cancel.hh"
#include "cimloop/dist/operands.hh"
#include "cimloop/faults/faults.hh"
#include "cimloop/workload/layer.hh"

namespace cimloop::refsim {

/** Base-macro configuration simulated at value level. */
struct RefSimConfig
{
    std::int64_t rows = 128;
    std::int64_t cols = 128;

    int inputBits = 8;
    int weightBits = 8;
    int dacBits = 1;   //!< input slice width
    int cellBits = 1;  //!< weight bits per cell
    int adcBits = 5;   //!< value-aware SAR: small codes convert cheaper

    double technologyNm = 40.0;

    /**
     * Macro-C-style analog accumulation (paper Fig. 3): column partial
     * sums integrate across the input-bit cycles and the ADC converts
     * each output once, instead of once per cycle. DAC and cell activity
     * still scale with the number of input slices.
     */
    bool accumulateAcrossInputBits = false;

    /**
     * Strength of the joint structure in the synthesized tensors: the
     * log-std of the shared per-activation contrast factor. 0 makes
     * operand values independent (the statistical model's assumption is
     * then exact); larger values grow the independence-assumption error
     * (DESIGN.md ablation 1, bench/ablation_independence).
     */
    double contrastStd = 0.5;

    std::uint64_t seed = 1;

    /** Activation vectors simulated per layer (the rest is scaled up);
     *  0 simulates every vector. */
    std::int64_t maxVectors = 48;

    /**
     * Worker threads for the per-vector simulation loop. Every sampled
     * vector draws from its own counter-derived RNG stream and the
     * reduction runs in a fixed order, so results are bit-identical for
     * any value here.
     */
    int threads = 1;

    /**
     * Device fault / variation injection (default: none). The value-level
     * simulator perturbs each conductance as its row tile is built, with
     * counter-derived Rng::forStream(fault_seed, cell_index) streams, and
     * its ADC readouts per convert, so injection is bit-identical at any
     * thread count; estimateStatistical() applies the same model
     * analytically (stuck-at mixture atoms, variance-inflated conductance
     * levels, offset/noise-adjusted column-sum Gaussian).
     */
    faults::FaultModel faults;

    /**
     * Cooperative cancellation. Workers poll between simulated vectors;
     * a fired token abandons the whole layer with CancelledError — the
     * simulation is all-or-nothing, a result from fewer vectors would
     * not match an uninterrupted run's. Default-constructed tokens are
     * never cancelled, so existing callers are unaffected.
     */
    CancelToken cancel;
};

/** Energy totals (pJ, whole layer) with a per-component breakdown. */
struct RefSimResult
{
    double dacPj = 0.0;
    double cellPj = 0.0;
    double adcPj = 0.0;
    double digitalPj = 0.0;
    double bufferPj = 0.0;

    double ops = 0.0;              //!< unit cell operations accounted
    std::int64_t valuesSimulated = 0; //!< per-value events processed

    double totalPj() const
    {
        return dacPj + cellPj + adcPj + digitalPj + bufferPj;
    }
};

/**
 * Exact value-level simulation. When @p out_profile is non-null it
 * receives the *empirical marginal PMFs* of the simulated tensors — what
 * the paper's "RecordOperandPMFs" step produces — for use by
 * estimateStatistical().
 *
 * Weights are held as 16-bit offset codes, so inputBits and weightBits
 * must lie in [1, 16]. With 1-bit DAC slices, 1-bit cells and no cell
 * faults (the defaults), every level is 0.0 or 1.0: the walk runs on
 * packed bit planes and each column sum is a popcount. Those sums are
 * integers, exact in any association, so that walk returns the same
 * doubles as the floating-point walk the other configurations take.
 */
RefSimResult simulateValueLevel(const RefSimConfig& config,
                                const workload::Layer& layer,
                                dist::OperandProfile* out_profile = nullptr);

/** CiMLoop-style statistical estimate from independent marginal PMFs. */
RefSimResult estimateStatistical(const RefSimConfig& config,
                                 const workload::Layer& layer,
                                 const dist::OperandProfile& profile);

/** Fixed-energy baseline: per-action energies frozen at the
 *  network-average operand distribution @p network_avg. */
RefSimResult estimateFixedEnergy(const RefSimConfig& config,
                                 const workload::Layer& layer,
                                 const dist::OperandProfile& network_avg);

/**
 * Averages several per-layer profiles into the network-average profile
 * the fixed-energy baseline uses (paper Fig. 6: "energy ... calculated
 * using data values averaged over all layers").
 */
dist::OperandProfile averageProfiles(
    const std::vector<dist::OperandProfile>& profiles);

} // namespace cimloop::refsim

#endif // CIMLOOP_REFSIM_REFSIM_HH
