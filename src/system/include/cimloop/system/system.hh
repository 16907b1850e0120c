/**
 * @file
 * Full CiM systems: DRAM + global buffer + NoC routers + parallel macros
 * (paper Sec. V-B4, Fig. 15, and the Fig. 2 macro-vs-system studies).
 *
 * Three weight/activation placement scenarios from the paper:
 *  - OffChip: inputs, outputs, AND weights fetched from DRAM per layer.
 *  - WeightStationary: weights pre-loaded into the macros; only
 *    inputs/outputs move to/from DRAM (once per layer).
 *  - Fused: weights stationary AND inputs/outputs kept on-chip in the
 *    global buffer between layers (layer-fusion style).
 */
#ifndef CIMLOOP_SYSTEM_SYSTEM_HH
#define CIMLOOP_SYSTEM_SYSTEM_HH

#include "cimloop/engine/evaluate.hh"
#include "cimloop/macros/macros.hh"

namespace cimloop::system {

/** Where tensors live between layers. */
enum class WeightPolicy { OffChip, WeightStationary, Fused };

/** Name of a policy (for reports). */
const char* policyName(WeightPolicy p);

/** Full-system configuration. */
struct SystemParams
{
    /** Which macro populates the chip ("base", "A".."D", "digital"). */
    std::string macroKind = "D";

    /** Macro parameters (Table III defaults for the kind when unset). */
    macros::MacroParams macro = macros::macroDDefaults();

    /** Parallel macros on the chip. */
    std::int64_t numMacros = 16;

    /**
     * Chips in a multi-chip pipeline (paper Sec. V-B4: storing large
     * DNNs "may require a multi-chip pipeline"). Chips multiply the
     * weight capacity; tensors crossing chip boundaries pay the
     * inter-chip link cost.
     */
    std::int64_t numChips = 1;

    /** Inter-chip link transfer cost (SerDes-class, per bit). */
    double interChipEnergyPerBitPj = 1.5;

    /** Global buffer capacity in KB. */
    std::int64_t globalBufferKb = 65536;

    /** DRAM transfer cost. */
    double dramEnergyPerBitPj = 6.0;

    WeightPolicy policy = WeightPolicy::WeightStationary;
};

/** Builds the full-system Arch. */
engine::Arch buildSystem(const SystemParams& params);

/** Energy grouped the way paper Fig. 15 reports it. */
struct SystemBreakdown
{
    double offChipPj = 0.0;   //!< off-chip components (DRAM)
    double globalBufferPj = 0.0;
    double onChipMovePj = 0.0; //!< interconnect + macro-local buffers
    double macroComputePj = 0.0; //!< DACs, cells, ADCs, digital

    double totalPj() const
    {
        return offChipPj + globalBufferPj + onChipMovePj + macroComputePj;
    }
};

/**
 * Groups a layer evaluation's per-node energies into the Fig. 15 bins by
 * each node's models::ComponentTraits::role. The `global_buffer` node
 * (buildSystem) and a macro's local `buffer` (macros::appendMacro) are
 * binned by name.
 */
SystemBreakdown groupBreakdown(const engine::Arch& arch,
                               const engine::Evaluation& ev);

} // namespace cimloop::system

#endif // CIMLOOP_SYSTEM_SYSTEM_HH
