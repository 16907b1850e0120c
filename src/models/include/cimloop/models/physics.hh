/**
 * @file
 * Component physics shared by the plug-ins (plugins.cc) and the
 * value-level reference (src/refsim): the plug-ins' default attributes
 * and the per-event energy forms, before node and supply scaling.
 */
#ifndef CIMLOOP_MODELS_PHYSICS_HH
#define CIMLOOP_MODELS_PHYSICS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace cimloop::models::physics {

/** `DAC`: a convert costs unit * level + base * bits. */
inline constexpr struct DacDefaults
{
    double unitCapEnergyFj = 3.0;    //!< `unit_cap_energy_fj`
    double baseEnergyFjPerBit = 1.5; //!< `base_energy_fj_per_bit`
} kDac{};

/** `ReRAMCell`: a read costs G * V^2 * T. */
inline constexpr struct ReramCellDefaults
{
    double gOnUs = 100.0;  //!< `g_on_us`
    double gOffUs = 2.0;   //!< `g_off_us`
    double vRead = 0.3;    //!< `v_read`
    double tReadNs = 10.0; //!< `t_read_ns`
} kReramCell{};

/** `ADC`: see adcConvertFj(). */
inline constexpr struct AdcDefaults
{
    double fomFjPerStep = 25.0; //!< `fom_fj_per_step`
    double thermalFj = 0.05;    //!< `fom_thermal_fj`
} kAdc{};

/** `ShiftAdd`: energy per bit of width. */
inline constexpr struct ShiftAddDefaults
{
    std::int64_t width = 16;     //!< `width`
    double energyPerBitFj = 4.0; //!< `energy_per_bit_fj`
} kShiftAdd{};

/** One ADC convert at @p bits (fJ at 65 nm): a Walden term (~2^bits)
 *  plus a thermal-noise term (~4^bits) that dominates at high
 *  resolution, the reason ADC cost stops amortizing as arrays grow. */
inline double
adcConvertFj(int bits, double fom_fj = kAdc.fomFjPerStep,
             double thermal_fj = kAdc.thermalFj)
{
    return fom_fj * std::pow(2.0, bits) + thermal_fj * std::pow(4.0, bits);
}

/** Value-aware SAR: the share of a full convert spent on a readout at
 *  normalized @p level. Small codes stop early and the resolved bits
 *  grow concavely, so the spread of the values matters, not only their
 *  mean. */
inline double
sarValueFactor(double level)
{
    return 0.3 + 0.7 * std::min(1.0, std::sqrt(2.0 * std::abs(level)));
}

/** CACTI-lite SRAM access of one @p width-bit word in a @p bits-bit
 *  array (pJ at 65 nm): line length grows with sqrt(capacity). */
inline double
sramWordPj(double bits, std::int64_t width)
{
    return 0.012 * std::sqrt(bits) + 0.003 * static_cast<double>(width);
}

} // namespace cimloop::models::physics

#endif // CIMLOOP_MODELS_PHYSICS_HH
