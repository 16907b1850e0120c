#include "cimloop/dist/encoding.hh"

#include <cmath>

#include "cimloop/common/error.hh"
#include "cimloop/common/util.hh"

namespace cimloop::dist {

Encoding
encodingFromString(const std::string& name)
{
    std::string n = toLower(name);
    if (n == "unsigned")
        return Encoding::Unsigned;
    if (n == "twos_complement" || n == "twos-complement" || n == "2c")
        return Encoding::TwosComplement;
    if (n == "offset")
        return Encoding::Offset;
    if (n == "differential")
        return Encoding::Differential;
    if (n == "xnor")
        return Encoding::Xnor;
    if (n == "magnitude" || n == "magnitude_only" || n == "magnitude-only")
        return Encoding::MagnitudeOnly;
    CIM_FATAL("unknown encoding '", name, "'");
}

const char*
encodingName(Encoding e)
{
    switch (e) {
      case Encoding::Unsigned: return "unsigned";
      case Encoding::TwosComplement: return "twos_complement";
      case Encoding::Offset: return "offset";
      case Encoding::Differential: return "differential";
      case Encoding::Xnor: return "xnor";
      case Encoding::MagnitudeOnly: return "magnitude_only";
    }
    return "?";
}

double
EncodedTensor::maxCode() const
{
    return static_cast<double>((std::int64_t{1} << bits) - 1);
}

double
EncodedTensor::meanNormValue() const
{
    double mc = maxCode();
    return mc > 0.0 ? codes.mean() / mc : 0.0;
}

double
EncodedTensor::meanNormSquare() const
{
    double mc = maxCode();
    return mc > 0.0 ? codes.meanSquare() / (mc * mc) : 0.0;
}

std::vector<double>
EncodedTensor::bitOnProbs() const
{
    std::vector<double> probs(bits, 0.0);
    for (const Pmf::Point& pt : codes.points()) {
        auto code = static_cast<std::uint64_t>(pt.value);
        for (int i = 0; i < bits; ++i) {
            if ((code >> i) & 1u)
                probs[i] += pt.prob;
        }
    }
    return probs;
}

double
EncodedTensor::meanBitFlips() const
{
    double flips = 0.0;
    for (double p : bitOnProbs())
        flips += 2.0 * p * (1.0 - p);
    return flips;
}

std::vector<EncodedTensor>
EncodedTensor::slices(int slice_bits) const
{
    CIM_ASSERT(slice_bits >= 1, "slice width must be >= 1");
    std::vector<EncodedTensor> out;
    for (int lo = 0; lo < bits; lo += slice_bits) {
        int width = std::min(slice_bits, bits - lo);
        std::uint64_t mask = (std::uint64_t{1} << width) - 1;
        EncodedTensor slice;
        slice.encoding = encoding;
        slice.bits = width;
        slice.planes = planes;
        slice.bipolarBits = bipolarBits;
        slice.codes = codes.mapped([lo, mask](double v) {
            auto code = static_cast<std::uint64_t>(v);
            return static_cast<double>((code >> lo) & mask);
        });
        out.push_back(std::move(slice));
    }
    return out;
}

EncodedTensor
sliceMixture(const EncodedTensor& full, int slice_bits)
{
    std::vector<EncodedTensor> slices = full.slices(slice_bits);
    CIM_ASSERT(!slices.empty(), "slicing produced no slices");
    EncodedTensor mix = slices.front();
    if (slices.size() > 1) {
        std::vector<Pmf> parts;
        parts.reserve(slices.size());
        for (EncodedTensor& s : slices)
            parts.push_back(std::move(s.codes));
        mix.codes = Pmf::mixture(parts);
        // Mixture spans the widest slice.
        for (const EncodedTensor& s : slices)
            mix.bits = std::max(mix.bits, s.bits);
    }
    return mix;
}

EncodedTensor
encodeOperands(const Pmf& operands, Encoding e, int operand_bits)
{
    CIM_ASSERT(operand_bits >= 1 && operand_bits <= 32,
               "operand bits out of range: ", operand_bits);
    if (operands.empty())
        CIM_FATAL("cannot encode an empty operand PMF");

    const std::int64_t full = (std::int64_t{1} << operand_bits) - 1;
    const std::int64_t half = std::int64_t{1} << (operand_bits - 1);
    const bool has_negative = operands.minValue() < 0.0;

    EncodedTensor enc;
    enc.encoding = e;
    enc.planes = 1;
    enc.bipolarBits = false;

    auto clampCode = [](double v, std::int64_t hi) {
        auto c = static_cast<std::int64_t>(std::llround(v));
        if (c < 0)
            c = 0;
        if (c > hi)
            c = hi;
        return static_cast<double>(c);
    };

    switch (e) {
      case Encoding::Unsigned: {
        if (has_negative) {
            CIM_FATAL("unsigned encoding cannot represent negative "
                      "operands (min ", operands.minValue(), ")");
        }
        enc.bits = operand_bits;
        enc.codes =
            operands.mapped([&](double v) { return clampCode(v, full); });
        break;
      }
      case Encoding::TwosComplement: {
        enc.bits = operand_bits;
        enc.codes = operands.mapped([&](double v) {
            auto x = static_cast<std::int64_t>(std::llround(v));
            if (x < -half)
                x = -half;
            if (x > half - 1)
                x = half - 1;
            std::int64_t code = x < 0 ? x + (std::int64_t{1} << operand_bits)
                                      : x;
            return static_cast<double>(code);
        });
        break;
      }
      case Encoding::Offset: {
        enc.bits = operand_bits;
        enc.codes = operands.mapped([&](double v) {
            return clampCode(v + static_cast<double>(half), full);
        });
        break;
      }
      case Encoding::Differential: {
        // Positive and negative parts are stored on paired devices; each
        // device plane carries (operand_bits - 1) magnitude bits. The code
        // PMF is the 50/50 mixture of the two plane distributions (each
        // physical device sees one plane).
        enc.bits = std::max(1, operand_bits - 1);
        enc.planes = 2;
        std::int64_t hi = (std::int64_t{1} << enc.bits) - 1;
        Pmf pos = operands.mapped(
            [&](double v) { return clampCode(std::max(v, 0.0), hi); });
        Pmf neg = operands.mapped(
            [&](double v) { return clampCode(std::max(-v, 0.0), hi); });
        enc.codes = pos.mixedWith(neg, 0.5);
        break;
      }
      case Encoding::Xnor: {
        // XNOR nets drive each bit as a +/-1 level; the code itself is the
        // two's complement pattern, with bipolar bit semantics.
        enc.bits = operand_bits;
        enc.bipolarBits = true;
        enc.codes = operands.mapped([&](double v) {
            auto x = static_cast<std::int64_t>(std::llround(v));
            if (x < -half)
                x = -half;
            if (x > half - 1)
                x = half - 1;
            std::int64_t code = x < 0 ? x + (std::int64_t{1} << operand_bits)
                                      : x;
            return static_cast<double>(code);
        });
        break;
      }
      case Encoding::MagnitudeOnly: {
        enc.bits = has_negative ? std::max(1, operand_bits - 1)
                                : operand_bits;
        std::int64_t hi = (std::int64_t{1} << enc.bits) - 1;
        enc.codes = operands.mapped(
            [&](double v) { return clampCode(std::abs(v), hi); });
        break;
      }
    }
    return enc;
}

double
meanNormMac(const EncodedTensor& input, const EncodedTensor& weight)
{
    return input.meanNormValue() * weight.meanNormValue();
}

} // namespace cimloop::dist
