#include "common/float_parts.hpp"

#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>

#include "common/bitutils.hpp"

namespace bbal {
namespace {

// IEEE-754 binary64 field layout. Normal exponents span [-1022, 1023];
// subnormals count in units of 2^-1074.
constexpr int kFractionBits = 52;
constexpr int kExponentBias = 1023;
constexpr int kMinNormalExponent = 1 - kExponentBias;
constexpr int kMaxNormalExponent = kExponentBias;
constexpr int kSubnormalQuantumExponent = -1074;
constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;
constexpr std::uint64_t kFractionMask = low_mask(kFractionBits);
constexpr std::uint64_t kImplicitOne = std::uint64_t{1} << kFractionBits;
constexpr std::uint64_t kInfinityBits = std::uint64_t{0x7ff} << kFractionBits;

std::uint64_t bits_of(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

double double_of(std::uint64_t bits) {
  double x = 0.0;
  std::memcpy(&x, &bits, sizeof x);
  return x;
}

/// |x| != 0 as a 53-bit significand with its leading one at bit 52, and
/// the unbiased exponent of that leading one. Subnormals are normalised
/// by their leading one, as frexp does.
struct Significand {
  std::uint64_t bits = 0;
  int exponent = 0;
};

Significand significand_of(std::uint64_t bits) {
  const int biased = static_cast<int>((bits >> kFractionBits) & 0x7ff);
  const std::uint64_t fraction = bits & kFractionMask;
  if (biased != 0) return {fraction | kImplicitOne, biased - kExponentBias};
  const int lead = std::bit_width(fraction) - 1;
  return {fraction << (kFractionBits - lead), kSubnormalQuantumExponent + lead};
}

}  // namespace

FloatParts decompose(double x, int precision_bits) {
  assert(precision_bits >= 2 && precision_bits <= 53);
  assert(std::isfinite(x));
  const std::uint64_t bits = bits_of(x);
  FloatParts parts;
  parts.negative = (bits & kSignBit) != 0;
  if ((bits & ~kSignBit) == 0) return parts;  // +-0
  parts.zero = false;

  // Round the 53-bit significand to p bits, nearest-even; a carry out of
  // the top (1.11..1 -> 10.00..0) renormalises into the exponent.
  const Significand sig = significand_of(bits);
  std::uint64_t mant = shr_rne(sig.bits, 53 - precision_bits);
  int exponent = sig.exponent;
  if (mant == (std::uint64_t{1} << precision_bits)) {
    mant >>= 1;
    ++exponent;
  }
  assert(mant >= (std::uint64_t{1} << (precision_bits - 1)));
  assert(mant < (std::uint64_t{1} << precision_bits));
  parts.mantissa = mant;
  parts.exponent = exponent;
  return parts;
}

double compose(const FloatParts& parts, int precision_bits) {
  assert(precision_bits >= 2 && precision_bits <= 53);
  if (parts.zero) return parts.negative ? -0.0 : 0.0;
  const std::uint64_t mant = parts.mantissa;
  assert(mant != 0 && mant < kImplicitOne << 1);
  // value = mant * 2^scale; its leading one sits at 2^(scale + lead).
  const int scale = parts.exponent - (precision_bits - 1);
  const int lead = std::bit_width(mant) - 1;
  const int top = scale + lead;
  std::uint64_t bits = 0;
  if (top > kMaxNormalExponent) {
    bits = kInfinityBits;  // ldexp overflows to infinity
  } else if (top >= kMinNormalExponent) {
    const auto biased = static_cast<std::uint64_t>(top + kExponentBias);
    bits = (biased << kFractionBits) |
           ((mant << (kFractionBits - lead)) & kFractionMask);
  } else {
    // Subnormal: count in units of 2^-1074, rounding off the bits below
    // (a carry into 2^52 is the smallest normal, as the encoding wants).
    const int shift = scale - kSubnormalQuantumExponent;
    bits = shift >= 0 ? mant << shift : shr_rne(mant, -shift);
  }
  return double_of(parts.negative ? bits | kSignBit : bits);
}

int exponent_of(double x, int zero_exponent) {
  const std::uint64_t bits = bits_of(x) & ~kSignBit;
  if (bits == 0) return zero_exponent;
  return significand_of(bits).exponent;
}

double to_fp16(double x) {
  assert(std::isfinite(x));
  if (x == 0.0) return x;
  const double kMax = 65504.0;
  if (x > kMax) return kMax;
  if (x < -kMax) return -kMax;

  const FloatParts parts = decompose(x, kFp16MantissaBits);
  if (parts.exponent >= kFp16MinExponent)
    return compose(parts, kFp16MantissaBits);

  // Subnormal range: quantum is fixed at 2^-24.
  const double q = std::ldexp(1.0, -24);
  const double n = std::nearbyint(x / q);  // assumes default RNE mode
  return n * q;
}

}  // namespace bbal
