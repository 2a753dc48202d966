// Exact decomposition of binary floating point values into
// sign / unbiased exponent / p-bit integer mantissa, and recomposition.
//
// This is the front end of every quantiser in the library: it models the
// "FP16 with an 11-bit mantissa and implicit leading one" input the paper's
// hardware consumes (Section III.A), while remaining exact for any p <= 53.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>

namespace bbal {

/// A value decomposed as (-1)^negative * (mantissa / 2^(p-1)) * 2^exponent.
/// For non-zero values `mantissa` lies in [2^(p-1), 2^p): the implicit
/// leading one is bit p-1. Zero is represented with `zero == true`.
struct FloatParts {
  bool negative = false;
  int exponent = 0;
  std::uint64_t mantissa = 0;
  bool zero = true;
};

/// Decompose `x` with a `precision_bits`-wide mantissa (round-to-nearest-even).
/// precision_bits must be in [2, 53]. NaN/Inf are not accepted (asserted).
[[nodiscard]] FloatParts decompose(double x, int precision_bits);

/// Exact inverse of decompose (up to the rounding performed there).
[[nodiscard]] double compose(const FloatParts& parts, int precision_bits);

/// Unbiased exponent of |x| (position of the leading one), or `zero_exponent`
/// for x == 0. Equivalent to decompose(x, p).exponent for any p when no
/// mantissa rounding carry occurs; cheap helper for exponent statistics.
[[nodiscard]] int exponent_of(double x, int zero_exponent = -127);

/// x * 2^e, rounded exactly as std::ldexp rounds it: one multiply by the
/// power of two when 2^e is a normal double (both round once), std::ldexp
/// itself otherwise. The block decoders' hot path.
[[nodiscard]] inline double scale_by_pow2(double x, int e) {
  if (e < -1022 || e > 1023) return std::ldexp(x, e);
  const std::uint64_t bits = static_cast<std::uint64_t>(e + 1023) << 52;
  double pow2 = 0.0;
  std::memcpy(&pow2, &bits, sizeof pow2);
  return x * pow2;
}

/// FP16 (IEEE binary16) emulation: round `x` to the nearest representable
/// half-precision value (round-to-nearest-even, gradual underflow,
/// saturating at +-65504 rather than producing infinities).
[[nodiscard]] double to_fp16(double x);

/// Number of mantissa bits (incl. implicit one) of FP16: the paper's p = 11.
inline constexpr int kFp16MantissaBits = 11;

/// FP16 exponent range for normal numbers.
inline constexpr int kFp16MinExponent = -14;
inline constexpr int kFp16MaxExponent = 15;

}  // namespace bbal
