#include "common/float_parts.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"

namespace bbal {
namespace {

// Reference decomposition through frexp/ldexp: the library's definition
// before decompose/compose read the IEEE-754 fields directly.
FloatParts reference_decompose(double x, int precision_bits) {
  FloatParts parts;
  parts.negative = std::signbit(x);
  if (x == 0.0) return parts;
  parts.zero = false;
  int e2 = 0;
  const double frac = std::frexp(std::fabs(x), &e2);  // frac in [0.5, 1)
  // Scale so the integer part is the p-bit mantissa; round to nearest even.
  const double scaled = std::ldexp(frac, precision_bits);
  auto mant = static_cast<std::uint64_t>(scaled);
  const double rem = scaled - static_cast<double>(mant);
  if (rem > 0.5 || (rem == 0.5 && (mant & 1u) != 0)) ++mant;
  int exponent = e2 - 1;  // value = (mant / 2^(p-1)) * 2^(e2-1)
  if (mant == (std::uint64_t{1} << precision_bits)) {
    mant >>= 1;  // rounding carry: 1.111..1 -> 10.00..0
    ++exponent;
  }
  parts.mantissa = mant;
  parts.exponent = exponent;
  return parts;
}

double reference_compose(const FloatParts& parts, int precision_bits) {
  if (parts.zero) return parts.negative ? -0.0 : 0.0;
  const double mag = std::ldexp(static_cast<double>(parts.mantissa),
                                parts.exponent - (precision_bits - 1));
  return parts.negative ? -mag : mag;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// decompose and compose equal the references at every p in [2, 53].
void expect_matches_reference(double x) {
  for (int p = 2; p <= 53; ++p) {
    const FloatParts got = decompose(x, p);
    const FloatParts want = reference_decompose(x, p);
    ASSERT_EQ(got.zero, want.zero) << x << " p=" << p;
    ASSERT_EQ(got.negative, want.negative) << x << " p=" << p;
    ASSERT_EQ(got.exponent, want.exponent) << x << " p=" << p;
    ASSERT_EQ(got.mantissa, want.mantissa) << x << " p=" << p;
    ASSERT_EQ(bits(compose(got, p)), bits(reference_compose(want, p)))
        << x << " p=" << p;
  }
}

std::vector<double> signed_pair(double x) { return {x, -x}; }

TEST(FloatPartsReference, RandomFiniteBitPatterns) {
  Rng rng(2024);
  int checked = 0;
  while (checked < 20000) {
    const auto pattern = static_cast<std::uint64_t>(
        rng.uniform_int(std::numeric_limits<std::int64_t>::min(),
                        std::numeric_limits<std::int64_t>::max()));
    const double x = std::bit_cast<double>(pattern);
    if (!std::isfinite(x)) continue;
    expect_matches_reference(x);
    ++checked;
  }
}

TEST(FloatPartsReference, ZerosSubnormalsAndPowersOfTwo) {
  std::vector<double> xs = {0.0, -0.0, std::numeric_limits<double>::max(),
                            std::numeric_limits<double>::min(),
                            std::numeric_limits<double>::denorm_min()};
  for (int e = -1074; e <= 1023; ++e) xs.push_back(std::ldexp(1.0, e));
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    // Random subnormal fractions, and the largest subnormal.
    const auto fraction = static_cast<std::uint64_t>(
        rng.uniform_int(1, (std::int64_t{1} << 52) - 1));
    xs.push_back(std::bit_cast<double>(fraction));
  }
  xs.push_back(std::bit_cast<double>((std::uint64_t{1} << 52) - 1));
  for (const double x : xs)
    for (const double v : signed_pair(x)) expect_matches_reference(v);
}

TEST(FloatPartsReference, RoundToNearestEvenTiesAndCarryOut) {
  EXPECT_EQ(decompose(0x1.ffep0, 11).exponent, 1);  // carries out at p = 11
  EXPECT_EQ(decompose(0x1.ffep0, 11).mantissa, 1024u);
  Rng rng(6);
  for (int p = 2; p <= 52; ++p) {
    for (int i = 0; i < 200; ++i) {
      // A (p+1)-bit odd significand: exactly halfway between two p-bit
      // mantissas, so the even neighbour wins.
      const auto mant = static_cast<std::uint64_t>(
          rng.uniform_int(std::int64_t{1} << (p - 1),
                          (std::int64_t{1} << p) - 1));
      const int e = static_cast<int>(rng.uniform_int(-1070, 1022 - p));
      const double tie = std::ldexp(static_cast<double>(2 * mant + 1), e);
      for (const double v : signed_pair(tie)) expect_matches_reference(v);
    }
    // All ones above a tie bit: rounds up and carries into the exponent,
    // in the normal and in the subnormal range.
    const double top = static_cast<double>((std::uint64_t{1} << (p + 1)) - 1);
    for (const int e : {-1074, -1060, -p, 0, 1023 - p})
      for (const double v : signed_pair(std::ldexp(top, e)))
        expect_matches_reference(v);
  }
}

TEST(FloatPartsReference, ComposeRoundsIntoSubnormalsAndOverflows) {
  // Parts that decompose never returns for its own input: mantissas placed
  // below 2^-1074's reach (compose must round, as ldexp does) and above
  // the largest double (infinity).
  Rng rng(8);
  for (int p = 2; p <= 53; ++p) {
    for (int i = 0; i < 300; ++i) {
      FloatParts parts;
      parts.zero = false;
      parts.negative = rng.uniform() < 0.5;
      parts.mantissa = static_cast<std::uint64_t>(
          rng.uniform_int(std::int64_t{1} << (p - 1),
                          (std::int64_t{1} << p) - 1));
      std::int64_t exponent = rng.uniform_int(1020, 1026);
      if (i % 2 == 0) exponent = rng.uniform_int(-1140, -1020);
      parts.exponent = static_cast<int>(exponent);
      ASSERT_EQ(bits(compose(parts, p)), bits(reference_compose(parts, p)))
          << "p=" << p << " e=" << parts.exponent << " m=" << parts.mantissa;
    }
  }
}

TEST(FloatPartsReference, ExponentOfAndScaleByPow2MatchLibm) {
  Rng rng(9);
  for (int i = 0; i < 20000; ++i) {
    const auto pattern = static_cast<std::uint64_t>(
        rng.uniform_int(std::numeric_limits<std::int64_t>::min(),
                        std::numeric_limits<std::int64_t>::max()));
    const double x = std::bit_cast<double>(pattern);
    if (!std::isfinite(x)) continue;
    int e2 = 0;
    (void)std::frexp(x, &e2);
    ASSERT_EQ(exponent_of(x), x == 0.0 ? -127 : e2 - 1) << x;
    // Any scale: the result may be normal, subnormal (rounded), zero or
    // infinite.
    const int e = static_cast<int>(rng.uniform_int(-2200, 2200));
    ASSERT_EQ(bits(scale_by_pow2(x, e)), bits(std::ldexp(x, e)))
        << x << " * 2^" << e;
    // Integer mantissas, as the block decoders scale them.
    const auto mant = static_cast<double>(rng.uniform_int(0, 1 << 24));
    const int f = static_cast<int>(rng.uniform_int(-1100, 1030));
    ASSERT_EQ(bits(scale_by_pow2(mant, f)), bits(std::ldexp(mant, f)))
        << mant << " * 2^" << f;
  }
}

TEST(FloatParts, DecomposeOne) {
  const FloatParts p = decompose(1.0, 11);
  EXPECT_FALSE(p.zero);
  EXPECT_FALSE(p.negative);
  EXPECT_EQ(p.exponent, 0);
  EXPECT_EQ(p.mantissa, 1024u);  // 2^10: leading one only
}

TEST(FloatParts, DecomposeNegativePowerOfTwo) {
  const FloatParts p = decompose(-0.25, 11);
  EXPECT_TRUE(p.negative);
  EXPECT_EQ(p.exponent, -2);
  EXPECT_EQ(p.mantissa, 1024u);
}

TEST(FloatParts, DecomposeMixedFraction) {
  // 1.5 = 1.1b -> mantissa 0b110...0
  const FloatParts p = decompose(1.5, 11);
  EXPECT_EQ(p.exponent, 0);
  EXPECT_EQ(p.mantissa, 1536u);
}

TEST(FloatParts, DecomposeZero) {
  const FloatParts p = decompose(0.0, 11);
  EXPECT_TRUE(p.zero);
  EXPECT_EQ(compose(p, 11), 0.0);
}

TEST(FloatParts, RoundingCarryPromotesExponent) {
  // 1.99999 at 4 mantissa bits rounds up to 2.0 (mantissa wraps, exp + 1).
  const FloatParts p = decompose(1.99999, 4);
  EXPECT_EQ(p.exponent, 1);
  EXPECT_EQ(p.mantissa, 8u);  // 2^(4-1)
  EXPECT_DOUBLE_EQ(compose(p, 4), 2.0);
}

TEST(FloatParts, RoundTripExactForRepresentable) {
  Rng rng(42);
  for (int i = 0; i < 2000; ++i) {
    // Build values exactly representable at 11 bits.
    const auto mant = static_cast<std::uint64_t>(rng.uniform_int(1024, 2047));
    const int exp = static_cast<int>(rng.uniform_int(-14, 15));
    const double x = std::ldexp(static_cast<double>(mant), exp - 10) *
                     (rng.uniform() < 0.5 ? -1.0 : 1.0);
    const FloatParts p = decompose(x, 11);
    EXPECT_DOUBLE_EQ(compose(p, 11), x);
  }
}

TEST(FloatParts, RoundTripErrorBounded) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.gaussian(0.0, 10.0);
    if (x == 0.0) continue;
    const FloatParts p = decompose(x, 11);
    const double back = compose(p, 11);
    // Half-ULP bound at 11 bits.
    const double ulp = std::ldexp(1.0, p.exponent - 10);
    EXPECT_LE(std::fabs(back - x), ulp / 2.0 + 1e-300);
  }
}

TEST(FloatParts, ExponentOf) {
  EXPECT_EQ(exponent_of(1.0), 0);
  EXPECT_EQ(exponent_of(1.99), 0);
  EXPECT_EQ(exponent_of(2.0), 1);
  EXPECT_EQ(exponent_of(0.5), -1);
  EXPECT_EQ(exponent_of(-8.0), 3);
  EXPECT_EQ(exponent_of(0.0, -99), -99);
}

TEST(FloatParts, Fp16ExactValuesPreserved) {
  EXPECT_DOUBLE_EQ(to_fp16(1.0), 1.0);
  EXPECT_DOUBLE_EQ(to_fp16(-2.5), -2.5);
  EXPECT_DOUBLE_EQ(to_fp16(65504.0), 65504.0);
  EXPECT_DOUBLE_EQ(to_fp16(0.0), 0.0);
}

TEST(FloatParts, Fp16RoundsAtElevenBits) {
  // 1 + 2^-11 is exactly between 1.0 and 1 + 2^-10: RNE keeps 1.0.
  EXPECT_DOUBLE_EQ(to_fp16(1.0 + std::ldexp(1.0, -11)), 1.0);
  // Slightly above the tie rounds up.
  EXPECT_DOUBLE_EQ(to_fp16(1.0 + std::ldexp(1.2, -11)),
                   1.0 + std::ldexp(1.0, -10));
}

TEST(FloatParts, Fp16SaturatesAtMax) {
  EXPECT_DOUBLE_EQ(to_fp16(1e6), 65504.0);
  EXPECT_DOUBLE_EQ(to_fp16(-1e6), -65504.0);
}

TEST(FloatParts, Fp16SubnormalQuantum) {
  const double q = std::ldexp(1.0, -24);
  EXPECT_DOUBLE_EQ(to_fp16(q * 3.0), q * 3.0);
  EXPECT_DOUBLE_EQ(to_fp16(q * 2.4), q * 2.0);
  EXPECT_DOUBLE_EQ(to_fp16(q / 3.0), 0.0);
}

class DecomposePrecisionTest : public ::testing::TestWithParam<int> {};

TEST_P(DecomposePrecisionTest, MantissaAlwaysNormalised) {
  const int p = GetParam();
  Rng rng(1000 + static_cast<std::uint64_t>(p));
  for (int i = 0; i < 500; ++i) {
    const double x = rng.heavy_tailed(1.0, 0.05, 20.0);
    if (x == 0.0) continue;
    const FloatParts parts = decompose(x, p);
    EXPECT_GE(parts.mantissa, std::uint64_t{1} << (p - 1));
    EXPECT_LT(parts.mantissa, std::uint64_t{1} << p);
    const double rel_err = std::fabs(compose(parts, p) - x) / std::fabs(x);
    EXPECT_LE(rel_err, std::ldexp(1.0, -p));  // within one part in 2^p
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrecisions, DecomposePrecisionTest,
                         ::testing::Values(3, 4, 6, 8, 10, 11, 16, 24, 53));

}  // namespace
}  // namespace bbal
