// Tests for BFP / BBFP block encoding semantics (Section III of the paper).
#include "quant/block.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/float_parts.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "quant/error_model.hpp"

namespace bbal::quant {
namespace {

TEST(FormatDescriptor, EquivalentBitsMatchTableOne) {
  EXPECT_NEAR(BlockFormat::bfp(8).equivalent_bits(), 9.16, 0.01);
  EXPECT_NEAR(BlockFormat::bfp(6).equivalent_bits(), 7.16, 0.01);
  EXPECT_NEAR(BlockFormat::bbfp(8, 4).equivalent_bits(), 10.16, 0.01);
  EXPECT_NEAR(BlockFormat::bbfp(6, 3).equivalent_bits(), 8.16, 0.01);
}

TEST(FormatDescriptor, MemoryEfficiencyMatchesTableOne) {
  EXPECT_NEAR(BlockFormat::bfp(8).memory_efficiency(), 1.75, 0.01);
  EXPECT_NEAR(BlockFormat::bfp(6).memory_efficiency(), 2.24, 0.01);
  EXPECT_NEAR(BlockFormat::bbfp(8, 4).memory_efficiency(), 1.58, 0.01);
  EXPECT_NEAR(BlockFormat::bbfp(6, 3).memory_efficiency(), 1.96, 0.01);
}

TEST(FormatDescriptor, Names) {
  EXPECT_EQ(BlockFormat::bfp(4).name(), "BFP4");
  EXPECT_EQ(BlockFormat::bbfp(4, 2).name(), "BBFP(4,2)");
}

TEST(BfpEncode, SharedExponentIsBlockMax) {
  const std::vector<double> xs = {0.5, -3.0, 1.25, 0.0625};
  const EncodedBlock b = encode_block(xs, BlockFormat::bfp(4, 4));
  // max |x| = 3.0 -> exponent 1.
  EXPECT_EQ(b.shared_exponent, 1);
  for (const auto& e : b.elems) EXPECT_FALSE(e.flag);
}

TEST(BfpEncode, MaxElementKeepsFullMantissaPrecision) {
  // The max element of a BFP block is quantised at full m-bit precision.
  const std::vector<double> xs = {1.75, 0.03, -0.2};
  const EncodedBlock b = encode_block(xs, BlockFormat::bfp(4, 4));
  EXPECT_DOUBLE_EQ(b.decode(0), 1.75);  // 1.75 = 14 * 2^-3, exact in 4 bits
}

TEST(BfpEncode, SmallValuesFlushTowardZero) {
  // With max alignment, values far below the max lose all mantissa bits.
  const std::vector<double> xs = {8.0, 0.01};
  const EncodedBlock b = encode_block(xs, BlockFormat::bfp(4, 4));
  EXPECT_DOUBLE_EQ(b.decode(1), 0.0);  // step is 1.0; 0.01 rounds to 0
}

TEST(BfpEncode, RoundingCarryOnMaxElementSaturates) {
  // 1.97 at source precision is M = 2017 (e = 0); the 4-bit window would
  // round to mantissa 16 — hardware sticky-rounds down to 15 instead of
  // wrapping to 0.
  const std::vector<double> xs = {1.97};
  const EncodedBlock b = encode_block(xs, BlockFormat::bfp(4, 4));
  EXPECT_EQ(b.elems[0].mantissa, 15u);
}

TEST(BfpEncode, AllZeroBlock) {
  const std::vector<double> xs = {0.0, 0.0, 0.0};
  const EncodedBlock b = encode_block(xs, BlockFormat::bfp(4, 4));
  EXPECT_EQ(b.shared_exponent, kZeroBlockExponent);
  for (std::size_t i = 0; i < xs.size(); ++i) EXPECT_EQ(b.decode(i), 0.0);
}

TEST(DecodeAll, ZeroBlockDecodesToZeros) {
  // The kZeroBlockExponent path through decode_all: both the span and the
  // allocating overload must produce exact zeros (not denormal garbage).
  const std::vector<double> xs = {0.0, 0.0, 0.0, 0.0};
  const EncodedBlock b = encode_block(xs, BlockFormat::bbfp(4, 2, 4));
  ASSERT_EQ(b.shared_exponent, kZeroBlockExponent);

  std::vector<double> out(xs.size(), 123.0);
  ASSERT_TRUE(b.decode_all(std::span<double>(out)).is_ok());
  for (const double v : out) EXPECT_EQ(v, 0.0);

  for (const double v : b.decode_all()) EXPECT_EQ(v, 0.0);
  EXPECT_EQ(b.flag_count(), 0u);
}

TEST(DecodeAll, RejectsMismatchedSpanWithError) {
  Rng rng(5);
  std::vector<double> xs(8);
  for (auto& x : xs) x = rng.gaussian();
  const EncodedBlock b = encode_block(xs, BlockFormat::bbfp(4, 2, 8));

  std::vector<double> too_small(4);
  const Status small = b.decode_all(std::span<double>(too_small));
  EXPECT_FALSE(small.is_ok());
  EXPECT_NE(small.message().find("span size"), std::string::npos)
      << small.message();

  std::vector<double> too_big(16);
  EXPECT_FALSE(b.decode_all(std::span<double>(too_big)).is_ok());

  std::vector<double> right(8);
  EXPECT_TRUE(b.decode_all(std::span<double>(right)).is_ok());
  for (std::size_t i = 0; i < xs.size(); ++i)
    EXPECT_EQ(right[i], b.decode(i));
}

TEST(BbfpEncode, SharedExponentFollowsEqNine) {
  // BBFP(4,2): E_s = max_e - (m - o) = max_e - 2.
  const std::vector<double> xs = {8.0, 1.0, 0.25, -2.0};  // max_e = 3
  const EncodedBlock b = encode_block(xs, BlockFormat::bbfp(4, 2, 4));
  EXPECT_EQ(b.shared_exponent, 1);
}

TEST(BbfpEncode, FlagMarksElementsAboveSharedExponent) {
  const std::vector<double> xs = {8.0, 4.0, 2.0, 1.0, 0.5};  // e = 3,2,1,0,-1
  const EncodedBlock b = encode_block(xs, BlockFormat::bbfp(4, 2, 8));
  ASSERT_EQ(b.shared_exponent, 1);
  EXPECT_TRUE(b.elems[0].flag);   // e=3 > 1
  EXPECT_TRUE(b.elems[1].flag);   // e=2 > 1
  EXPECT_FALSE(b.elems[2].flag);  // e=1 == E_s
  EXPECT_FALSE(b.elems[3].flag);
  EXPECT_FALSE(b.elems[4].flag);
  EXPECT_EQ(b.flag_count(), 2u);
}

TEST(BbfpEncode, PowersOfTwoAcrossWindowDecodeExactly) {
  // All these are exactly representable in either group of BBFP(4,2).
  const std::vector<double> xs = {8.0, 4.0, 2.0, 1.0, 0.5, -8.0, -0.5};
  const EncodedBlock b = encode_block(xs, BlockFormat::bbfp(4, 2, 8));
  for (std::size_t i = 0; i < xs.size(); ++i)
    EXPECT_DOUBLE_EQ(b.decode(i), xs[i]) << "i=" << i;
}

TEST(BbfpEncode, HighGroupStepIsCoarser) {
  const std::vector<double> xs = {8.0};
  const EncodedBlock b = encode_block(xs, BlockFormat::bbfp(4, 2, 1));
  EXPECT_DOUBLE_EQ(b.step_high() / b.step_low(), 4.0);  // 2^(m-o) = 4
}

TEST(BbfpEncode, MantissaRangeExtensionMatchesFigTwo) {
  // Fig. 2(b): BFP4 covers +-1.875 * 2^E_s; BBFP(4,2) covers +-7.5 * 2^E_s.
  // Encode the largest representable magnitudes and check the decode range.
  const BlockFormat bbfp = BlockFormat::bbfp(4, 2, 2);
  // A block whose max has e = E_s + 2: E_s = e_max - 2.
  const std::vector<double> xs = {7.5, 0.875};
  const EncodedBlock b = encode_block(xs, bbfp);
  EXPECT_EQ(b.shared_exponent, 0);  // e_max = 2 (7.5 -> [4,8))
  EXPECT_DOUBLE_EQ(b.decode(0), 7.5);    // high group: 15 * step_low * 4
  EXPECT_DOUBLE_EQ(b.decode(1), 0.875);  // low group: 7 * step_low (1/8)
}

TEST(BbfpEncode, MidValuesKeepMoreBitsThanBfpAtSameWidth) {
  // A moderate value 2^-3 below the max: BFP4 keeps 1 bit, BBFP(4,2)'s low
  // group keeps it at full-resolution step.
  std::vector<double> xs = {8.0, 0.71875};  // 0.71875 = 23 * 2^-5
  const double bfp_err =
      std::fabs(quantise(xs, BlockFormat::bfp(4, 2))[1] - xs[1]);
  const double bbfp_err =
      std::fabs(quantise(xs, BlockFormat::bbfp(4, 2, 2))[1] - xs[1]);
  EXPECT_LT(bbfp_err, bfp_err);
}

TEST(BbfpEncode, MaxStrategyDegeneratesToBfp) {
  // With strategy_delta = m - o the shared exponent equals the block max and
  // no element carries a flag: values must decode identically to BFP.
  Rng rng(11);
  std::vector<double> xs(32);
  for (auto& x : xs) x = rng.heavy_tailed(1.0, 0.1, 16.0);
  const BlockFormat bbfp_max = BlockFormat::bbfp(4, 2).with_delta(2);
  const BlockFormat bfp = BlockFormat::bfp(4);
  const EncodedBlock a = encode_block(xs, bbfp_max);
  const EncodedBlock b = encode_block(xs, bfp);
  EXPECT_EQ(a.shared_exponent, b.shared_exponent);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_FALSE(a.elems[i].flag);
    EXPECT_DOUBLE_EQ(a.decode(i), b.decode(i)) << i;
  }
}

TEST(BbfpEncode, AggressiveStrategyLosesMsb) {
  // Fig. 3 "Max-3": delta = -1 pushes the max element's leading one above
  // the stored window; with Clip semantics the decoded magnitude collapses.
  const std::vector<double> xs = {15.0};
  const BlockFormat fmt = BlockFormat::bbfp(4, 2, 1).with_delta(-1);
  const EncodedBlock b = encode_block(xs, fmt);
  EXPECT_LT(b.decode(0), 15.0 / 2.0);  // catastrophic, not a rounding error
}

TEST(BbfpEncode, SaturatePolicyBoundsAggressiveStrategyError) {
  const std::vector<double> xs = {15.0};
  BlockFormat fmt = BlockFormat::bbfp(4, 2, 1).with_delta(-1);
  fmt.overflow = OverflowPolicy::kSaturate;
  const EncodedBlock b = encode_block(xs, fmt);
  // Saturated at the top of the high window: 15 * 2^... stays close-ish.
  EXPECT_GT(b.decode(0), 7.0);
}

TEST(BbfpEncode, TruncateRoundingNeverExceedsRne) {
  Rng rng(23);
  std::vector<double> xs(64);
  for (auto& x : xs) x = rng.gaussian(0.0, 4.0);
  BlockFormat rne = BlockFormat::bbfp(4, 2);
  BlockFormat trunc = rne;
  trunc.rounding = Rounding::kTruncate;
  const double mse_rne = empirical_mse(xs, rne);
  const double mse_trunc = empirical_mse(xs, trunc);
  EXPECT_LE(mse_rne, mse_trunc * 1.0001);
}

TEST(QuantiseSpan, HandlesRemainderBlocks) {
  Rng rng(3);
  std::vector<double> xs(71);  // not a multiple of 32
  for (auto& x : xs) x = rng.gaussian(0.0, 2.0);
  const std::vector<double> q = quantise(xs, BlockFormat::bbfp(6, 3));
  ASSERT_EQ(q.size(), xs.size());
  // Error is bounded by one low/high-group step, not by a relative bound:
  // small elements of a block inherit the block's absolute step.
  for (std::size_t i = 0; i < xs.size(); ++i)
    EXPECT_NEAR(q[i], xs[i], std::fabs(xs[i]) * 0.07 + 0.02);
}

TEST(QuantiseSpan, FloatOverloadMatchesDoublePath) {
  Rng rng(5);
  std::vector<double> xs(96);
  std::vector<float> xf(96);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = rng.heavy_tailed(1.0, 0.05, 12.0);
    xf[i] = static_cast<float>(xs[i]);
  }
  const BlockFormat fmt = BlockFormat::bbfp(4, 2);
  std::vector<double> xd(xf.begin(), xf.end());
  const std::vector<double> qd = quantise(xd, fmt);
  std::vector<float> qf(xf.size());
  quantise(std::span<const float>(xf), fmt, std::span<float>(qf));
  for (std::size_t i = 0; i < xs.size(); ++i)
    EXPECT_FLOAT_EQ(qf[i], static_cast<float>(qd[i]));
}

TEST(QuantiseSpan, FusedPathEqualsEncodeAndDecodeBitForBit) {
  // quantise builds no EncodedBlock; it must still return exactly what
  // encode_block + decode_all give per block, for float and double input.
  Rng rng(77);
  for (int trial = 0; trial < 3000; ++trial) {
    const int m = static_cast<int>(rng.uniform_int(2, 10));
    const int o = static_cast<int>(rng.uniform_int(0, m - 1));
    BlockFormat fmt = BlockFormat::bfp(m);
    if (rng.uniform() < 0.5) fmt = BlockFormat::bbfp(m, o);
    fmt.block_size = static_cast<int>(rng.uniform_int(1, 48));
    fmt.strategy_delta = static_cast<int>(rng.uniform_int(-2, 2));
    fmt.source_precision = rng.uniform() < 0.5 ? 11 : 24;
    if (rng.uniform() < 0.5) fmt.rounding = Rounding::kTruncate;
    if (rng.uniform() < 0.5) fmt.overflow = OverflowPolicy::kSaturate;

    // Lengths leave short tail blocks; +-0 appear inside blocks and as a
    // whole all-zero first block (which decodes to +0.0).
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 150));
    const std::size_t bs = static_cast<std::size_t>(fmt.block_size);
    const double scale =
        std::ldexp(1.0, static_cast<int>(rng.uniform_int(-20, 20)));
    std::vector<float> xf(n);
    for (float& x : xf) {
      const double u = rng.uniform();
      if (u < 0.1) {
        x = 0.0f;
      } else if (u < 0.2) {
        x = -0.0f;
      } else {
        x = static_cast<float>(rng.heavy_tailed(1.0, 0.05, 20.0) * scale);
      }
    }
    if (rng.uniform() < 0.3)
      for (std::size_t i = 0; i < std::min(bs, n); ++i)
        xf[i] = i % 2 == 0 ? -0.0f : 0.0f;
    const std::vector<double> xd(xf.begin(), xf.end());

    std::vector<double> want(n);
    for (std::size_t start = 0; start < n; start += bs) {
      const std::size_t len = std::min(bs, n - start);
      const EncodedBlock block =
          encode_block(std::span<const double>(xd).subspan(start, len), fmt);
      const auto dst = std::span<double>(want).subspan(start, len);
      ASSERT_TRUE(block.decode_all(dst).is_ok());
    }

    std::vector<double> got_d(n);
    quantise(xd, fmt, std::span<double>(got_d));
    std::vector<float> got_f(n);
    quantise(std::span<const float>(xf), fmt, std::span<float>(got_f));
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got_d[i]),
                std::bit_cast<std::uint64_t>(want[i]))
          << fmt.name() << " bs=" << bs << " i=" << i;
      ASSERT_EQ(std::bit_cast<std::uint32_t>(got_f[i]),
                std::bit_cast<std::uint32_t>(static_cast<float>(want[i])))
          << fmt.name() << " bs=" << bs << " i=" << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Property sweep over (m, o) configurations.
// ---------------------------------------------------------------------------

struct MO {
  int m;
  int o;
};

class BbfpPropertyTest : public ::testing::TestWithParam<MO> {};

TEST_P(BbfpPropertyTest, RoundTripErrorWithinHighGroupStep) {
  const auto [m, o] = GetParam();
  const BlockFormat fmt = BlockFormat::bbfp(m, o);
  Rng rng(100 + static_cast<std::uint64_t>(m * 8 + o));
  std::vector<double> xs(256);
  for (auto& x : xs) x = rng.heavy_tailed(1.0, 0.08, 10.0);

  const std::size_t bs = static_cast<std::size_t>(fmt.block_size);
  for (std::size_t start = 0; start < xs.size(); start += bs) {
    const std::size_t len = std::min(bs, xs.size() - start);
    const EncodedBlock b =
        encode_block(std::span<const double>(xs).subspan(start, len), fmt);
    for (std::size_t i = 0; i < len; ++i) {
      const double err = std::fabs(b.decode(i) - xs[start + i]);
      // RNE error is step/2 except at the very top mantissa code, where the
      // sticky saturation can cost a full step; source-precision rounding
      // adds up to half an FP16 ulp on top.
      const double step = b.elems[i].flag ? b.step_high() : b.step_low();
      const double bound = step * 1.01 + 1e-12;
      EXPECT_LE(err, bound) << fmt.name() << " i=" << (start + i);
    }
  }
}

TEST_P(BbfpPropertyTest, DecodedMagnitudeNeverAboveSource) {
  // With Eq. (9) strategy the leading one always fits the window, so
  // encode is a pure round-to-grid: magnitudes cannot explode.
  const auto [m, o] = GetParam();
  const BlockFormat fmt = BlockFormat::bbfp(m, o);
  Rng rng(500 + static_cast<std::uint64_t>(m * 8 + o));
  std::vector<double> xs(128);
  for (auto& x : xs) x = rng.gaussian(0.0, 3.0);
  const std::vector<double> q = quantise(xs, fmt);
  const double step_bound = 2.0;  // generous: one high-group step at max
  for (std::size_t i = 0; i < xs.size(); ++i)
    EXPECT_LE(std::fabs(q[i]), std::fabs(xs[i]) * (1.0 + 0.5) + step_bound);
}

TEST_P(BbfpPropertyTest, BbfpNeverWorseThanBfpOnHeavyTails) {
  // The format's reason to exist (Section III.B): on outlier-bearing data
  // BBFP(m,o) has lower MSE than BFP with the same mantissa width.
  const auto [m, o] = GetParam();
  Rng rng(900 + static_cast<std::uint64_t>(m * 8 + o));
  std::vector<double> xs(4096);
  for (auto& x : xs) x = rng.heavy_tailed(1.0, 0.03, 30.0);
  const double mse_bbfp = empirical_mse(xs, BlockFormat::bbfp(m, o));
  const double mse_bfp = empirical_mse(xs, BlockFormat::bfp(m));
  EXPECT_LT(mse_bbfp, mse_bfp) << "m=" << m << " o=" << o;
}

INSTANTIATE_TEST_SUITE_P(
    PaperConfigs, BbfpPropertyTest,
    ::testing::Values(MO{3, 1}, MO{3, 2}, MO{4, 2}, MO{4, 3}, MO{6, 3},
                      MO{6, 4}, MO{6, 5}, MO{8, 4}, MO{10, 5}),
    [](const ::testing::TestParamInfo<MO>& info) {
      return "m" + std::to_string(info.param.m) + "o" +
             std::to_string(info.param.o);
    });

}  // namespace
}  // namespace bbal::quant
