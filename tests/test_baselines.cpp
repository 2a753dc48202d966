// Baseline quantiser emulations: each must exhibit the failure/success mode
// the paper attributes to it.
#include "baselines/quant_baselines.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace bbal::baselines {
namespace {

std::vector<float> gaussian_vec(Rng& rng, std::size_t n, double stddev) {
  std::vector<float> xs(n);
  for (auto& x : xs) x = static_cast<float>(rng.gaussian(0.0, stddev));
  return xs;
}

double vec_mse(std::span<const float> a, std::span<const float> b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    acc += d * d;
  }
  return acc / static_cast<double>(a.size());
}

/// `xs` through INT-`bits`'s vector quantiser.
std::vector<float> int_quantise(std::span<const float> xs, int bits) {
  std::vector<float> q(xs.size());
  IntQuantBackend(bits).quantise_vector(xs, q);
  return q;
}

TEST(IntQuant, Int8NearlyLossless) {
  Rng rng(1);
  const std::vector<float> xs = gaussian_vec(rng, 64, 1.0);
  EXPECT_LT(vec_mse(xs, int_quantise(xs, 8)), 1e-4);
}

TEST(IntQuant, Int4CoarserThanInt8) {
  Rng rng(2);
  const std::vector<float> xs = gaussian_vec(rng, 64, 1.0);
  EXPECT_GT(vec_mse(xs, int_quantise(xs, 4)),
            vec_mse(xs, int_quantise(xs, 8)) * 10);
}

TEST(IntQuant, OutlierCrushesRowResolution) {
  // The absmax scale is hostage to the largest element — the INT failure
  // mode that motivates all the outlier-aware methods.
  Rng rng(3);
  std::vector<float> xs = gaussian_vec(rng, 64, 0.5);
  xs[7] = 100.0f;
  const std::vector<float> q = int_quantise(xs, 4);
  int zeroed = 0;
  for (std::size_t i = 0; i < xs.size(); ++i)
    if (q[i] == 0.0f && xs[i] != 0.0f) ++zeroed;
  EXPECT_GT(zeroed, 32);  // most of the bulk flushed to zero
}

TEST(Oltron, BudgetProtectsIsolatedOutliers) {
  Rng rng(4);
  OltronBackend oltron(/*outlier_budget=*/0.10);
  std::vector<float> xs = gaussian_vec(rng, 256, 0.5);
  xs[10] = 50.0f;  // one outlier group out of 8 -> within budget
  std::vector<float> q(xs.size());
  oltron.quantise_vector(xs, q);
  // The outlier survives at high precision.
  EXPECT_NEAR(q[10], 50.0f, 0.5f);
  // Groups without outliers keep fine resolution.
  double bulk_mse = 0.0;
  for (std::size_t i = 64; i < 256; ++i) {
    const double d = static_cast<double>(xs[i]) - q[i];
    bulk_mse += d * d;
  }
  EXPECT_LT(bulk_mse / 192.0, 0.01);
}

TEST(Oltron, OverBudgetOutliersDamageBulk) {
  // More outlier groups than the budget: unprotected groups get max-aligned
  // 4-bit grids and their bulk collapses — Oltron's Llama failure mode.
  Rng rng(5);
  OltronBackend oltron(/*outlier_budget=*/0.03);
  std::vector<float> xs = gaussian_vec(rng, 256, 0.5);
  for (const std::size_t idx : {5u, 40u, 70u, 100u, 130u, 160u, 200u, 230u})
    xs[idx] = 60.0f;  // outliers in every group
  std::vector<float> q(xs.size());
  oltron.quantise_vector(xs, q);
  int crushed = 0;
  for (std::size_t i = 0; i < xs.size(); ++i)
    if (q[i] == 0.0f && std::fabs(xs[i]) > 0.05f) ++crushed;
  EXPECT_GT(crushed, 100);
}

TEST(Olive, OutlierBorrowsVictimSlot) {
  Rng rng(6);
  OliveBackend olive(4);
  std::vector<float> xs = gaussian_vec(rng, 64, 0.5);
  // The outlier must sit inside Olive's extended range (~2^bits x the bulk
  // grid limit, here ~14): beyond that it clips regardless of the victim.
  xs[8] = 10.0f;   // outlier
  xs[9] = 0.3f;    // its victim
  std::vector<float> q(xs.size());
  olive.quantise_vector(xs, q);
  EXPECT_EQ(q[9], 0.0f);                    // victim sacrificed
  EXPECT_NEAR(q[8], 10.0f, 10.0f * 0.25f);  // outlier represented coarsely
}

TEST(Olive, AdjacentOutliersClip) {
  Rng rng(7);
  OliveBackend olive(4);
  std::vector<float> xs = gaussian_vec(rng, 64, 0.5);
  xs[8] = 20.0f;
  xs[9] = 25.0f;  // pair partner is itself an outlier: no victim available
  std::vector<float> q(xs.size());
  olive.quantise_vector(xs, q);
  // One of the two must be hard-clipped far below its value.
  const bool clipped =
      q[8] < 10.0f || q[9] < 12.0f;
  EXPECT_TRUE(clipped);
}

TEST(Omniquant, ClipSearchBeatsAbsmaxOnOutlierChannel) {
  Rng rng(8);
  std::vector<float> xs = gaussian_vec(rng, 128, 0.5);
  // A moderate (6-sigma) outlier: clipping it is MSE-optimal, which is when
  // OmniQuant's learnable clipping pays off. (For extreme outliers the
  // search correctly keeps the full range and matches absmax.)
  xs[0] = 3.0f;
  std::vector<float> clip_q(xs.size());
  OmniquantBackend::quantise_channel_clip_search(xs, clip_q, 4);

  // absmax reference at the same width.
  float mx = 0.0f;
  for (const float v : xs) mx = std::max(mx, std::fabs(v));
  const float scale = mx / 7.0f;
  std::vector<float> absmax_q(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i)
    absmax_q[i] = std::nearbyint(xs[i] / scale) * scale;

  // Compare bulk MSE (excluding the outlier itself).
  double mse_clip = 0.0;
  double mse_absmax = 0.0;
  for (std::size_t i = 1; i < xs.size(); ++i) {
    mse_clip += (xs[i] - clip_q[i]) * (xs[i] - clip_q[i]);
    mse_absmax += (xs[i] - absmax_q[i]) * (xs[i] - absmax_q[i]);
  }
  EXPECT_LT(mse_clip, mse_absmax);
}

TEST(Backends, NamesAreStable) {
  EXPECT_EQ(IntQuantBackend(8).name(), "INT8");
  EXPECT_EQ(OltronBackend().name(), "Oltron");
  EXPECT_EQ(OliveBackend().name(), "Olive");
  EXPECT_EQ(OmniquantBackend().name(), "OmniQuant");
}

}  // namespace
}  // namespace bbal::baselines
