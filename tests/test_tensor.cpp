#include "llm/tensor.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/rng.hpp"

namespace bbal::llm {
namespace {

TEST(Matrix, BasicIndexing) {
  Matrix m(2, 3);
  m.at(0, 0) = 1.0f;
  m.at(1, 2) = 5.0f;
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_FLOAT_EQ(m.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(m.at(1, 2), 5.0f);
  EXPECT_FLOAT_EQ(m.row(1)[2], 5.0f);
}

TEST(Matrix, ResizeKeepsCapacityAndShape) {
  Matrix m(4, 8);
  for (std::size_t i = 0; i < m.flat().size(); ++i)
    m.flat()[i] = static_cast<float>(i);
  const float* data = m.flat().data();

  m.resize(4, 8);  // same shape: no-op, contents untouched
  EXPECT_EQ(m.flat().data(), data);
  EXPECT_FLOAT_EQ(m.at(3, 7), 31.0f);

  m.resize(2, 8);  // shrink: shape changes, storage stays put
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 8);
  EXPECT_EQ(m.flat().data(), data);

  m.resize(4, 8);  // grow back within capacity: still no reallocation
  EXPECT_EQ(m.rows(), 4);
  EXPECT_EQ(m.flat().data(), data);
}

TEST(Matmul, ReusesOutputStorageAcrossShapes) {
  Rng rng(6);
  Matrix a(5, 11), b(11, 7);
  for (float& v : a.flat()) v = static_cast<float>(rng.gaussian());
  for (float& v : b.flat()) v = static_cast<float>(rng.gaussian());

  // Warm the output with a larger product, then reuse it for a smaller
  // one: the result must match a fresh computation exactly and keep the
  // same storage (the zero-allocation decode-loop contract).
  Matrix c;
  matmul(a, b, c);
  const Matrix fresh = matmul(a, b);
  const float* data = c.flat().data();

  Matrix a2(2, 11);
  for (float& v : a2.flat()) v = static_cast<float>(rng.gaussian());
  matmul(a2, b, c);
  EXPECT_EQ(c.rows(), 2);
  EXPECT_EQ(c.cols(), 7);
  EXPECT_EQ(c.flat().data(), data);
  const Matrix fresh2 = matmul(a2, b);
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 7; ++j)
      EXPECT_FLOAT_EQ(c.at(i, j), fresh2.at(i, j)) << i << "," << j;

  matmul(a, b, c);  // grow back into retained capacity
  EXPECT_EQ(c.flat().data(), data);
  for (int i = 0; i < 5; ++i)
    for (int j = 0; j < 7; ++j)
      EXPECT_FLOAT_EQ(c.at(i, j), fresh.at(i, j)) << i << "," << j;
}

TEST(Matmul, HandComputed) {
  Matrix a(2, 2), b(2, 2);
  a.at(0, 0) = 1; a.at(0, 1) = 2; a.at(1, 0) = 3; a.at(1, 1) = 4;
  b.at(0, 0) = 5; b.at(0, 1) = 6; b.at(1, 0) = 7; b.at(1, 1) = 8;
  const Matrix c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50);
}

TEST(Matmul, MatchesNaiveTripleLoop) {
  // Bit for bit: every output is the k-ordered double sum of the products,
  // whatever the column chunking (N covers chunk tails) and with zero
  // activations, which the kernel skips.
  constexpr int kK = 37;
  Rng rng(4);
  for (const int m : {1, 4, 7}) {
    for (const int n : {5, 8, 13, 341}) {
      Matrix a(m, kK), b(kK, n);
      for (float& v : a.flat())
        v = rng.uniform() < 0.2 ? 0.0f : static_cast<float>(rng.gaussian());
      for (float& v : b.flat()) v = static_cast<float>(rng.gaussian());
      const Matrix c = matmul(a, b);
      for (int i = 0; i < m; ++i)
        for (int j = 0; j < n; ++j) {
          double acc = 0.0;
          for (int k = 0; k < kK; ++k)
            acc += static_cast<double>(a.at(i, k)) * b.at(k, j);
          EXPECT_EQ(std::bit_cast<std::uint32_t>(c.at(i, j)),
                    std::bit_cast<std::uint32_t>(static_cast<float>(acc)))
              << m << "x" << n << " at " << i << "," << j;
        }
    }
  }
}

TEST(RmsNorm, UnitGainNormalisesRms) {
  Matrix x(1, 4);
  x.at(0, 0) = 2; x.at(0, 1) = -2; x.at(0, 2) = 2; x.at(0, 3) = -2;
  const std::vector<float> gain(4, 1.0f);
  rmsnorm_rows(x, gain);
  double sq = 0.0;
  for (const float v : x.flat()) sq += static_cast<double>(v) * v;
  EXPECT_NEAR(std::sqrt(sq / 4.0), 1.0, 1e-3);
}

TEST(RmsNorm, GainScalesChannels) {
  Matrix x(1, 2);
  x.at(0, 0) = 1.0f;
  x.at(0, 1) = 1.0f;
  const std::vector<float> gain = {1.0f, 3.0f};
  rmsnorm_rows(x, gain);
  EXPECT_NEAR(x.at(0, 1) / x.at(0, 0), 3.0, 1e-5);
}

TEST(Softmax, SumsToOneAndOrders) {
  std::vector<float> xs = {1.0f, 2.0f, 3.0f};
  softmax_reference(xs);
  EXPECT_NEAR(xs[0] + xs[1] + xs[2], 1.0, 1e-6);
  EXPECT_LT(xs[0], xs[1]);
  EXPECT_LT(xs[1], xs[2]);
}

TEST(Softmax, StableForLargeInputs) {
  std::vector<float> xs = {1000.0f, 999.0f};
  softmax_reference(xs);
  EXPECT_NEAR(xs[0] + xs[1], 1.0, 1e-6);
  EXPECT_GT(xs[0], xs[1]);
  EXPECT_FALSE(std::isnan(xs[0]));
}

TEST(Silu, MatchesDefinition) {
  for (const float x : {-4.0f, -1.0f, 0.0f, 0.5f, 3.0f}) {
    const float expected = x / (1.0f + std::exp(-x));
    EXPECT_FLOAT_EQ(silu_reference(x), expected);
  }
}

TEST(AddInplace, Adds) {
  Matrix a(1, 3), b(1, 3);
  for (int j = 0; j < 3; ++j) {
    a.at(0, j) = static_cast<float>(j);
    b.at(0, j) = 10.0f;
  }
  add_inplace(a, b);
  EXPECT_FLOAT_EQ(a.at(0, 2), 12.0f);
}

}  // namespace
}  // namespace bbal::llm
