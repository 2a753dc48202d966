#include "llm/tensor.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string>

#include "common/rng.hpp"
#include "common/threadpool.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace bbal::llm {
namespace {

Matrix random_matrix(Rng& rng, int rows, int cols, double zero_share) {
  Matrix x(rows, cols);
  for (float& v : x.flat())
    v = rng.uniform() < zero_share ? 0.0f : static_cast<float>(rng.gaussian());
  return x;
}

/// The k-ordered double sum of a's row i times b's column j, skipping zero
/// activations: llm::matmul's definition.
float naive_product(const Matrix& a, const Matrix& b, int i, int j) {
  double acc = 0.0;
  for (int k = 0; k < a.cols(); ++k) {
    const double av = a.at(i, k);
    if (av != 0.0) acc += av * b.at(k, j);
  }
  return static_cast<float>(acc);
}

std::uint32_t bits(float x) { return std::bit_cast<std::uint32_t>(x); }

/// The first output of c that differs from `expected(i, j)` in any bit
/// (any NaN matches any NaN), or "" when none does.
template <typename Expected>
std::string first_mismatch(const Matrix& c, Expected&& expected) {
  for (int i = 0; i < c.rows(); ++i)
    for (int j = 0; j < c.cols(); ++j) {
      const float want = expected(i, j);
      const float got = c.at(i, j);
      if (std::isnan(want) ? !std::isnan(got) : bits(got) != bits(want))
        return "at " + std::to_string(i) + "," + std::to_string(j) + ": " +
               std::to_string(got) + " != " + std::to_string(want);
    }
  return "";
}

/// Whether the upper halves of the ymm registers are in use (XINUSE bit 2,
/// read by XGETBV with ECX = 1), or nullopt where the CPU cannot say.
std::optional<bool> upper_ymm_in_use() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_count(0xD, 1, &eax, &ebx, &ecx, &edx) == 0 ||
      (eax & 4u) == 0)
    return std::nullopt;
  unsigned lo = 0, hi = 0;
  asm volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(1));
  return (lo & 4u) != 0;
#else
  return std::nullopt;
#endif
}

#if defined(__x86_64__) || defined(__i386__)
/// Dirties a ymm register, then returns through the vzeroupper that the
/// compiler puts at the exit of AVX code.
__attribute__((target("avx2"), noinline)) double square_sum(const double* x) {
  using Doubles4 = double __attribute__((vector_size(32)));
  Doubles4 v;
  std::memcpy(&v, x, sizeof v);
  v *= v;
  return v[0] + v[1] + v[2] + v[3];
}
#endif

/// Whether this CPU reports the upper ymm halves clean after a vzeroupper,
/// so that upper_ymm_in_use() can check a GEMM.
bool reports_clean_upper_ymm() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2") == 0) return false;
  const double x[4] = {1.0, 2.0, 3.0, 4.0};
  if (square_sum(x) != 30.0) return false;
  return upper_ymm_in_use() == false;
#else
  return false;
#endif
}

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
  // Bit for bit on every instantiation this CPU runs: each output is the
  // k-ordered double sum of its products, whatever the tiling. M covers
  // every row-group tail; N the 12- and 4-column register tiles and the
  // scalar tail; a fifth of the activations are zero.
  Rng rng(4);
  for (const detail::GemmKernel& kernel : detail::gemm_kernels())
    for (const int k : {1, 37, 128})
      for (int m = 1; m <= 9; ++m)
        for (const int n : {1, 3, 4, 5, 11, 12, 13, 24, 25, 341, 344}) {
          const Matrix a = random_matrix(rng, m, k, 0.2);
          const Matrix b = random_matrix(rng, k, n, 0.0);
          Matrix c;
          detail::matmul_with(kernel, a, b, c);
          ASSERT_EQ(c.rows(), m);
          ASSERT_EQ(c.cols(), n);
          EXPECT_EQ(first_mismatch(c,
                                   [&](int i, int j) {
                                     return naive_product(a, b, i, j);
                                   }),
                    "")
              << kernel.name << " " << m << "x" << k << "x" << n;
        }
}

TEST(Matmul, ZeroActivationIgnoresNonFiniteWeight) {
  // Weight row kBad holds Inf, -Inf and NaN, and only activation row 2 is
  // nonzero there. Every other row must get the finite sum of its other
  // products, as if the 0 * Inf and 0 * NaN products were never formed;
  // row 2 gets the naive loop's Inf or NaN. M = 9 has a mixed row group, a
  // group of zero rows and a one-row tail.
  constexpr int kK = 37;
  constexpr int kBad = 17;
  constexpr float kInf = std::numeric_limits<float>::infinity();
  Rng rng(9);
  for (const detail::GemmKernel& kernel : detail::gemm_kernels())
    for (const int m : {1, 4, 5, 9})
      for (const int n : {5, 13, 25, 344}) {
        Matrix a = random_matrix(rng, m, kK, 0.0);
        Matrix b = random_matrix(rng, kK, n, 0.0);
        b.at(kBad, 0) = kInf;
        b.at(kBad, n / 2) = -kInf;
        b.at(kBad, n - 1) = std::numeric_limits<float>::quiet_NaN();
        for (int i = 0; i < m; ++i) a.at(i, kBad) = i == 2 ? 1.5f : 0.0f;
        Matrix c;
        detail::matmul_with(kernel, a, b, c);
        for (int i = 0; i < m; ++i)
          for (int j = 0; j < n; ++j)
            ASSERT_EQ(std::isfinite(naive_product(a, b, i, j)),
                      i != 2 || (j != 0 && j != n / 2 && j != n - 1));
        EXPECT_EQ(first_mismatch(c,
                                 [&](int i, int j) {
                                   return naive_product(a, b, i, j);
                                 }),
                  "")
            << kernel.name << " " << m << "x" << kK << "x" << n;
      }
}

TEST(Matmul, LeavesUpperYmmClean) {
  // Legacy-SSE code run while the upper ymm halves are dirty is many times
  // slower (a SiLU loop, 30x on an AVX-512 Xeon), so a GEMM must return
  // with them clean, on every path: column tails after 12- and 4-column
  // tiles, and the row loop's recompute of a non-finite tile.
  if (!reports_clean_upper_ymm())
    GTEST_SKIP() << "this CPU does not report a clean upper ymm state";
  Rng rng(14);
  for (const detail::GemmKernel& kernel : detail::gemm_kernels())
    for (const int n : {3, 5, 13, 341})
      for (const bool non_finite : {false, true}) {
        const Matrix a = random_matrix(rng, 4, 37, 0.2);
        Matrix b = random_matrix(rng, 37, n, 0.0);
        if (non_finite) b.at(0, 0) = std::numeric_limits<float>::infinity();
        Matrix c;
        detail::matmul_with(kernel, a, b, c);
        EXPECT_EQ(upper_ymm_in_use(), false)
            << kernel.name << " n=" << n << " non-finite=" << non_finite;
      }
}

TEST(Matmul, ThreadCountInvariant) {
  // At 4 threads the one row group of each GEMM splits over column panels,
  // so several threads write one output row; no bit may move.
  Rng rng(12);
  for (const auto [m, k, n] :
       {std::array{4, 128, 344}, std::array{1, 128, 512}}) {
    const Matrix a = random_matrix(rng, m, k, 0.2);
    const Matrix b = random_matrix(rng, k, n, 0.0);
    for (const detail::GemmKernel& kernel : detail::gemm_kernels()) {
      Matrix serial, pooled;
      common::ThreadPool::set_global_threads(1);
      detail::matmul_with(kernel, a, b, serial);
      common::ThreadPool::set_global_threads(4);
      detail::matmul_with(kernel, a, b, pooled);
      EXPECT_EQ(first_mismatch(
                    pooled, [&](int i, int j) { return serial.at(i, j); }),
                "")
          << kernel.name << " " << m << "x" << k << "x" << n;
    }
  }
  common::ThreadPool::set_global_threads(common::ThreadPool::env_threads());
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
