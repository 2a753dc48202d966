#include "llm/tensor.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstring>

#include "common/threadpool.hpp"

namespace bbal::llm {

namespace {

// The unit of work: up to kTileRows output rows by kPanelCols output
// columns, a multiple of the 12-column register tile. Columns are as
// independent as rows, so a GEMM with fewer rows than threads still splits.
constexpr int kTileRows = 4;
constexpr int kPanelCols = 48;

// Columns per inner-loop chunk. A fixed trip count because GCC at -O2 (the
// default RelWithDebInfo build) vectorises only loops whose trip count is
// a known multiple of the vector width.
constexpr int kColumnChunk = 8;

/// acc[j] += av * b[j] for j in [0, n): each product of two floats is exact
/// in double, so every acc[j] is the same k-ordered sum however j is split.
void axpy_row(double av, const float* b, double* acc, int n) {
  int j = 0;
  for (; j + kColumnChunk <= n; j += kColumnChunk)
    for (int t = 0; t < kColumnChunk; ++t) acc[j + t] += av * b[j + t];
  for (; j < n; ++j) acc[j] += av * b[j];
}

/// The row loop: one double accumulator per output of row i in [i0, i1)
/// and column in [j0, j1), summed in k order, skipping zero activations.
/// The baseline instantiation, and the column tail and non-finite fallback
/// of the others.
void row_loop(const Matrix& a, const Matrix& b, Matrix& c, int i0, int i1,
              int j0, int j1) {
  assert(j1 - j0 <= kPanelCols);
  const int k = a.cols();
  const int width = j1 - j0;
  for (int i = i0; i < i1; ++i) {
    std::array<double, kPanelCols> acc{};
    const float* arow = a.row(i).data();
    for (int kk = 0; kk < k; ++kk) {
      const double av = arow[kk];
      if (av == 0.0) continue;
      axpy_row(av, b.row(kk).data() + j0, acc.data(), width);
    }
    float* crow = c.row(i).data() + j0;
    for (int j = 0; j < width; ++j) crow[j] = static_cast<float>(acc[j]);
  }
}

#if defined(__x86_64__) || defined(__i386__)

// GCC/Clang vector extensions: 4 doubles fill an AVX2 ymm register, and
// the 4 floats they round to an xmm one.
using Doubles4 = double __attribute__((vector_size(32)));
using Floats4 = float __attribute__((vector_size(16)));

/// The R x 4V outputs at rows [i0, i0 + R), columns [j, j + 4V) in R * V
/// ymm accumulators, summed in k order over every k. Skipping no zero
/// activation changes no bit for finite operands: an accumulator starts at
/// +0 and is never -0 under round-to-nearest, so adding a +-0 product is a
/// no-op. Only a 0 * Inf or 0 * NaN product, which the row loop skips,
/// differs, and Inf and NaN are sticky: so when any output is not finite
/// this stores nothing and returns false, and the caller runs the row loop.
/// Every loop over the accumulators is unrolled so they stay in registers.
template <int R, int V>
__attribute__((target("avx2"))) bool register_tile(const Matrix& a,
                                                   const Matrix& b, Matrix& c,
                                                   int i0, int j) {
  const int k = a.cols();
  const std::size_t lda = static_cast<std::size_t>(k);
  const std::size_t ldb = static_cast<std::size_t>(b.cols());
  const float* ap = a.flat().data() + static_cast<std::size_t>(i0) * lda;
  const float* bp = b.flat().data();
  Doubles4 acc[R][V] = {};
  for (int kk = 0; kk < k; ++kk) {
    const float* brow = bp + static_cast<std::size_t>(kk) * ldb + j;
    Doubles4 bv[V];
    // Element by element, which GCC 12 widens with one vcvtps2pd (its
    // __builtin_convertvector takes three instructions).
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) {
      bv[v] = Doubles4{brow[4 * v], brow[4 * v + 1], brow[4 * v + 2],
                       brow[4 * v + 3]};
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const double av = ap[static_cast<std::size_t>(r) * lda + kk];
#pragma GCC unroll 4
      for (int v = 0; v < V; ++v) acc[r][v] += av * bv[v];
    }
  }
  // x * 0 is +-0 for a finite x and NaN otherwise.
  Doubles4 probe = {};
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) probe += acc[r][v] * 0.0;
  }
  if (!(probe[0] + probe[1] + probe[2] + probe[3] == 0.0)) return false;
  float* cp = c.flat().data() + static_cast<std::size_t>(i0) * ldb + j;
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) {
      const Floats4 out = __builtin_convertvector(acc[r][v], Floats4);
      std::memcpy(cp + static_cast<std::size_t>(r) * ldb + 4 * v, &out,
                  sizeof out);
    }
  }
  return true;
}

/// Columns [j, j + 4V) of rows [i0, i1), at most kTileRows of them; false
/// when the caller must run the row loop on them instead. Legacy-SSE code
/// run while the upper ymm halves are dirty is many times slower (a SiLU
/// loop, 30x on an AVX-512 Xeon), so AVX2 code calls no baseline code and
/// clears them itself before it returns: GCC 12 emits no vzeroupper before
/// a tail call out of AVX2 code, nor on every return path of an
/// ASan-instrumented build.
template <int V>
__attribute__((target("avx2"))) bool register_columns(const Matrix& a,
                                                      const Matrix& b,
                                                      Matrix& c, int i0,
                                                      int i1, int j) {
  static_assert(kTileRows == 4);
  bool finite = false;
  switch (i1 - i0) {
    case 1:
      finite = register_tile<1, V>(a, b, c, i0, j);
      break;
    case 2:
      finite = register_tile<2, V>(a, b, c, i0, j);
      break;
    case 3:
      finite = register_tile<3, V>(a, b, c, i0, j);
      break;
    default:
      finite = register_tile<4, V>(a, b, c, i0, j);
      break;
  }
  __builtin_ia32_vzeroupper();
  return finite;
}

/// The AVX2 instantiation: 12-column register tiles, then 4-column ones,
/// then the row loop for the last < 4 columns and for any register tile
/// with a non-finite output.
void avx2_tiles(const Matrix& a, const Matrix& b, Matrix& c, int i0, int i1,
                int j0, int j1) {
  int j = j0;
  for (; j + 12 <= j1; j += 12) {
    if (!register_columns<3>(a, b, c, i0, i1, j))
      row_loop(a, b, c, i0, i1, j, j + 12);
  }
  for (; j + 4 <= j1; j += 4) {
    if (!register_columns<1>(a, b, c, i0, i1, j))
      row_loop(a, b, c, i0, i1, j, j + 4);
  }
  if (j < j1) row_loop(a, b, c, i0, i1, j, j1);
}

#endif

}  // namespace

namespace detail {

std::span<const GemmKernel> gemm_kernels() {
  static constexpr GemmKernel kRowLoop{"row loop", row_loop};
#if defined(__x86_64__) || defined(__i386__)
  static constexpr GemmKernel kKernels[] = {{"avx2", avx2_tiles}, kRowLoop};
  static const bool avx2 =
      (__builtin_cpu_init(), __builtin_cpu_supports("avx2") != 0);
  return avx2 ? std::span(kKernels) : std::span(kKernels).last(1);
#else
  return {&kRowLoop, 1};
#endif
}

void matmul_with(const GemmKernel& kernel, const Matrix& a, const Matrix& b,
                 Matrix& c) {
  assert(a.cols() == b.rows());
  assert(&c != &a && &c != &b);
  const int m = a.rows();
  const int k = a.cols();
  const int n = b.cols();
  c.resize(m, n);
  // Tiles write disjoint outputs and every output is the same k-ordered
  // sum in any tile, so results are bit-identical at any thread count (the
  // determinism contract of the parallel engine — see
  // common/threadpool.hpp). Tiles run panel by panel, so the tiles of one
  // chunk share a panel of b.
  const int groups = (m + kTileRows - 1) / kTileRows;
  const int panels = (n + kPanelCols - 1) / kPanelCols;
  const auto tiles = [&](std::int64_t t0, std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      const int i0 = static_cast<int>(t % groups) * kTileRows;
      const int j0 = static_cast<int>(t / groups) * kPanelCols;
      kernel.tile(a, b, c, i0, std::min(i0 + kTileRows, m), j0,
                  std::min(j0 + kPanelCols, n));
    }
  };
  common::parallel_chunks(static_cast<std::int64_t>(groups) * panels,
                          static_cast<std::int64_t>(m) * k * n, tiles);
}

}  // namespace detail

void matmul(const Matrix& a, const Matrix& b, Matrix& c) {
  detail::matmul_with(detail::gemm_kernels().front(), a, b, c);
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul(a, b, c);
  return c;
}

void rmsnorm_row(std::span<float> x, std::span<const float> gain, float eps) {
  assert(x.size() == gain.size());
  double sq = 0.0;
  for (const float v : x) sq += static_cast<double>(v) * v;
  const double rms = std::sqrt(sq / static_cast<double>(x.size()) + eps);
  const auto inv = static_cast<float>(1.0 / rms);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = x[i] * inv * gain[i];
}

void rmsnorm_rows(Matrix& x, std::span<const float> gain, float eps) {
  const auto rows = [&](std::int64_t r0, std::int64_t r1) {
    for (int r = static_cast<int>(r0); r < r1; ++r)
      rmsnorm_row(x.row(r), gain, eps);
  };
  common::parallel_chunks(x.rows(), static_cast<std::int64_t>(x.size()), rows);
}

void softmax_reference(std::span<float> xs) {
  if (xs.empty()) return;
  float mx = xs[0];
  for (const float v : xs) mx = std::max(mx, v);
  double sum = 0.0;
  for (float& v : xs) {
    v = std::exp(v - mx);
    sum += v;
  }
  const auto inv = static_cast<float>(1.0 / sum);
  for (float& v : xs) v *= inv;
}

float silu_reference(float x) {
  return x / (1.0f + std::exp(-x));
}

void add_inplace(Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  const std::span<const float> bs = b.flat();
  const std::span<float> as = a.flat();
  for (std::size_t i = 0; i < as.size(); ++i) as[i] += bs[i];
}

}  // namespace bbal::llm
