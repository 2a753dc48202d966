#include "llm/backend.hpp"

#include <algorithm>
#include <cassert>

#include "common/threadpool.hpp"
#include "quant/block.hpp"

namespace bbal::llm {

namespace {

// Same inline cutoff as llm::matmul (tensor.cpp): tiny quantisation jobs
// (decoder single rows, per-head slices) skip the pool dispatch.
constexpr std::int64_t kParallelMinElements = 1 << 15;

/// Run `chunk(begin, end)` over [0, n): inline for small matrices, on the
/// pool otherwise. Chunks are independent vectors, so the split never
/// changes a bit of the result.
template <typename Fn>
void for_each_vector(const Matrix& m, int n, Fn&& chunk) {
  if (static_cast<std::int64_t>(m.size()) < kParallelMinElements) {
    chunk(0, n);
  } else {
    common::ThreadPool::global().parallel_for_chunks(0, n, /*grain=*/0, chunk);
  }
}

}  // namespace

// --- QuantisedMatmulBackend -------------------------------------------------

Matrix QuantisedMatmulBackend::quantise_weights(const Matrix& w) const {
  Matrix q(w.rows(), w.cols());
  for_each_vector(w, w.cols(), [&](std::int64_t j0, std::int64_t j1) {
    std::vector<float> col(static_cast<std::size_t>(w.rows()));
    std::vector<float> qcol(col.size());
    for (int j = static_cast<int>(j0); j < j1; ++j) {
      for (int k = 0; k < w.rows(); ++k)
        col[static_cast<std::size_t>(k)] = w.at(k, j);
      quantise_weight_column(col, qcol);
      for (int k = 0; k < w.rows(); ++k)
        q.at(k, j) = qcol[static_cast<std::size_t>(k)];
    }
  });
  return q;
}

void QuantisedMatmulBackend::quantise_activations_into(const Matrix& acts,
                                                       Matrix& q) const {
  q.resize(acts.rows(), acts.cols());
  for_each_vector(acts, acts.rows(), [&](std::int64_t r0, std::int64_t r1) {
    for (int r = static_cast<int>(r0); r < r1; ++r)
      quantise_activation_row(acts.row(r), q.row(r));
  });
}

int QuantisedMatmulBackend::prepare_weights(const Matrix& w,
                                            const std::string& tag) {
  (void)tag;
  weights_.push_back(quantise_weights(w));
  return static_cast<int>(weights_.size()) - 1;
}

void QuantisedMatmulBackend::matmul(const Matrix& acts, int weight_handle,
                                    Matrix& out) {
  assert(weight_handle >= 0 &&
         weight_handle < static_cast<int>(weights_.size()));
  // The quantised-activation scratch is a member, so the activation
  // matrix is not reallocated per call, and block quantisation and a GEMM
  // on a one-thread pool allocate nothing (test_alloc_free); at more
  // threads, each pooled loop still allocates its shared state and helper
  // tasks. Backends are single-session objects (see bbal/registry.hpp), so
  // matmul() is never re-entered.
  quantise_activations_into(acts, act_scratch_);
  llm::matmul(act_scratch_, weights_[static_cast<std::size_t>(weight_handle)],
              out);
}

void QuantisedMatmulBackend::matmul_dynamic(const Matrix& a, const Matrix& b,
                                            Matrix& out) {
  llm::matmul(a, b, out);
}

std::int64_t QuantisedMatmulBackend::weights_bytes() const {
  std::int64_t bytes = 0;
  for (const Matrix& w : weights_)
    bytes += static_cast<std::int64_t>(w.size()) *
             static_cast<std::int64_t>(sizeof(float));
  return bytes;
}

// --- Strategies -------------------------------------------------------------

void Fp32MatmulBackend::quantise_weight_column(std::span<const float> in,
                                               std::span<float> out) const {
  std::copy(in.begin(), in.end(), out.begin());
}

void Fp32MatmulBackend::quantise_activation_row(std::span<const float> in,
                                                std::span<float> out) const {
  std::copy(in.begin(), in.end(), out.begin());
}

void BlockQuantMatmulBackend::quantise_weight_column(
    std::span<const float> in, std::span<float> out) const {
  quant::quantise(in, fmt_, out);
}

void BlockQuantMatmulBackend::quantise_activation_row(
    std::span<const float> in, std::span<float> out) const {
  quant::quantise(in, fmt_, out);
}

std::unique_ptr<BlockQuantMatmulBackend> make_block_backend(
    const quant::BlockFormat& fmt) {
  return std::make_unique<BlockQuantMatmulBackend>(fmt);
}

}  // namespace bbal::llm
