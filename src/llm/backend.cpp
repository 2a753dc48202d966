#include "llm/backend.hpp"

#include <algorithm>
#include <cassert>

#include "common/threadpool.hpp"
#include "quant/block.hpp"

namespace bbal::llm {

// --- QuantisedMatmulBackend -------------------------------------------------

// Both quantisers split over independent vectors (weight columns,
// activation rows), so the split never changes a bit of the result.

Matrix QuantisedMatmulBackend::quantise_weights(const Matrix& w) const {
  Matrix q(w.rows(), w.cols());
  const auto columns = [&](std::int64_t j0, std::int64_t j1) {
    std::vector<float> col(static_cast<std::size_t>(w.rows()));
    std::vector<float> qcol(col.size());
    for (int j = static_cast<int>(j0); j < j1; ++j) {
      for (int k = 0; k < w.rows(); ++k)
        col[static_cast<std::size_t>(k)] = w.at(k, j);
      quantise_weight_column(col, qcol);
      for (int k = 0; k < w.rows(); ++k)
        q.at(k, j) = qcol[static_cast<std::size_t>(k)];
    }
  };
  common::parallel_chunks(w.cols(), static_cast<std::int64_t>(w.size()),
                          columns);
  return q;
}

void QuantisedMatmulBackend::quantise_activations_into(const Matrix& acts,
                                                       Matrix& q) const {
  q.resize(acts.rows(), acts.cols());
  const auto rows = [&](std::int64_t r0, std::int64_t r1) {
    for (int r = static_cast<int>(r0); r < r1; ++r)
      quantise_activation_row(acts.row(r), q.row(r));
  };
  common::parallel_chunks(acts.rows(), static_cast<std::int64_t>(acts.size()),
                          rows);
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
  // matrix is not reallocated per call, and block quantisation and a
  // pooled GEMM allocate nothing at any thread count (test_alloc_free).
  // Backends are single-session objects (see bbal/registry.hpp), so
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
