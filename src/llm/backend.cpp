#include "llm/backend.hpp"

#include <cassert>

#include "common/threadpool.hpp"
#include "quant/block.hpp"

namespace bbal::llm {

namespace {

// Same inline cutoff as llm::matmul (tensor.cpp): tiny quantisation jobs
// (decoder single rows, per-head slices) skip the pool dispatch.
constexpr std::int64_t kParallelMinElements = 1 << 15;

}  // namespace

// --- Fp32MatmulBackend ------------------------------------------------------

int Fp32MatmulBackend::prepare_weights(const Matrix& w,
                                       const std::string& tag) {
  (void)tag;
  weights_.push_back(w);
  return static_cast<int>(weights_.size()) - 1;
}

void Fp32MatmulBackend::matmul(const Matrix& acts, int weight_handle,
                               Matrix& out) {
  assert(weight_handle >= 0 &&
         weight_handle < static_cast<int>(weights_.size()));
  llm::matmul(acts, weights_[static_cast<std::size_t>(weight_handle)], out);
}

void Fp32MatmulBackend::matmul_dynamic(const Matrix& a, const Matrix& b,
                                       Matrix& out) {
  llm::matmul(a, b, out);
}

// --- BlockQuantMatmulBackend ------------------------------------------------

BlockQuantMatmulBackend::BlockQuantMatmulBackend(quant::BlockFormat act_fmt,
                                                 quant::BlockFormat weight_fmt)
    : act_fmt_(act_fmt), weight_fmt_(weight_fmt) {}

std::string BlockQuantMatmulBackend::name() const {
  return act_fmt_.name();
}

Matrix BlockQuantMatmulBackend::quantise_weights(const Matrix& w) const {
  // Blocks run along K (rows of W) for each output column independently —
  // exactly the per-column weight vectors the PE array consumes. Columns
  // are independent, so they tile across the pool.
  Matrix q(w.rows(), w.cols());
  const int bs = weight_fmt_.block_size;
  const auto col_chunk = [&](std::int64_t j0, std::int64_t j1) {
        std::vector<double> buf(static_cast<std::size_t>(bs));
        std::vector<double> out(static_cast<std::size_t>(bs));
        for (std::int64_t j64 = j0; j64 < j1; ++j64) {
          const int j = static_cast<int>(j64);
          for (int k0 = 0; k0 < w.rows(); k0 += bs) {
            const int len = std::min(bs, w.rows() - k0);
            for (int i = 0; i < len; ++i)
              buf[static_cast<std::size_t>(i)] = w.at(k0 + i, j);
            quant::quantise(
                std::span<const double>(buf.data(),
                                        static_cast<std::size_t>(len)),
                weight_fmt_,
                std::span<double>(out.data(), static_cast<std::size_t>(len)));
            for (int i = 0; i < len; ++i)
              q.at(k0 + i, j) =
                  static_cast<float>(out[static_cast<std::size_t>(i)]);
          }
        }
      };
  if (static_cast<std::int64_t>(w.size()) < kParallelMinElements) {
    col_chunk(0, w.cols());
  } else {
    common::ThreadPool::global().parallel_for_chunks(0, w.cols(), /*grain=*/0,
                                                     col_chunk);
  }
  return q;
}

void BlockQuantMatmulBackend::quantise_activations_into(const Matrix& acts,
                                                        Matrix& q) const {
  q.resize(acts.rows(), acts.cols());
  const auto row_chunk = [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r)
      quant::quantise(acts.row(static_cast<int>(r)), act_fmt_,
                      q.row(static_cast<int>(r)));
  };
  if (static_cast<std::int64_t>(acts.size()) < kParallelMinElements) {
    row_chunk(0, acts.rows());
  } else {
    common::ThreadPool::global().parallel_for_chunks(0, acts.rows(),
                                                     /*grain=*/0, row_chunk);
  }
}

Matrix BlockQuantMatmulBackend::quantise_activations(const Matrix& acts) const {
  Matrix q;
  quantise_activations_into(acts, q);
  return q;
}

int BlockQuantMatmulBackend::prepare_weights(const Matrix& w,
                                             const std::string& tag) {
  (void)tag;
  quantised_weights_.push_back(quantise_weights(w));
  return static_cast<int>(quantised_weights_.size()) - 1;
}

void BlockQuantMatmulBackend::matmul(const Matrix& acts, int weight_handle,
                                     Matrix& out) {
  assert(weight_handle >= 0 &&
         weight_handle < static_cast<int>(quantised_weights_.size()));
  // The quantised-activation scratch is a member, so the activation
  // matrix is not reallocated per call (block encoding still allocates;
  // ROADMAP item 3(a)); backends are single-session objects (see
  // bbal/registry.hpp), so matmul() is never re-entered.
  quantise_activations_into(acts, act_scratch_);
  llm::matmul(act_scratch_,
              quantised_weights_[static_cast<std::size_t>(weight_handle)],
              out);
}

void BlockQuantMatmulBackend::matmul_dynamic(const Matrix& a, const Matrix& b,
                                             Matrix& out) {
  // Attention score/context products are activation-activation GEMMs; the
  // paper's weight-activation quantisation (Table II) applies to the linear
  // (weight) layers, so these run on the FP path — matching the W&A
  // conventions of the baselines (OmniQuant/Oltron/Olive are WxAy on
  // weight layers only).
  llm::matmul(a, b, out);
}

std::unique_ptr<BlockQuantMatmulBackend> make_block_backend(
    const quant::BlockFormat& fmt) {
  return std::make_unique<BlockQuantMatmulBackend>(fmt, fmt);
}

}  // namespace bbal::llm
