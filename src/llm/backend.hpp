// Pluggable execution backends: the same transformer runs with FP32 math,
// block-quantised (BFP/BBFP) math, or any baseline quantiser, and with FP32
// or LUT-based nonlinear units. Table II swaps the matmul backend; Table IV
// swaps the nonlinear backend.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "llm/tensor.hpp"
#include "quant/format.hpp"

namespace bbal::llm {

/// Linear-layer executor. Weights are registered once (so backends can
/// pre-quantise them); activations are processed per call.
class MatmulBackend {
 public:
  virtual ~MatmulBackend() = default;

  /// Register a weight matrix; returns a handle for `matmul`.
  virtual int prepare_weights(const Matrix& w, const std::string& tag) = 0;

  /// out = acts x W[handle], with backend-specific quantisation applied.
  virtual void matmul(const Matrix& acts, int weight_handle, Matrix& out) = 0;

  /// Dynamic activation-by-activation product (attention scores/context):
  /// out = a x b.
  virtual void matmul_dynamic(const Matrix& a, const Matrix& b,
                              Matrix& out) = 0;

  /// Bytes of prepared weight storage this backend holds (the quantised
  /// copies registered through prepare_weights). The serving engine
  /// surfaces this as the weights_bytes metric: with one shared backend
  /// the figure is paid once per engine, not once per execution slot.
  [[nodiscard]] virtual std::int64_t weights_bytes() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// The one matmul skeleton every shipped strategy runs on. Weights are
/// quantised once, column by column along K (the per-column weight vectors
/// the PE array consumes); activations are quantised per call, row by row,
/// into a reused scratch; the product is llm::matmul's double-accumulated
/// GEMM. A strategy supplies only its two vector quantisers. An activation
/// quantiser sees one row and nothing else, so every row of a batched
/// matmul is quantised exactly as it would be alone: the batched == serial
/// contract the serving engine rests on holds by construction.
///
/// Dynamic products (attention scores/context) run on the FP32 path for
/// every strategy: the paper's weight-activation quantisation (Table II)
/// applies to the linear (weight) layers, matching the WxAy conventions of
/// the baselines.
class QuantisedMatmulBackend : public MatmulBackend {
 public:
  int prepare_weights(const Matrix& w, const std::string& tag) final;
  void matmul(const Matrix& acts, int weight_handle, Matrix& out) final;
  void matmul_dynamic(const Matrix& a, const Matrix& b, Matrix& out) final;
  [[nodiscard]] std::int64_t weights_bytes() const final;

  /// Quantise a K x N weight matrix column by column.
  [[nodiscard]] Matrix quantise_weights(const Matrix& w) const;
  /// Quantise activations row by row into a caller-owned matrix (resized
  /// to acts' shape, reusing its storage): the path matmul() runs on.
  void quantise_activations_into(const Matrix& acts, Matrix& q) const;

 protected:
  /// Quantise one weight column (K values along the reduction axis).
  virtual void quantise_weight_column(std::span<const float> in,
                                      std::span<float> out) const = 0;
  /// Quantise one activation row (one token's K values).
  virtual void quantise_activation_row(std::span<const float> in,
                                       std::span<float> out) const = 0;

 private:
  std::vector<Matrix> weights_;
  Matrix act_scratch_;  ///< reused by matmul(); rows quantised per call
};

/// Nonlinear-layer executor (softmax rows and SiLU activations). SiLU is
/// vector-wise: block-based units (BFP/BBFP LUT engines) share one exponent
/// per 32-element chunk, so element context matters. Both default to the
/// FP32 reference, so a softmax-only unit overrides only softmax.
class NonlinearBackend {
 public:
  virtual ~NonlinearBackend() = default;
  virtual void softmax(std::span<float> xs) { softmax_reference(xs); }
  virtual void silu(std::span<float> xs) {
    for (float& x : xs) x = silu_reference(x);
  }
  [[nodiscard]] virtual std::string name() const = 0;
};

// --- Reference FP32 backends ------------------------------------------------

class Fp32MatmulBackend final : public QuantisedMatmulBackend {
 public:
  [[nodiscard]] std::string name() const override { return "FP32"; }

 protected:
  void quantise_weight_column(std::span<const float> in,
                              std::span<float> out) const override;
  void quantise_activation_row(std::span<const float> in,
                               std::span<float> out) const override;
};

class Fp32NonlinearBackend final : public NonlinearBackend {
 public:
  [[nodiscard]] std::string name() const override { return "FP32"; }
};

// --- Block-quantised backend ------------------------------------------------

/// Fake-quant executor mathematically equivalent to the BBAL datapath:
/// weight columns and activation rows are quantised block by block along
/// K in one format (the paper's W&A setting), products accumulated in
/// double (the FP-adder path across 32-element blocks).
class BlockQuantMatmulBackend final : public QuantisedMatmulBackend {
 public:
  explicit BlockQuantMatmulBackend(quant::BlockFormat fmt) : fmt_(fmt) {}
  [[nodiscard]] std::string name() const override { return fmt_.name(); }

 protected:
  void quantise_weight_column(std::span<const float> in,
                              std::span<float> out) const override;
  void quantise_activation_row(std::span<const float> in,
                               std::span<float> out) const override;

 private:
  quant::BlockFormat fmt_;
};

/// Convenience: the block-quantised backend for `fmt`.
[[nodiscard]] std::unique_ptr<BlockQuantMatmulBackend> make_block_backend(
    const quant::BlockFormat& fmt);

}  // namespace bbal::llm
