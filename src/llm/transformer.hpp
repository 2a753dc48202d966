// Decoder-only transformer with pluggable matmul / nonlinear backends.
//
// Architecture (Llama-style): RMSNorm -> multi-head causal attention ->
// residual -> RMSNorm -> SiLU-gated MLP -> residual; final RMSNorm and a
// linear LM head. All linear layers route through the MatmulBackend, all
// softmax/SiLU through the NonlinearBackend, so quantisation error
// propagates through genuine forward passes.
//
// Why this teacher-forced forward stays next to Decoder::step_groups (the
// serving path): the two differ only in attention arithmetic. forward()
// scales q by inv_sqrt before the score product and issues scores/context
// through matmul_dynamic, so Session's capture decorator prices them; the
// decoder scales the dot product afterwards. Running perplexity through
// step_groups (the whole stream as one kAllRows group over a contiguous
// cache) was measured on Llama-7B at 256 eval tokens: Olive moves
// 940.147 -> 910.279 (-3.2%, over the 1% bar for merging the paths), the
// other Table II rows and the FP32 calibration (7.33251) hold, and the
// captured workload would lose its attention GEMMs (46 -> 22 GEMMs,
// 915,008 -> 693,056 cycles on the 16x16 array). So both paths stay.
#pragma once

#include <span>

#include "llm/backend.hpp"
#include "llm/model.hpp"

namespace bbal::llm {

/// Surprise of token `next` under `logits` (one row of vocab logits):
/// -log softmax(logits)[next], clipped at log(vocab) + 2 nats. The
/// per-position term of Transformer::mean_nll, for KV-cached evaluations
/// that must score exactly like it.
[[nodiscard]] double capped_nll(std::span<const float> logits, int next);

class Transformer {
 public:
  /// Backends and weights are borrowed; they must outlive the Transformer.
  Transformer(const ModelConfig& config, const TransformerWeights& weights,
              MatmulBackend& matmul_backend, NonlinearBackend& nl_backend);

  /// Teacher-forced forward pass over a token sequence; returns logits for
  /// every position (T x vocab), already scaled by logit_scale.
  [[nodiscard]] Matrix forward(std::span<const int> tokens);

  /// Mean next-token negative log likelihood over the sequence (position t
  /// predicts tokens[t+1]).
  [[nodiscard]] double mean_nll(std::span<const int> tokens);

  /// Perplexity = exp(mean_nll).
  [[nodiscard]] double perplexity(std::span<const int> tokens);

  void set_logit_scale(float scale) { logit_scale_ = scale; }
  [[nodiscard]] float logit_scale() const { return logit_scale_; }

  [[nodiscard]] const ModelConfig& config() const { return config_; }
  [[nodiscard]] const TransformerWeights& weights() const { return weights_; }
  [[nodiscard]] MatmulBackend& matmul_backend() { return matmul_; }
  [[nodiscard]] NonlinearBackend& nonlinear_backend() { return nonlinear_; }

  /// Bytes of prepared (quantised) weight storage the matmul backend
  /// holds for this model's registered matrices — the footprint the
  /// serving engine reports as weights_bytes.
  [[nodiscard]] std::int64_t weights_bytes() const {
    return matmul_.weights_bytes();
  }

  /// Handles of the registered weight matrices, per layer, in the order
  /// {wq, wk, wv, wo, w_gate, w_up, w_down}; last entry is the LM head.
  struct LayerHandles {
    int wq, wk, wv, wo, w_gate, w_up, w_down;
  };
  [[nodiscard]] const std::vector<LayerHandles>& layer_handles() const {
    return handles_;
  }
  [[nodiscard]] int lm_head_handle() const { return lm_head_handle_; }

 private:
  void attention(Matrix& x, int layer);
  void mlp(Matrix& x, int layer);

  const ModelConfig& config_;
  const TransformerWeights& weights_;
  MatmulBackend& matmul_;
  NonlinearBackend& nonlinear_;
  std::vector<LayerHandles> handles_;
  int lm_head_handle_ = -1;
  float logit_scale_ = 1.0f;
};

}  // namespace bbal::llm
